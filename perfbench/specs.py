"""The benchmark's workloads: which queries each one runs, at which data
scale, and how the run's ``--seed`` reaches the data generators.

Every generator is called through its public ``seed`` parameter with
``default + SEED_STRIDE * seed``: seed 0 keeps the generators' own default
seeds (those behind EXPERIMENTS.md, there at a larger scale), and other
seeds give independent draws of the same shape.
"""
from __future__ import annotations

import inspect

from pyspark.sql import DataFrame, SparkSession

from repro import synth_data
from repro.datagen import graph, imdb, lsqb
from repro.workloads import Workload, all_queries

#: spacing between the seeds one generator sees on successive ``--seed``
#: values; wide enough that no two generators share a random stream
SEED_STRIDE = 1000

#: generator parameters per benchmark: 5-10% of ``repro.tables.BENCH_SCALE``,
#: where Spark's per-query overhead, not data volume, already dominates
SCALE = {
    "sgpb": dict(scale=0.1),
    "lsqb": dict(sf=0.1),
    "tpch": dict(sf=0.01),
    "job": dict(sf=0.05, dup=3),
}


#: workload -> its queries: one to three of the queries the repo's
#: experiments name, so that a run's set-ups, checked warm-up and timed
#: passes take well under a minute on 4 cores.
WORKLOADS = {
    # PK-FK snowflake joins of 7 and 9 relations with selective predicates:
    # statistics, planning and the PK-FK rules do the most work, no GHD bags.
    # Two queries, not one: job-27c alone measured a bimodal Yannakakis+
    # time across seeds (speedup 1.1-1.2 on some, 1.45-1.55 on others).
    "job": ("job-17c", "job-27c"),
    # GHD bags (the SGPB dumbbell) and PK-FK cycle elimination (TPC-H q5):
    # the only workload where preparing an acyclic query does any work
    "cyclic": ("sgpb-q2b", "tpch-q5"),
    # SUM aggregates over skewed many-to-many chains with tiny outputs:
    # execution-bound, where pushing the aggregate ahead of joins pays
    "graph-agg": ("sgpb-q4b", "sgpb-q8", "lsqb-q1"),
    # full enumeration and DISTINCT projections with large outputs: keeps
    # semi-joins and is output-bound where graph-agg is aggregate-bound
    "graph-enum": ("sgpb-q1a", "sgpb-q4a", "sgpb-q6"),
}


def queries(workload: str) -> list[Workload]:
    qs = all_queries()
    return [qs[name] for name in WORKLOADS[workload]]


def _seeded(fn, seed: int) -> int:
    return inspect.signature(fn).parameters["seed"].default + SEED_STRIDE * seed


def generate(
    spark: SparkSession, benchmark: str, sources: set[str], seed: int
) -> dict[str, DataFrame]:
    """Generate (lazily) the named source tables of one benchmark."""
    params = SCALE[benchmark]
    if benchmark == "sgpb":
        return {
            s: graph.dataset(spark, s, seed=_seeded(graph.dataset, seed), **params)
            for s in sources
        }
    if benchmark == "tpch":
        out = {}
        for s in sources:
            fn = getattr(synth_data, s)
            sig = inspect.signature(fn).parameters
            kw = dict(params) if "sf" in sig else {}
            if "seed" in sig:
                kw["seed"] = _seeded(fn, seed)
            out[s] = fn(spark, **kw)
        return out
    gen = {"lsqb": lsqb.tables, "job": imdb.tables}[benchmark]
    t = gen(spark, seed=_seeded(gen, seed), **params)
    return {s: t[s] for s in sources}


def sources_by_benchmark(wls: list[Workload]) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for wl in wls:
        out.setdefault(wl.benchmark, set()).update(r.source for r in wl.cq.relations)
    return out
