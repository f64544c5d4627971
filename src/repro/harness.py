"""Measurement harness: build/run a workload query under one of the three
evaluation modes and time it.

Modes (the three bars of the paper's Figure 9 / Table 2):

* ``native``       — the engine's own plan for the single SQL statement;
* ``yannakakis``   — the classic Yannakakis algorithm (§2.3);
* ``yannakakis+``  — this paper's algorithm with its optimizer (§3, §5).

Cyclic queries are handled as the paper's system does: first the PK-FK
cycle-elimination rewrite (§5.1), else a GHD decomposition whose bags are
natively evaluated subqueries (§4.1); the native baseline always runs the
original query. ``prepare`` runs no Spark job: the bags are lazy, so a
Yannakakis(+) time taken from a ``Prepared`` (``time_mode``, and so every
``repro.tables`` builder behind ``jobs/run_all_tables.py``) includes
evaluating them, just as native pays for its own cyclic join. Statistics
are memoised per (source, predicate, columns, exactness), and a query's
uncached ones are collected in one batched Spark aggregate before the
optimizer's clock starts — the paper's system reads them from the DBMS
catalog, so stat collection is not part of a query's optimization time.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from .core._emit import Rules
from .core.executor import execute, native_df
from .core.ghd import decompose, materialize_bags
from .core.hypergraph import is_acyclic
from .core.yannakakis import plan_yannakakis
from .optimizer.cardinality import ESTIMATED
from .optimizer.enumerate import Choice, choose_plan
from .optimizer.rules import eliminate_cycles
from .workloads import Workload

MODES = ("native", "yannakakis", "yannakakis+")

_TABLES: dict[tuple, dict[str, DataFrame]] = {}


def tables_for(spark: SparkSession, benchmark: str, **params) -> dict[str, DataFrame]:
    """Load (and cache + materialise) the tables of one benchmark."""
    key = (benchmark, tuple(sorted(params.items())))
    if key not in _TABLES:
        from .workloads import job, lsqb, sgpb, tpch

        loader = {"sgpb": sgpb, "tpch": tpch, "job": job, "lsqb": lsqb}[benchmark]
        t = loader.load_tables(spark, **params)
        for df in t.values():
            df.cache().count()
        _TABLES[key] = t
    return _TABLES[key]


@dataclass
class Prepared:
    """A workload made acyclic: the CQ the Yannakakis planners run on, the
    table dict including the lazy GHD bags, and how the cycle was broken
    (``none`` / ``cycle-elim`` / ``ghd``)."""

    cq: object
    tables: dict[str, DataFrame]
    via: str


def prepare(wl: Workload, tables: dict[str, DataFrame]) -> Prepared:
    cq = wl.cq
    if is_acyclic(cq):
        return Prepared(cq, tables, "none")
    rewritten = eliminate_cycles(cq)
    if rewritten is not None:
        return Prepared(rewritten, tables, "cycle-elim")
    bags = [list(b) for b in wl.bags] if wl.bags else None
    acyclic_cq, bag_defs = decompose(cq, bags=bags)
    return Prepared(acyclic_cq, materialize_bags(bag_defs, tables), "ghd")


def build(
    wl: Workload,
    tables: dict[str, DataFrame],
    mode: str,
    *,
    rules: Rules = Rules(),
    ce_mode: str = ESTIMATED,
    prepared: Prepared | None = None,
) -> tuple[DataFrame, Choice | None]:
    """Build the (lazy) result DataFrame for one mode; returns the optimizer
    Choice for the rewritten modes (None for native)."""
    if mode == "native":
        return native_df(wl.cq, tables), None
    prep = prepared or prepare(wl, tables)
    algorithm = "yannakakis" if mode == "yannakakis" else "yannakakis+"
    if algorithm == "yannakakis":
        # classic baseline: same optimizer-chosen tree, vanilla algorithm
        choice = choose_plan(prep.cq, prep.tables, mode=ce_mode, algorithm="yannakakis")
    else:
        choice = choose_plan(prep.cq, prep.tables, mode=ce_mode, rules=rules)
    return execute(choice.plan, prep.tables), choice


def run_timed(df: DataFrame) -> float:
    """Execute to completion (noop sink — no driver collection) and return
    wall-clock seconds."""
    t0 = time.perf_counter()
    df.write.format("noop").mode("overwrite").save()
    return time.perf_counter() - t0


def time_mode(
    wl: Workload,
    tables: dict[str, DataFrame],
    mode: str,
    *,
    rules: Rules = Rules(),
    ce_mode: str = ESTIMATED,
    prepared: Prepared | None = None,
) -> dict:
    """Time one (query, mode) run, plus the optimizer's time."""
    df, choice = build(wl, tables, mode, rules=rules, ce_mode=ce_mode, prepared=prepared)
    return {
        "query": wl.name,
        "mode": mode,
        "seconds": run_timed(df),
        "opt_time": choice.opt_time if choice else 0.0,
        "tree_root": choice.tree.root if choice else None,
    }
