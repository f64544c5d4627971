"""One benchmark run of a workload: set-up, warm-up and check, timed passes,
and the metrics computed from them (see ``run.py`` for the protocol)."""
from __future__ import annotations

import math
import statistics
import sys
import time
import traceback

import layers
import specs
from layers import MODES, NATIVE, YPLUS, Spans, spark_counters
from oracle_check import Oracle
from repro.optimizer import stats

#: set-ups per run; ``setup_s`` is their median, so the first, cold one
#: does not decide it alone
SETUP_REPEATS = 3
#: untimed passes to the noop sink after the checked one (whose results go
#: to DuckDB, not to the sink); a count, not a time, so that timing starts
#: at the same point of the JIT's warm-up however fast the host is
WARM_PASSES = 1
#: timed passes made however short ``--seconds`` is (a traced run makes
#: them in traced/untraced pairs)
MIN_PASSES = 3
#: layers whose per-pass time is the sum over the workload's queries
PASS_LAYERS = (
    "prepare", "plan", "lower", "yplus.spark_plan", "native.spark_plan",
    "yplus.exec", "native.exec",
)
EXEC_COUNTERS = {"stages": "count", "tasks": "count", "shuffle_bytes": "bytes",
                 "task_s": "s", "failed_tasks": "count"}


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Run:
    """State of one benchmark run: the workload, its tables, and the
    outcome of every execution attempted."""

    def __init__(self, spark, workload: str, seed: int, traced: bool):
        self.spark, self.seed, self.traced = spark, seed, traced
        self.wls = specs.queries(workload)
        self.sources = specs.sources_by_benchmark(self.wls)
        self.tables: dict[str, dict] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.setups: list[dict] = []
        self.rows: dict[tuple[str, str], int] = {}

    def setup_once(self, rep: int) -> None:
        """Generate, cache and count the tables, then collect cold
        statistics for every relation of every query."""
        for t in self.tables.values():
            for df in t.values():
                df.unpersist(blocking=True)
        sc = self.spark.sparkContext
        t0 = time.perf_counter()
        tables = {}
        for bench, srcs in sorted(self.sources.items()):
            t = specs.generate(self.spark, bench, srcs, self.seed)
            for df in t.values():
                df.cache().count()
            tables[bench] = t
        t1 = time.perf_counter()
        # the cache is keyed by source name only: clear it so no statistics
        # of an earlier set-up survive
        stats.clear_cache()
        group = f"setup{rep}/stats"
        if self.traced:
            sc.setJobGroup(group, group)
        for wl in self.wls:
            stats.collect_stats(tables[wl.benchmark], wl.cq)
        t2 = time.perf_counter()
        rec = {"datagen_s": t1 - t0, "stats_s": t2 - t1, "setup_s": t2 - t0}
        if self.traced:
            sc.setJobGroup(f"setup{rep}/untimed", "untimed")
            rec["stats_jobs"] = spark_counters(self.spark, group)["jobs"]
        self.tables = tables
        self.setups.append(rec)

    def execute(self, wl, mode, **kw):
        """One (query, mode) execution; a failure is counted and logged,
        and returns None."""
        self.attempted += 1
        try:
            return layers.run(self.spark, wl, self.tables[wl.benchmark], mode, **kw)
        except Exception:  # noqa: BLE001 - the run goes on and reports it
            self.failed += 1
            self.errors.append(f"{wl.name}/{mode}: {traceback.format_exc()}")
            print(self.errors[-1], file=sys.stderr)
            return None

    def check_pass(self) -> None:
        """Every (query, mode) once, its result compared with DuckDB; a
        mismatch counts as a failed execution."""
        oracles = {b: Oracle(t) for b, t in self.tables.items()}
        try:
            for wl in self.wls:
                for mode in MODES:
                    def check(df, wl=wl, mode=mode):
                        oracle = oracles[wl.benchmark]
                        self.rows[wl.name, mode] = oracle.check(wl.name, wl.cq.to_sql(), df)
                    self.execute(wl, mode, check=check)
        finally:
            for o in oracles.values():
                o.close()

    def one_pass(self, p: int, order, spans=None) -> dict:
        """Every query in both modes; returns (query, mode) -> Execution."""
        out = {}
        for wl in self.wls:
            for mode in order:
                ex = self.execute(wl, mode, spans=spans, req=f"pass{p}/{wl.name}/{mode}")
                if ex is not None:
                    out[wl.name, mode] = ex
        return out


def query_medians(run: Run, passes: list[dict], mode: str) -> list[float]:
    """Each query's median time in ``mode`` over the passes."""
    return [
        median([p[wl.name, mode].seconds for p in passes if (wl.name, mode) in p])
        for wl in run.wls
    ]


def pass_time(run: Run, passes: list[dict], mode: str) -> float:
    """One pass over the workload in ``mode`` at each query's median time."""
    return sum(query_medians(run, passes, mode))


def end_to_end(run: Run, passes: list[dict]) -> dict:
    ratios = [
        n / y for y, n in zip(query_medians(run, passes, YPLUS),
                              query_medians(run, passes, NATIVE))
        if not (math.isnan(y) or math.isnan(n))
    ]
    return {
        "yplus_s": (pass_time(run, passes, YPLUS), "s"),
        "native_s": (pass_time(run, passes, NATIVE), "s"),
        "speedup_vs_native": (
            math.exp(statistics.fmean(map(math.log, ratios))) if ratios else float("nan"),
            "x"),
        "setup_s": (median([s["setup_s"] for s in run.setups]), "s"),
        "ok_frac": (1.0 - run.failed / max(1, run.attempted), "fraction"),
    }


def per_layer(run: Run, traced: list[dict], untraced: list[dict]) -> dict:
    m = {
        "datagen.s": (median([s["datagen_s"] for s in run.setups]), "s"),
        "stats.s": (median([s["stats_s"] for s in run.setups]), "s"),
        "stats.jobs": (run.setups[-1]["stats_jobs"], "count"),
    }
    for layer in PASS_LAYERS:
        m[f"{layer}.s"] = (
            median([sum(e.layers.get(layer, 0.0) for e in p.values()) for p in traced]),
            "s")

    def count(name):
        return median([sum(e.counts.get(name, 0.0) for e in p.values()) for p in traced])

    m["prepare.bag_rows"] = (count("prepare.bag_rows"), "count")
    for k in ("candidates", "semijoins", "joins", "projections"):
        m[f"plan.{k}"] = (count(f"plan.{k}"), "count")
    for tag in ("yplus", "native"):
        for k, unit in EXEC_COUNTERS.items():
            m[f"{tag}.exec.{k}"] = (count(f"{tag}.exec.{k}"), unit)
    m["exec.result_rows"] = (
        float(sum(n for (_, mode), n in run.rows.items() if mode == YPLUS)), "count")
    m["trace.overhead_s"] = (
        pass_time(run, traced, YPLUS) - pass_time(run, untraced, YPLUS), "s")
    return m


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Set up, warm up and check, then time passes for ``seconds``; returns
    the metrics and a record of the run."""
    phases = {}
    t0 = time.perf_counter()
    for rep in range(SETUP_REPEATS):
        run.setup_once(rep)
    t1 = time.perf_counter()
    run.check_pass()
    t2 = time.perf_counter()
    for w in range(WARM_PASSES):
        run.one_pass(-1 - w, MODES[::-1] if w % 2 == 0 else MODES)
    start = time.perf_counter()
    phases.update(setup_s=t1 - t0, check_s=t2 - t1, warm_up_s=start - t2)
    spans = Spans() if run.traced else None
    traced, untraced = [], []
    p = 0
    while (len(traced) + len(untraced) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        order = MODES if p % 2 == 0 else MODES[::-1]
        # traced passes alternate with untraced ones, going first every
        # other time, so that neither kind is always the warmer one
        if run.traced and p % 2:
            traced.append(run.one_pass(p, order, spans))
        untraced.append(run.one_pass(p, order))
        if run.traced and not p % 2:
            traced.append(run.one_pass(p, order, spans))
        p += 1
    phases["timed_s"] = time.perf_counter() - start
    metrics = (per_layer(run, traced, untraced) if run.traced
               else end_to_end(run, untraced))
    record = {
        "passes": p,
        "phases": phases,
        "setups": run.setups,
        "per_query": {
            f"{q}/{mode}": [x[q, mode].seconds for x in untraced if (q, mode) in x]
            for q in (wl.name for wl in run.wls) for mode in MODES
        },
        "result_rows": {f"{q}/{m}": n for (q, m), n in run.rows.items()},
        "errors": run.errors,
        "spans": spans.items if spans else [],
    }
    return metrics, record
