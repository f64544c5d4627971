"""One (query, mode) execution from CQ to result, timed layer by layer.

``yannakakis+``: ``harness.prepare`` (GHD bags / cycle elimination) →
``choose_plan`` → ``executor.execute`` → Spark planning → execution to a
noop sink. ``native``: ``executor.native_df`` → Spark. Every call builds
everything afresh, as ``harness.time_mode`` does, except that bag
materialisation is inside the timed interval here.

Untraced, only the whole execution is timed. Traced, each layer gets a span,
Spark's physical planning is forced on its own
(``queryExecution().executedPlan()``) before the job runs, and the job's
Spark counters are read from the status store; the extra planning is part of
what ``trace.overhead_s`` measures. ``exec`` is the wall time of the noop
write, which re-plans the query once more inside the job (a few ms).
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro import harness
from repro.core.executor import execute, native_df
from repro.core.plan import Join, Project, SemiJoin
from repro.optimizer.enumerate import choose_plan
from repro.workloads import Workload

YPLUS, NATIVE = "yannakakis+", "native"
MODES = (YPLUS, NATIVE)
#: metric prefix of each mode
TAG = {YPLUS: "yplus", NATIVE: "native"}


@dataclass
class Spans:
    """Spans of one run, kept in memory and written out when it ends. A
    span's ``req`` names the (pass, query, mode) execution it belongs to,
    and ``parent`` the span that caused it."""

    items: list[dict] = field(default_factory=list)

    def add(self, name: str, req: str, start: float, end: float, parent: str | None):
        self.items.append(
            {"name": name, "req": req, "parent": parent, "start": start, "end": end}
        )


def spark_counters(spark: SparkSession, group: str) -> dict[str, float]:
    """Stage counters of every job in a job group. Stages a job lists but
    never ran (SKIPPED, as AQE's reused exchanges are) are not counted."""
    sc = spark.sparkContext
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    store = jsc.statusStore()
    tracker = sc.statusTracker()
    job_ids = tracker.getJobIdsForGroup(group)
    stage_ids = set()
    for jid in job_ids:
        info = tracker.getJobInfo(jid)
        if info is not None:
            stage_ids.update(info.stageIds)
    c = dict.fromkeys(("stages", "tasks", "failed_tasks", "task_s", "shuffle_bytes"), 0.0)
    c["jobs"] = float(len(job_ids))
    for sid in sorted(stage_ids):
        st = store.lastStageAttempt(sid)
        if st.status().toString() == "SKIPPED":
            continue
        c["stages"] += 1
        c["tasks"] += st.numTasks()
        c["failed_tasks"] += st.numFailedTasks()
        c["task_s"] += st.executorRunTime() / 1000.0
        c["shuffle_bytes"] += st.shuffleWriteBytes()
    return c


def plan_counts(choice) -> dict[str, float]:
    plan = choice.plan
    return {
        "candidates": float(choice.n_candidates),
        "semijoins": float(len(plan.of_type(SemiJoin))),
        "joins": float(len(plan.of_type(Join))),
        "projections": float(len(plan.of_type(Project))),
    }


@dataclass
class Execution:
    seconds: float  # CQ to result, wall clock
    #: traced only: layer -> seconds, and per-layer counts
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


def run(
    spark: SparkSession,
    wl: Workload,
    tables: dict[str, DataFrame],
    mode: str,
    *,
    spans: Spans | None = None,
    req: str = "",
    check: Callable[[DataFrame], None] | None = None,
) -> Execution:
    """Run one (query, mode) to a noop sink. With ``spans`` the execution is
    traced under request id ``req``. With ``check`` the result goes to
    ``check(df)`` instead of the noop sink."""
    sc = spark.sparkContext
    traced = spans is not None
    tag = TAG[mode]
    marks = [("start", time.perf_counter())]

    def mark(layer: str) -> None:
        marks.append((layer, time.perf_counter()))

    prep = choice = None
    if traced:
        sc.setJobGroup(f"{req}/prepare", req)
    try:
        if mode == NATIVE:
            df = native_df(wl.cq, tables)
            mark("native.lower")
        else:
            prep = harness.prepare(wl, tables)
            mark("prepare")
            choice = choose_plan(prep.cq, prep.tables)
            mark("plan")
            df = execute(choice.plan, prep.tables)
            mark("lower")
        if traced:
            df._jdf.queryExecution().executedPlan()
            mark(f"{tag}.spark_plan")
            sc.setJobGroup(f"{req}/exec", req)
        if check is None:
            df.write.format("noop").mode("overwrite").save()
        else:
            check(df)
        mark(f"{tag}.exec")
        ex = Execution(marks[-1][1] - marks[0][1])
        if traced:
            sc.setJobGroup(f"{req}/untimed", req)
            total = f"{tag}.total"
            spans.add(total, req, marks[0][1], marks[-1][1], None)
            for (_, t0), (layer, t1) in zip(marks, marks[1:]):
                ex.layers[layer] = t1 - t0
                spans.add(layer, req, t0, t1, total)
            for k, v in spark_counters(spark, f"{req}/exec").items():
                ex.counts[f"{tag}.exec.{k}"] = v
            if choice is not None:
                for k, v in plan_counts(choice).items():
                    ex.counts[f"plan.{k}"] = v
                ex.counts["prepare.bag_rows"] = float(
                    sum(t.count() for s, t in prep.tables.items() if s not in tables))
        return ex
    finally:
        # cached GHD bags must not pile up in storage memory across repeats
        if prep is not None:
            for s, t in prep.tables.items():
                if s not in tables:
                    t.unpersist(blocking=True)
