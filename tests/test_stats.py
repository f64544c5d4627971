"""Base statistics (§5.2): ``collect_stats`` computes a query's uncached
occurrences in one Spark aggregate, and must give exactly what one aggregate
per occurrence gives."""
import datetime as dt

import pytest
from pyspark.sql import functions as F

from repro import harness
from repro.core.cq import CQ, R
from repro.optimizer.cardinality import ESTIMATED, WORST_CASE
from repro.optimizer.enumerate import choose_plan
from repro.optimizer.stats import RelStats, clear_cache, collect_stats
from repro.workloads import all_queries

QUERIES = all_queries()

#: (id(table), predicate, cols, exact) -> (table, rows, NDV by column); the
#: table is held so that its id is not reused
_REF: dict[tuple, tuple] = {}


def reference_stats(tables, rel, *, exact: bool) -> RelStats:
    """One global aggregate per occurrence (memoised per table, predicate,
    columns and exactness): how statistics were collected before they were
    batched, kept here as the reference."""
    table = tables[rel.source]
    key = (id(table), rel.predicate, tuple(rel.cols), exact)
    if key not in _REF:
        df = table.filter(rel.predicate) if rel.predicate else table
        fn = F.count_distinct if exact else F.approx_count_distinct
        aggs = [F.count(F.lit(1)).alias("__n")] + [
            fn(F.col(c)).alias(f"__d_{i}") for i, c in enumerate(rel.cols)
        ]
        row = df.agg(*aggs).collect()[0]
        _REF[key] = (table, int(row["__n"]),
                     {c: int(row[f"__d_{i}"]) for i, c in enumerate(rel.cols)})
    _, rows, by_col = _REF[key]
    return RelStats(rows, {a: by_col[c] for a, c in zip(rel.attrs, rel.cols)})


@pytest.fixture
def cold():
    """An empty statistics cache before and after the test."""
    clear_cache()
    yield
    clear_cache()


def job_group(sc, name, fn):
    """Run ``fn`` under Spark job group ``name``; returns its result and the
    number of Spark jobs it started."""
    sc.setJobGroup(name, name)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(name))


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_batched_stats_equal_per_occurrence_aggregates(bench_tables, cold, name):
    """Every query, as written and as prepared (with its GHD bags or
    cycle-elimination rewrite), with approximate and exact NDVs: the batched
    statistics are bit-identical to one aggregate per occurrence."""
    wl = QUERIES[name]
    tables = bench_tables(wl.benchmark)
    prep = harness.prepare(wl, tables)
    for cq, tabs in ((wl.cq, tables), (prep.cq, prep.tables)):
        for exact in (False, True):
            clear_cache()
            got = collect_stats(tabs, cq, exact=exact)
            want = {r.name: reference_stats(tabs, r, exact=exact) for r in cq.relations}
            assert got == want, (cq.name, exact)


@pytest.fixture(scope="module")
def mixed(quiet_spark):
    """A hand-built relation with a bigint join column holding NULLs, a
    string and a timestamp column."""
    t0 = dt.datetime(2024, 1, 1)
    rows = [
        (1, "a", t0), (1, "b", t0), (2, "a", t0 + dt.timedelta(days=1)),
        (None, "c", t0), (None, None, None), (3, "c", t0 + dt.timedelta(hours=1)),
    ]
    df = quiet_spark.createDataFrame(rows, "k bigint, s string, ts timestamp")
    return {"t": df}


def test_edge_cases(mixed, cold):
    cq = CQ(
        (
            # all three types in one relation, NULLs in the join column
            R("A", "t", {"x": "k", "y": "s", "z": "ts"}),
            # a predicate that selects no rows
            R("B", "t", {"x": "k", "w": "s"}, predicate="k > 100"),
            # two attrs bound to the same column
            R("C", "t", {"x": "k", "v": "k"}, predicate="s = 'a'"),
            # D and E share one cache key (same source, predicate, columns)
            R("D", "t", {"x": "k", "y": "s"}),
            R("E", "t", {"u": "k", "y": "s"}),
            # no columns at all: only the rows are counted
            R("F", "t", {}),
        ),
        (),
        name="mixed",
    )
    for exact in (False, True):
        clear_cache()
        got = collect_stats(mixed, cq, exact=exact)
        assert got == {r.name: reference_stats(mixed, r, exact=exact) for r in cq.relations}
        # NULLs count as rows but not as distinct values
        assert got["A"] == RelStats(6, {"x": 3, "y": 3, "z": 3})
        assert got["B"] == RelStats(0, {"x": 0, "w": 0})
        assert got["C"] == RelStats(2, {"x": 2, "v": 2})
        assert got["D"] == RelStats(6, {"x": 3, "y": 3})
        assert got["E"] == RelStats(6, {"u": 3, "y": 3})
        assert got["F"] == RelStats(6, {})


def test_cold_stats_take_a_bounded_number_of_jobs(quiet_spark, bench_tables, cold):
    """A cold ``collect_stats`` on job-27c's nine relations starts at most
    two Spark jobs (the aggregate's shuffle stage and its collect); a warm
    one starts none."""
    wl = QUERIES["job-27c"]
    assert len(wl.cq.relations) >= 9
    tables = bench_tables(wl.benchmark)
    sc = quiet_spark.sparkContext
    first, n_cold = job_group(sc, "test-stats-cold", lambda: collect_stats(tables, wl.cq))
    again, n_warm = job_group(sc, "test-stats-warm", lambda: collect_stats(tables, wl.cq))
    assert n_cold <= 2
    assert n_warm == 0
    assert again == first


@pytest.mark.parametrize("mode", [ESTIMATED, WORST_CASE])
def test_choose_plan_fetches_stats_in_one_batch(quiet_spark, bench_tables, cold, mode):
    """Planning job-27c on a cold cache collects its statistics in one
    batch, under ``worst-case`` including the unfiltered ones of its
    filtered relations."""
    wl = QUERIES["job-27c"]
    assert any(r.predicate for r in wl.cq.relations)
    tables = bench_tables(wl.benchmark)
    _, n = job_group(quiet_spark.sparkContext, f"test-stats-plan-{mode}",
                     lambda: choose_plan(wl.cq, tables, mode=mode))
    assert n <= 2
