"""Harness plumbing and table builders (small-scale smoke versions of what
``jobs/run_all_tables.py`` runs — the real numbers come from benchmark
scale)."""
import pytest

from repro import harness, tables
from repro.workloads import all_queries

QUERIES = all_queries()


def test_tables_for_caches(quiet_spark, bench_tables):
    t1 = bench_tables("tpch")
    t2 = bench_tables("tpch")
    assert t1 is t2


def test_prepare_acyclic_identity(bench_tables):
    wl = QUERIES["tpch-q3"]
    prep = harness.prepare(wl, bench_tables("tpch"))
    assert prep.via == "none" and prep.cq is wl.cq


def test_prepare_cycle_elim(bench_tables):
    prep = harness.prepare(QUERIES["tpch-q5"], bench_tables("tpch"))
    assert prep.via == "cycle-elim"
    assert prep.cq.eq_filters


def test_prepare_ghd_registers_bags(quiet_spark, bench_tables):
    """Bags are lazy subqueries of the outer plan: preparing a GHD query
    starts no Spark job and caches nothing."""
    tables = bench_tables("sgpb")
    sc = quiet_spark.sparkContext
    group = "test-prepare-ghd"
    sc.setJobGroup(group, group)
    try:
        prep = harness.prepare(QUERIES["sgpb-q2b"], tables)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert prep.via == "ghd"
    assert sc.statusTracker().getJobIdsForGroup(group) == []
    bags = [t for s, t in prep.tables.items() if s.startswith("__bag")]
    assert len(bags) == 2
    assert not any(t.is_cached for t in bags)


def test_time_mode_reports_fields(quiet_spark, bench_tables):
    wl = QUERIES["tpch-q19"]
    r = harness.time_mode(wl, bench_tables("tpch"), "yannakakis+")
    assert r["seconds"] > 0 and r["opt_time"] >= 0 and r["tree_root"]


def test_native_mode_has_no_choice(quiet_spark, bench_tables):
    wl = QUERIES["tpch-q19"]
    df, choice = harness.build(wl, bench_tables("tpch"), "native")
    assert choice is None
    assert df.count() >= 0


# ----------------------------------------------------------- table6 vs paper
def test_table6_matches_paper_classification():
    rows = {r["query"].removeprefix("sgpb-"): r for r in tables.table6()}
    for q, (shape, qtype, preds, fc) in tables.PAPER_TABLE6.items():
        got = rows[q]
        assert got["shape"] == shape
        assert got["predicates"] == preds
        assert got["free_connex"] == fc, q
        assert got["type"].replace("-", " ").lower() == qtype.lower()


def test_table6_dumbbell_classified_after_ghd():
    rows = {r["query"]: r for r in tables.table6()}
    assert "GHD" in rows["sgpb-q2a"]["class"]
    assert rows["sgpb-q2a"]["free_connex"]


# ------------------------------------------------- table builders (smoke)
def test_table2_stats_over_per_query(quiet_spark, monkeypatch):
    monkeypatch.setattr(tables, "BENCH_SCALE", _tiny())
    out = tables.table2(quiet_spark, queries=("job-1a",))
    assert set(out) == {"rows", "per_query", "queries"}
    assert out["queries"] == ["job-1a"]
    secs = out["per_query"]["job-1a"]
    assert set(secs) == set(harness.MODES)
    assert all(v > 0 for v in secs.values())
    assert [r["mode"] for r in out["rows"]] == list(harness.MODES)
    for r in out["rows"]:
        assert set(r) == {"mode", "max", "mean", "median", "std"}
        s = secs[r["mode"]]
        assert r["max"] == r["mean"] == r["median"] == s and r["std"] == 0


def test_speedup_summary_row(quiet_spark, monkeypatch):
    monkeypatch.setattr(tables, "BENCH_SCALE", _tiny())
    (row,) = tables.speedup_summary(quiet_spark, queries=("tpch-q19",))
    assert set(row) == {"query", "benchmark", *harness.MODES,
                        "speedup_vs_native", "speedup_vs_yannakakis"}
    assert row["query"] == "tpch-q19" and row["benchmark"] == "tpch"
    assert all(row[m] > 0 for m in harness.MODES)
    assert row["speedup_vs_native"] == pytest.approx(row["native"] / row["yannakakis+"])
    assert row["speedup_vs_yannakakis"] == pytest.approx(
        row["yannakakis"] / row["yannakakis+"]
    )


def test_table3_variants_complete(quiet_spark, monkeypatch):
    monkeypatch.setattr(tables, "BENCH_SCALE", _tiny())
    rows = tables.table3(quiet_spark, queries=("job-1a",))
    (row,) = rows
    assert set(row) == {"query", "base", "primitive", "pkfk", "annot", "both"}
    assert all(v > 0 for k, v in row.items() if k != "query")


def test_table4_scenarios_complete(quiet_spark, monkeypatch):
    monkeypatch.setattr(tables, "BENCH_SCALE", _tiny())
    rows = tables.table4(quiet_spark, queries=("job-2b",))
    (row,) = rows
    assert set(row) == {"query", "native", "accurate", "estimated", "worst"}


def test_table5_fields(quiet_spark, monkeypatch):
    monkeypatch.setattr(tables, "BENCH_SCALE", _tiny())
    rows = tables.table5(quiet_spark, queries=("tpch-q19",))
    (row,) = rows
    assert row["n_tables"] == 2 and row["n_attrs"] == 1
    assert row["opt_time"] > 0 and row["spark_plan_time"] > 0


def test_render_formats():
    out = tables.render([{"a": 1.23456, "b": "x"}])
    assert "1.235" in out and "b" in out


def _tiny():
    # mirror tests/conftest.SCALES so the session-cached tables are reused
    return {
        "sgpb": dict(scale=0.01),
        "tpch": dict(sf=0.002),
        "job": dict(sf=0.02, dup=2),
        "lsqb": dict(sf=0.01),
    }
