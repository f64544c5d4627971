"""Shared Spark fixtures for the test suite.

Scales are tiny (SF≈0.01): correctness is what's under test here;
``jobs/run_all_tables.py`` measures the paper's tables at SF≈0.1
(``repro.tables.BENCH_SCALE``). Tables and their pandas
copies (for the DuckDB oracle) are cached per session.
"""
import os

# must be set before the root conftest's fixture builds the session; tiny
# test inputs would drown in 64-partition shuffles
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

import pytest

SCALES = {
    "sgpb": dict(scale=0.01),
    "tpch": dict(sf=0.002),
    "job": dict(sf=0.02, dup=2),
    "lsqb": dict(sf=0.01),
}


@pytest.fixture(scope="session")
def quiet_spark(spark):
    spark.sparkContext.setLogLevel("ERROR")
    return spark


@pytest.fixture(scope="session")
def bench_tables(quiet_spark):
    """benchmark name -> cached Spark table dict at test scale."""
    from repro import harness

    def get(benchmark):
        return harness.tables_for(quiet_spark, benchmark, **SCALES[benchmark])

    return get


@pytest.fixture(scope="session")
def pandas_sources(bench_tables):
    """(benchmark, source) -> pandas DataFrame for the DuckDB oracle."""
    cache = {}

    def get(benchmark, source):
        key = (benchmark, source)
        if key not in cache:
            cache[key] = bench_tables(benchmark)[source].toPandas()
        return cache[key]

    return get


@pytest.fixture(scope="session")
def prepared_cache(bench_tables):
    """Workload name -> harness.Prepared, built once (GHD bags stay lazy,
    so every execution evaluates them)."""
    from repro import harness
    from repro.workloads import all_queries

    cache = {}
    qs = all_queries()

    def get(name):
        if name not in cache:
            wl = qs[name]
            cache[name] = harness.prepare(wl, bench_tables(wl.benchmark))
        return cache[name]

    return get
