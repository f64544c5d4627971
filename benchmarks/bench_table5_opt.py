"""Paper Table 5: optimization time of the Yannakakis+ planner for the 12
representative queries (statistics pre-warmed, as the paper's system reads
them from the DBMS catalog), plus Spark's own planning time."""
import pytest

from repro import harness, tables
from repro.core.executor import native_df
from repro.optimizer.enumerate import choose_plan
from repro.optimizer.stats import collect_stats
from repro.workloads import all_queries

QS = all_queries()


@pytest.mark.parametrize("name", list(tables.TABLE5_QUERIES))
def test_opt_time(benchmark, btables, bprepared, name):
    wl = QS[name]
    prep = bprepared(name)
    collect_stats(prep.tables, prep.cq)  # warm the statistics cache
    benchmark.group = "table5:opt-time"
    benchmark.pedantic(
        lambda: choose_plan(prep.cq, prep.tables), rounds=3, iterations=1
    )


@pytest.mark.parametrize("name", list(tables.TABLE5_QUERIES))
def test_spark_plan_time(benchmark, btables, name):
    wl = QS[name]
    t = btables(wl.benchmark)
    benchmark.group = "table5:spark-plan-time"
    benchmark.pedantic(
        lambda: tables.spark_plan_time(native_df(wl.cq, t)), rounds=3, iterations=1
    )
