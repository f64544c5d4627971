"""Regenerate the paper's evaluation (§7: Tables 2–6 and the §7.2.1 speedup
summary) at benchmark scale in one Spark session: time every table with
``repro.tables``, dump the measured rows to ``results/tables.json`` and
render EXPERIMENTS.md from them.

    python jobs/run_all_tables.py
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
import conftest  # noqa: E402,F401  (sets PYSPARK_SUBMIT_ARGS before pyspark loads)

from pyspark.sql import SparkSession  # noqa: E402

from repro import tables  # noqa: E402
from repro.workloads import all_queries  # noqa: E402


def main():
    spark = (
        SparkSession.builder.appName("run-all-tables")
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    results = {}

    print("== table6 ==", flush=True)
    results["table6"] = tables.table6()

    print("== table2 (JOB pool, 3 modes) ==", flush=True)
    t2 = tables.table2(spark)
    results["table2"] = t2["rows"]
    results["table2_per_query"] = t2["per_query"]

    print("== table3 (rule ablation) ==", flush=True)
    results["table3"] = tables.table3(spark)

    print("== table4 (CE scenarios) ==", flush=True)
    results["table4"] = tables.table4(spark)

    print("== table5 (opt time) ==", flush=True)
    results["table5"] = tables.table5(spark)

    print("== speedup summary (sgpb/lsqb/tpch) ==", flush=True)
    pool = [q for q in sorted(all_queries()) if q.split("-")[0] in ("sgpb", "lsqb", "tpch")]
    results["speedups"] = tables.speedup_summary(spark, queries=pool)
    spark.stop()

    json_path = os.path.join(ROOT, "results", "tables.json")
    os.makedirs(os.path.dirname(json_path), exist_ok=True)
    with open(json_path, "w") as f:
        json.dump(results, f, indent=1, default=str)
    md_path = os.path.join(ROOT, "EXPERIMENTS.md")
    with open(md_path, "w", encoding="utf-8") as f:
        f.write(tables.experiments_md(results))
    print("wrote", json_path, "and", md_path, flush=True)


if __name__ == "__main__":
    main()
