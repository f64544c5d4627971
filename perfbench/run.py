"""Benchmark: Yannakakis+ against Spark's own plan, timed from CQ to result.

    python3 perfbench/run.py --workload job --seed 0 --seconds 10 --trace 0

Workloads (``specs.WORKLOADS``): ``job``, ``graph-agg``, ``graph-enum`` and
``cyclic``; BENCHMARK.json lists ``job`` and ``cyclic``, the two whose runs
cover every layer within the benchmark's time budget. One run is a closed
loop: one client, one query at a time, on Spark ``local[N]`` with N the
usable cores, 32 shuffle partitions and broadcast joins disabled.

1. Set-up, repeated ``measure.SETUP_REPEATS`` times on the same seed:
   generate the workload's tables, cache and count them, clear the
   statistics cache and collect cold statistics for every relation of every
   query. ``setup_s`` is the median.
2. Untimed warm-up: one pass over every (query, mode) with each result
   checked against DuckDB (``oracle_check``) instead of going to the noop
   sink, then ``measure.WARM_PASSES`` passes to the noop sink.
3. Timed passes until ``--seconds`` have gone by (at least
   ``measure.MIN_PASSES``). Within a pass the two modes alternate per
   query, and which mode goes first flips from pass to pass. Each execution
   builds everything afresh (``layers``). ``yplus_s`` and ``native_s`` are
   one pass in each mode at every query's median time over the passes;
   ``speedup_vs_native`` is the geometric mean over queries of their
   median native ÷ Yannakakis+ time.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; there, traced and untraced passes alternate, and the difference of
their Yannakakis+ pass times is ``trace.overhead_s``. The last stdout line is
one JSON object; a record with the machine, versions, Spark conf and (traced)
every span goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"  # Spark and JVM scratch space
OUT = HERE / "out"

SHUFFLE_PARTITIONS = 32


def cores() -> int:
    return len(os.sched_getaffinity(0))


def mem_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def driver_mem() -> str:
    """Half the machine's memory, clamped to 2-8 GiB, as the tier-1 test
    command sets it."""
    return f"{min(8, max(2, mem_bytes() // (2 << 30)))}g"


def pin_spark_env() -> None:
    """Fix master, driver heap and scratch directories before pyspark
    loads; everything Spark and the JVM write goes under ``WORK``."""
    tmp, local = WORK / "tmp", WORK / "local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_DRIVER_MEM"] = driver_mem()
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's own JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores()}]",
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])


def session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF from its parent
        proc.wait(timeout=60)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(spark) -> dict:
    import pyspark

    sc = spark.sparkContext
    conf = dict(sc.getConf().getAll())
    for k in ("spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold",
              "spark.sql.adaptive.enabled", "spark.sql.execution.arrow.pyspark.enabled"):
        conf[k] = spark.conf.get(k)
    return {
        "cores": cores(),
        "memory_bytes": mem_bytes(),
        "driver_memory": os.environ["SPARK_DRIVER_MEM"],
        "master": sc.master,
        "pyspark": pyspark.__version__,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "conf": dict(sorted(conf.items())),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    pin_spark_env()
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import specs

    if args.workload not in specs.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(specs.WORKLOADS)}")
    spark = session()
    t_session = time.perf_counter()
    try:
        env = environment(spark)
        run = measure.Run(spark, args.workload, args.seed, bool(args.trace))
        metrics, record = measure.measure(run, args.seconds)
    finally:
        t_stop = time.perf_counter()
        stop(spark)
    record["phases"]["session_s"] = t_session - t_start
    record["phases"]["stop_s"] = time.perf_counter() - t_stop

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": env, "metrics": metrics, **record}, indent=1))
    for k, (v, unit) in metrics.items():
        print(f"{k:>24} {v:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
