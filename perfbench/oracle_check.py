"""Result check against DuckDB running the query's canonical SQL
(``cq.to_sql()``) on the same seeded data, as ``repro.oracle`` does.

Small results are compared row for row with ``repro.oracle``. Large ones
(graph enumerations reach millions of rows) are compared by an
order-independent fingerprint computed identically on both sides: the row
count and, per column, the sum and the sum of squares (numbers) or the
summed length of the text form (anything else).
"""
from __future__ import annotations

import math

import duckdb
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import NumericType

from repro.oracle import assert_equivalent

#: results up to this many rows are compared row for row
FULL_COMPARE_ROWS = 20_000


class Oracle:
    """DuckDB over pandas copies of one workload's tables."""

    def __init__(self, tables: dict[str, DataFrame]):
        self.pdfs = {s: t.toPandas() for s, t in tables.items()}
        self.con = duckdb.connect()
        for s, pdf in self.pdfs.items():
            self.con.register(s, pdf)
        self._expected: dict[str, tuple] = {}

    def close(self) -> None:
        self.con.close()

    def _fingerprint_sql(self, sql: str, df: DataFrame) -> str:
        exprs = ["count(*)"]
        for f in df.schema.fields:
            c = f'"{f.name}"'
            if isinstance(f.dataType, NumericType):
                exprs += [f"sum(CAST({c} AS DOUBLE))",
                          f"sum(CAST({c} AS DOUBLE) * CAST({c} AS DOUBLE))"]
            else:
                exprs.append(f"sum(length(CAST({c} AS VARCHAR)))")
        return f"SELECT {', '.join(exprs)} FROM ({sql}) q"

    @staticmethod
    def _spark_fingerprint(df: DataFrame) -> tuple:
        aggs = [F.count(F.lit(1))]
        for f in df.schema.fields:
            c = F.col(f"`{f.name}`")
            if isinstance(f.dataType, NumericType):
                d = c.cast("double")
                aggs += [F.sum(d), F.sum(d * d)]
            else:
                aggs.append(F.sum(F.length(c.cast("string"))))
        return tuple(df.agg(*aggs).collect()[0])

    def check(self, name: str, sql: str, df: DataFrame) -> int:
        """Raise AssertionError unless ``df`` holds the rows of ``sql``;
        return the row count."""
        if name not in self._expected:
            self._expected[name] = tuple(
                self.con.execute(self._fingerprint_sql(sql, df)).fetchone()
            )
        want = self._expected[name]
        if want[0] <= FULL_COMPARE_ROWS:
            assert_equivalent(df, sql, **self.pdfs)
            return int(want[0])
        got = self._spark_fingerprint(df)
        if got[0] != want[0]:
            raise AssertionError(f"{name}: {got[0]} rows, DuckDB has {want[0]}")
        for g, w in zip(got[1:], want[1:]):
            same = (g is None and w is None) or (
                g is not None and w is not None
                and math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-6))
            if not same:
                raise AssertionError(f"{name}: fingerprint {got} != DuckDB {want}")
        return int(want[0])
