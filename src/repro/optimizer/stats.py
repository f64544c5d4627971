"""Base-table statistics for the cost-based optimizer (§5.2).

``collect_stats`` gathers, per relation occurrence (post-predicate): the row
count and per-attribute number of distinct values. The ``accurate`` scenario
uses exact distinct counts; ``estimated`` uses Spark's HyperLogLog
``approx_count_distinct`` — mirroring the paper's "exact sizes" vs
"estimates based on available statistics (cardinalities and NDV)" split.
Statistics are memoised per (source, predicate) so self-joins and repeated
optimizer calls don't rescan.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.cq import CQ, Relation


@dataclass(frozen=True)
class RelStats:
    """Statistics for one relation occurrence (after predicate pushdown)."""

    rows: int
    ndv: dict  # attr -> distinct count

    def ndv_of(self, attrs) -> int:
        """NDV of an attribute combination under independence, capped by the
        row count (the standard combined-NDV estimate)."""
        n = 1
        for a in attrs:
            n *= max(1, self.ndv.get(a, self.rows))
        return min(self.rows, n) if attrs else 1


_CACHE: dict[tuple, RelStats] = {}


def rel_stats(tables: dict[str, DataFrame], rel: Relation, *, exact: bool) -> RelStats:
    key = (rel.source, rel.predicate, tuple(rel.cols), exact)
    if key in _CACHE:
        st = _CACHE[key]
        return RelStats(st.rows, {a: st.ndv[c] for a, c in zip(rel.attrs, rel.cols)})
    df = tables[rel.source]
    if rel.predicate:
        df = df.filter(rel.predicate)
    fn = F.count_distinct if exact else F.approx_count_distinct
    aggs = [F.count(F.lit(1)).alias("__n")] + [
        fn(F.col(c)).alias(f"__d_{i}") for i, c in enumerate(rel.cols)
    ]
    row = df.agg(*aggs).collect()[0]
    by_col = {c: int(row[f"__d_{i}"]) for i, c in enumerate(rel.cols)}
    _CACHE[key] = RelStats(int(row["__n"]), dict(by_col))
    return RelStats(int(row["__n"]), {a: by_col[c] for a, c in zip(rel.attrs, rel.cols)})


def collect_stats(
    tables: dict[str, DataFrame], cq: CQ, *, exact: bool = False
) -> dict[str, RelStats]:
    """Per-relation-occurrence statistics for one query."""
    return {r.name: rel_stats(tables, r, exact=exact) for r in cq.relations}


def clear_cache() -> None:
    _CACHE.clear()
