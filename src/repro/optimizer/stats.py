"""Base-table statistics for the cost-based optimizer (§5.2).

``collect_stats`` gathers, per relation occurrence (post-predicate): the row
count and per-attribute number of distinct values. The ``accurate`` scenario
uses exact distinct counts; ``estimated`` uses Spark's HyperLogLog
``approx_count_distinct`` — mirroring the paper's "exact sizes" vs
"estimates based on available statistics (cardinalities and NDV)" split.

Statistics are memoised per (source, predicate, columns, exactness), so
self-joins and repeated optimizer calls don't rescan. The occurrences of a
query that miss the cache are collected together: one Spark aggregate and
one ``collect()``, however many relations the query has. The paper's system
reads statistics from the DBMS catalog; ``choose_plan`` likewise fetches
them before its clock starts.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

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


#: (source, predicate, cols, exact) -> RelStats whose ``ndv`` is keyed by
#: source column, not by query variable
_CACHE: dict[tuple, RelStats] = {}


def _aggregate(
    tables: dict[str, DataFrame], rels: list[Relation], *, exact: bool
) -> list[RelStats]:
    """Statistics of each occurrence (``ndv`` by column) from one aggregate.

    Every occurrence's rows are unpivoted to ``(o, c, v…)`` rows, one per
    column, and grouped by (occurrence, column-index): ``count(1)`` is the
    occurrence's row count, a distinct count over ``v`` its column's NDV.
    There is one value column per column data type, so values are counted
    (and hashed by HyperLogLog) with their own type, exactly as a
    per-occurrence aggregate would; the other value columns of a row are
    NULL, which distinct counts ignore. An occurrence without rows yields no
    group: 0 rows, NDV 0."""
    dfs = [tables[r.source].filter(r.predicate) if r.predicate else tables[r.source]
           for r in rels]
    kinds = [[df.schema[c].dataType.simpleString() for c in r.cols] for r, df in zip(rels, dfs)]
    slot = {t: i for i, t in enumerate(dict.fromkeys(t for ts in kinds for t in ts))}

    def entry(c: int, col: str | None = None, kind: str | None = None) -> str:
        vals = ("`" + col.replace("`", "``") + "`" if t == kind else f"CAST(NULL AS {t})"
                for t in slot)
        return f"struct({c} AS c" + "".join(f", {v} AS v{i}" for i, v in enumerate(vals)) + ")"

    # SQL text, not Column objects: one py4j call per occurrence
    parts = [
        df.selectExpr(f"{o} AS o", "inline(array({}))".format(", ".join(
            [entry(c, col, t) for c, (col, t) in enumerate(zip(r.cols, ts))]
            # an occurrence without columns still needs its rows counted
            or [entry(-1)])))
        for o, (r, df, ts) in enumerate(zip(rels, dfs, kinds))
    ]
    union = reduce(DataFrame.union, parts)
    # the union has a partition per input partition of every occurrence; at
    # statistics sizes tasks, not rows, set the cost: one task per core
    union = union.coalesce(union.sparkSession.sparkContext.defaultParallelism)
    fn = F.count_distinct if exact else F.approx_count_distinct
    got = {
        (row["o"], row["c"]): row
        for row in union.groupBy("o", "c")
        .agg(F.count(F.lit(1)).alias("n"), *(fn(f"v{i}").alias(f"d{i}") for i in slot.values()))
        .collect()
    }
    out = []
    for o, (r, ts) in enumerate(zip(rels, kinds)):
        rows = [got.get((o, c)) for c in range(len(r.cols))] or [got.get((o, -1))]
        ndv = {col: int(row[f"d{slot[t]}"]) if row else 0
               for col, t, row in zip(r.cols, ts, rows)}
        out.append(RelStats(int(rows[0]["n"]) if rows[0] else 0, ndv))
    return out


def stats_for(
    tables: dict[str, DataFrame], rels: Iterable[Relation], *, exact: bool
) -> list[RelStats]:
    """Statistics of each relation occurrence in ``rels``, in order. Those
    not cached are collected in one Spark aggregate (occurrences sharing a
    cache key once)."""
    rels = list(rels)
    keys = [(r.source, r.predicate, tuple(r.cols), exact) for r in rels]
    missing = {k: r for k, r in zip(keys, rels) if k not in _CACHE}
    if missing:
        _CACHE.update(zip(missing, _aggregate(tables, list(missing.values()), exact=exact)))
    return [
        RelStats(_CACHE[k].rows, {a: _CACHE[k].ndv[c] for a, c in zip(r.attrs, r.cols)})
        for k, r in zip(keys, rels)
    ]


def collect_stats(
    tables: dict[str, DataFrame], cq: CQ, *, exact: bool = False
) -> dict[str, RelStats]:
    """Per-relation-occurrence statistics for one query."""
    return dict(zip((r.name for r in cq.relations),
                    stats_for(tables, cq.relations, exact=exact)))


def clear_cache() -> None:
    _CACHE.clear()
