"""Cardinality estimation under the paper's three scenarios (§7.2.3):

* ``accurate`` — exact base statistics plus exact (memoised, lazily computed)
  pairwise base-join sizes;
* ``estimated`` — approximate NDV statistics with the classical
  independence/containment formulas [Selinger-style];
* ``worst-case`` — Cartesian-product bounds unless key constraints cap a
  side (the paper's "worst-case bounds" scenario).

Estimates flow through the operator IR as ``(rows, ndv-map, keyed?)``
triples so a whole Yannakakis+/Yannakakis plan can be costed symbolically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from ..core.cq import CQ, Relation
from .stats import RelStats, stats_for

ACCURATE = "accurate"
ESTIMATED = "estimated"
WORST_CASE = "worst-case"
MODES = (ACCURATE, ESTIMATED, WORST_CASE)


@dataclass
class Est:
    """Symbolic size of an intermediate result."""

    rows: float
    ndv: dict  # attr -> distinct estimate
    keys: tuple[frozenset, ...] = ()

    def ndv_of(self, attrs) -> float:
        n = 1.0
        for a in attrs:
            n *= max(1.0, self.ndv.get(a, self.rows))
        return min(max(self.rows, 1.0), n) if attrs else 1.0


class Cardinality:
    """Estimator bound to one query + mode. Given live tables, it fetches
    the query's base statistics when built, in one batched call (under
    ``worst-case`` that includes each filtered relation's unfiltered
    statistics), and the ``accurate`` mode computes exact pairwise join
    sizes on demand."""

    def __init__(
        self,
        cq: CQ,
        mode: str = ESTIMATED,
        tables: dict[str, DataFrame] | None = None,
        stats: dict[str, RelStats] | None = None,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown CE mode {mode}")
        self.cq = cq
        self.mode = mode
        self.tables = tables
        self._stats = dict(stats or {})
        # worst-case gives no selectivity credit: relation name -> the
        # statistics of its unfiltered table
        self._unfiltered: dict[str, RelStats] = {}
        self._pair_cache: dict[tuple[str, str], float] = {}
        if tables is not None:
            todo = [r for r in cq.relations if r.name not in self._stats]
            bare = [
                Relation(r.name, r.source, r.attrs, r.cols)
                for r in cq.relations if mode == WORST_CASE and r.predicate is not None
            ]
            got = stats_for(tables, todo + bare, exact=(mode == ACCURATE))
            self._stats.update(zip((r.name for r in todo), got))
            self._unfiltered = dict(zip((r.name for r in bare), got[len(todo):]))

    # ------------------------------------------------------------ base
    def scan(self, rel: Relation) -> Est:
        if rel.name not in self._stats:
            raise ValueError(f"no statistics for {rel.name} and no tables to derive them from")
        st = self._stats[rel.name]
        if self.mode == WORST_CASE and rel.predicate is not None:
            st = self._unfiltered.get(rel.name, st)
        return Est(float(st.rows), dict(st.ndv), rel.keys)

    # ------------------------------------------------------- operators
    def join(self, a: Est, b: Est, on) -> Est:
        on = frozenset(on)
        a_keyed = any(k <= on for k in a.keys)
        b_keyed = any(k <= on for k in b.keys)
        if self.mode == WORST_CASE:
            if b_keyed and a_keyed:
                rows = min(a.rows, b.rows)
            elif b_keyed:
                rows = a.rows
            elif a_keyed:
                rows = b.rows
            else:
                rows = a.rows * b.rows
        elif b_keyed and not a_keyed:
            # FK lookup: every left row matches ≤1 right row; the fraction
            # that matches is the (filtered) right side over the left's key
            # domain — far more accurate than independence on composite keys
            rows = max(1.0, a.rows * min(1.0, b.rows / max(a.ndv_of(on), 1.0)))
        elif a_keyed and not b_keyed:
            rows = max(1.0, b.rows * min(1.0, a.rows / max(b.ndv_of(on), 1.0)))
        elif a_keyed and b_keyed:
            rows = max(1.0, min(a.rows, b.rows))
        else:
            # combined-NDV denominator (not the per-attribute product, which
            # wildly underestimates correlated composite join keys)
            denom = max(a.ndv_of(on), b.ndv_of(on), 1.0)
            rows = max(1.0, a.rows * b.rows / denom)
        ndv = {}
        for x in set(a.ndv) | set(b.ndv):
            cands = [d[x] for d in (a.ndv, b.ndv) if x in d]
            ndv[x] = min(min(cands), rows)
        keys: tuple[frozenset, ...] = ()
        if b_keyed:
            keys += a.keys
        if a_keyed:
            keys += tuple(k for k in b.keys if k not in keys)
        return Est(rows, ndv, keys)

    def semijoin(self, a: Est, b: Est, on) -> Est:
        if self.mode == WORST_CASE:
            return Est(a.rows, dict(a.ndv), a.keys)
        on = list(on)
        sel = min(1.0, b.ndv_of(on) / max(a.ndv_of(on), 1.0))
        rows = max(1.0, a.rows * sel)
        ndv = {x: min(d, rows) for x, d in a.ndv.items()}
        return Est(rows, ndv, a.keys)

    def project(self, a: Est, attrs, dedup: bool) -> Est:
        attrs = list(attrs)
        if not dedup or any(k <= frozenset(attrs) for k in a.keys):
            rows = a.rows
        else:
            rows = min(a.rows, a.ndv_of(attrs)) if self.mode != WORST_CASE else a.rows
        ndv = {x: min(d, rows) for x, d in a.ndv.items() if x in attrs}
        keys = tuple(k for k in a.keys if k <= frozenset(attrs))
        if dedup:
            keys += (frozenset(attrs),)
        return Est(max(rows, 1.0), ndv, keys)

    # -------------------------------------------------- accurate pairs
    def exact_pair_join(self, r1: Relation, r2: Relation) -> float | None:
        """Exact |r1 ⋈ r2| for the accurate scenario (memoised Spark count);
        None when tables are unavailable."""
        if self.mode != ACCURATE or self.tables is None:
            return None
        key = tuple(sorted((r1.name, r2.name)))
        if key not in self._pair_cache:
            from ..core.executor import scan_df

            d1 = scan_df(self.tables, r1, with_annot=False)
            d2 = scan_df(self.tables, r2, with_annot=False)
            on = sorted(r1.attr_set & r2.attr_set)
            n = d1.join(d2, on=on, how="inner").count() if on else d1.count() * d2.count()
            self._pair_cache[key] = float(n)
        return self._pair_cache[key]
