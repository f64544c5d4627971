"""Generalized hypertree decomposition for cyclic queries (paper §4.1).

Cyclic CQs are made acyclic by replacing *bags* with single relations: each
bag is the join of a small cyclic core (e.g. a triangle), evaluated natively
by the engine, after which the query has a normal join tree and Yannakakis+
applies. A bag is registered as a lazy DataFrame — a subquery of the outer
plan, as in the paper's SQL-emitting system (§6) — so it is evaluated as
part of the query that scans it, not in a job of its own. Each input
relation is assigned to exactly one bag (a partition), so annotations are
never double-counted (the paper's ``R¹`` trick degenerates to a no-op under
a partition).

Full GHD enumeration is NP-hard; this implements the practical fragment our
workloads need — explicit bag hints, plus a heuristic that repeatedly merges
a stuck cyclic core (triangles first, then the heaviest adjacent pair).
"""
from __future__ import annotations

import itertools
from dataclasses import replace

from pyspark.sql import DataFrame

from .cq import CQ, Relation, hyperedges
from .executor import native_df
from .hypergraph import gyo_reduce, is_acyclic
from .semiring import BOOL

BagDefs = dict[str, CQ]  # bag source name -> the bag's full query


def _bag_relation(cq: CQ, members: list[Relation], idx: int) -> tuple[Relation, CQ]:
    attrs: list[str] = []
    for r in members:
        for a in r.attrs:
            if a not in attrs:
                attrs.append(a)
    annotated = any(r.annot is not None for r in members)
    # unique per query: bags of different queries must not share a source
    # name, which keys the statistics cache
    source = f"__bag{idx}:{cq.name}"
    if annotated and not cq.semiring.boolean:
        bag_cq = CQ(
            tuple(members), tuple(attrs), cq.semiring, alias="__v",
            name=f"{cq.name}:bag{idx}",
        )
        annot = "__v"
    else:
        # unannotated members: a bag-semantics full enumeration keeps the
        # multiplicities, so no annotation column is needed
        bag_cq = CQ(
            tuple(members), tuple(attrs), BOOL, name=f"{cq.name}:bag{idx}"
        )
        annot = None
    rel = Relation(
        name=f"B{idx}", source=source, attrs=tuple(attrs), cols=tuple(attrs),
        annot=annot,
    )
    return rel, bag_cq


def decompose(cq: CQ, bags: list[list[str]] | None = None) -> tuple[CQ, BagDefs]:
    """Return an equivalent acyclic CQ plus the bag queries it scans.

    ``bags`` optionally names relation groups to merge (hints); otherwise a
    heuristic merges stuck cyclic cores until the query is acyclic."""
    defs: BagDefs = {}
    current = cq
    idx = 0

    def merge(group: list[str]) -> None:
        nonlocal current, idx
        members = [current.rel(n) for n in group]
        rel, bag_cq = _bag_relation(cq, members, idx)
        defs[rel.source] = bag_cq
        rest = tuple(r for r in current.relations if r.name not in group)
        current = replace(
            current,
            relations=rest + (rel,),
            ri=frozenset(
                p for p in current.ri if not (set(p) & set(group))
            ),
        )
        idx += 1

    for group in bags or []:
        merge(list(group))
    guard = 0
    while not is_acyclic(current):
        guard += 1
        if guard > len(cq.relations):
            raise ValueError(f"GHD heuristic failed on {cq.name or cq}")
        stuck = set(gyo_reduce(hyperedges(current)))
        names = [r.name for r in current.relations if r.name in stuck]
        # prefer a triangle (3 pairwise-joined stuck relations)
        tri = next(
            (
                [a, b, c]
                for a, b, c in itertools.combinations(names, 3)
                if current.shared(a, b) and current.shared(b, c) and current.shared(a, c)
            ),
            None,
        )
        if tri is not None:
            merge(tri)
            continue
        pairs = [
            (len(current.shared(a, b)), [a, b])
            for a, b in itertools.combinations(names, 2)
            if current.shared(a, b)
        ]
        if not pairs:
            raise ValueError(f"GHD heuristic stuck on {cq.name or cq}")
        merge(max(pairs)[1])
    return current, defs


def materialize_bags(defs: BagDefs, tables: dict[str, DataFrame]) -> dict[str, DataFrame]:
    """Register each bag query's lazy native plan as a table; returns an
    extended table dict. Nothing runs here: a bag is evaluated by whatever
    Spark job scans it."""
    out = dict(tables)
    for source, bag_cq in defs.items():
        out[source] = native_df(bag_cq, out)
    return out
