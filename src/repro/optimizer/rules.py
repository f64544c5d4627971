"""Rule-based optimization (paper §5.1).

The per-operator eliminations (PK-FK aggregation/projection elimination,
semi-join elimination, annotation pruning) live in ``core._emit`` and are
switched by :class:`Rules`; this module hosts the *query-level* rewrite,
**cycle elimination** (Example 5.2): break a PK-FK-induced cycle by renaming
one occurrence of a join attribute and re-imposing the equality as a
post-join selection — turning a cyclic CQ acyclic without the cost of a GHD,
valid because PK-FK joins keep all intermediates linear.

The paper's other query-level rule, fusion of dimension relations (§5.1),
is not implemented: dimension relations are planned as ordinary join-tree
nodes.
"""
from __future__ import annotations

from dataclasses import replace

from ..core._emit import NO_RULES, Rules  # re-export  # noqa: F401
from ..core.cq import CQ
from ..core.hypergraph import is_acyclic


def _pk_fk_shaped(cq: CQ) -> bool:
    """Heuristic licence for cycle elimination: every join attribute is a
    (sole) declared key of some relation that contains it, so the joins form
    PK-FK lookups and all intermediate sizes stay O(N) — the paper's
    precondition for Example 5.2."""
    for a in cq.attrs:
        holders = [r for r in cq.relations if a in r.attr_set]
        if len(holders) < 2:
            continue
        if not any(k <= {a} for r in holders for k in r.keys):
            return False
    return True


def eliminate_cycles(cq: CQ, *, force: bool = False, max_renames: int = 3) -> CQ | None:
    """Try to make a cyclic CQ acyclic by renaming attribute occurrences and
    re-imposing the equalities as filters. Returns the rewritten CQ, or
    ``None`` when inapplicable (caller falls back to GHD)."""
    if is_acyclic(cq):
        return cq
    if not force and not _pk_fk_shaped(cq):
        return None
    current = cq
    for round_ in range(max_renames):
        if is_acyclic(current):
            return current
        found = None
        for rel in current.relations:
            for a in rel.attrs:
                holders = [r for r in current.relations if a in r.attr_set]
                if len(holders) < 2:
                    continue
                fresh = f"{a}__ce{round_}"
                cand = current.rename_attr(rel.name, a, fresh)
                # the renamed relation must stay connected to the query
                if not any(
                    cand.rel(rel.name).attr_set & r.attr_set
                    for r in cand.relations
                    if r.name != rel.name
                ):
                    continue
                cand = replace(cand, eq_filters=cand.eq_filters + ((a, fresh),))
                if is_acyclic(cand):
                    return cand
                if found is None:
                    found = cand
        if found is None:
            return None
        current = found
    return current if is_acyclic(current) else None
