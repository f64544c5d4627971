"""Yannakakis+ planner (paper §3): Algorithm 1 (first-round post-order
traversal with early aggregation-joins) followed by the second-round
reduction driven by dangling-free relations and their reducible neighbours
(Algorithm 2, Lemmas 3.9–3.14).

The planner is pure Python: it consumes a CQ plus a rooted join tree and
emits a straight-line plan of standard relational operators (`core.plan`),
never touching Spark.
"""
from __future__ import annotations

from ._emit import Emitter, Rules
from .cq import CQ
from .join_tree import JoinTree
from .plan import Plan


def plan_yannakakis_plus(cq: CQ, tree: JoinTree, rules: Rules = Rules()) -> Plan:
    """Generate the Yannakakis+ plan for ``cq`` on ``tree``.

    Second-round choices (merge order, Lemma 3.14 push-down) follow a
    deterministic heuristic: leaf neighbour first, fewest attributes first.
    """
    em = Emitter(cq, rules)
    out_eff = cq.plan_output

    children: dict[str, list[str]] = {n: list(tree.children(n)) for n in tree.nodes}
    parent: dict[str, str | None] = tree.parent_map
    live: set[str] = set(tree.nodes)

    def attrs_of(n: str) -> frozenset[str]:
        return em.peek(n).attrs

    def needed(n: str) -> frozenset[str]:
        """π_{O ∪ Ā_n}: output attrs plus attrs still used by other live
        relations, evaluated against the *current* relation set."""
        others = frozenset().union(
            *(attrs_of(m) for m in live if m != n)
        ) if len(live) > 1 else frozenset()
        return attrs_of(n) & (out_eff | others)

    # ------------------------------------------------- first round (Alg. 1)
    for name in tree.post_order()[:-1]:
        p = parent[name]
        assert p is not None
        a_i = attrs_of(name)
        a_p = attrs_of(p)
        if not children[name] and (a_i & out_eff) <= a_p:
            # early aggregation-join: fold the leaf into its parent
            em.nodes[p] = em.apply_eq_filters(em.absorb(em.get(p), name, a_i & a_p))
            children[p].remove(name)
            live.discard(name)
            em.nodes.pop(name, None)
        else:
            node = em.get(name)
            node = em.project(node, needed(name))
            em.nodes[name] = node
            em.nodes[p] = em.semijoin(em.get(p), node)
    root = tree.root
    if len(live) > 1:
        em.nodes[root] = em.project(em.get(root), needed(root))
    else:
        em.get(root)  # Finalize performs the single remaining π_O

    # ------------------------------------------- second round (§3.2, Alg. 2)
    # undirected adjacency of the reduced tree; root is dangling-free (L3.9)
    adj: dict[str, set[str]] = {n: set() for n in live}
    for n in live:
        if parent[n] is not None and parent[n] in live:
            adj[n].add(parent[n])
            adj[parent[n]].add(n)
    dangling: set[str] = {root}
    semi_order = {n: i for i, n in enumerate(tree.post_order())}

    def leaf_first(pair: tuple[str, str]) -> tuple:
        """Tie-break over (i, j) pairs: prefer a leaf j, then fewest attrs."""
        j = pair[1]
        return (len(adj[j]) > 1, len(attrs_of(j)), semi_order[j])

    def reducible(i: str, j: str) -> bool:
        """R_j is reducible for R_i (Def. 3.10): every *other* neighbour of
        R_i meets it only on output attributes."""
        return all(
            (attrs_of(k) & attrs_of(i)) <= out_eff
            for k in adj[i]
            if k != j
        )

    def merge(i: str, j: str) -> None:
        ni, nj = em.nodes[i], em.nodes[j]
        # keep the node closer to the root as the surviving tree position
        top = j if parent.get(i) == j else i
        merged = em.apply_eq_filters(em.join(ni, nj, base=top))
        new_adj = (adj[i] | adj[j]) - {i, j}
        for n in (i, j):
            for m in adj[n]:
                adj[m].discard(n)
            del adj[n]
            live.discard(n)
            dangling.discard(n)
            em.nodes.pop(n, None)
        live.add(top)
        em.nodes[top] = merged
        adj[top] = new_adj
        for m in new_adj:
            adj[m].add(top)
        # re-point children of the absorbed node at the surviving position
        bottom = i if top == j else j
        for n in live:
            if parent.get(n) == bottom:
                parent[n] = top
        dangling.add(top)
        # Algorithm 2 line 2: project to output ∪ still-needed attributes
        # (when this was the last merge, Finalize performs the final π_O)
        if len(live) > 1:
            em.nodes[top] = em.project(em.nodes[top], needed(top))

    while len(live) > 1:
        pairs = [
            (i, j)
            for i in sorted(dangling, key=semi_order.get)
            for j in sorted(adj[i], key=semi_order.get)
            if reducible(i, j)
        ]
        if pairs:
            merge(*min(pairs, key=leaf_first))
        else:
            # Lemma 3.14: push dangling-freeness down to a child
            cand = [
                (i, j)
                for i in sorted(dangling, key=semi_order.get)
                for j in sorted(adj[i], key=semi_order.get)
                if j not in dangling
            ]
            i, j = min(cand, key=leaf_first)
            em.nodes[j] = em.semijoin(em.nodes[j], em.nodes[i])
            dangling.add(j)

    (last,) = live
    result = em.finalize(em.nodes[last])
    plan = Plan(cq, em.steps, result)
    plan.meta["tree"] = tree
    plan.meta["algorithm"] = "yannakakis+"
    return plan
