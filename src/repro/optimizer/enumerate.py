"""Plan enumeration and selection (paper §5.2).

``choose_plan`` is the optimizer entry point: it enumerates the valid join
trees (GYO-based), applies the paper's pruning preferences (roots containing
output attributes, relation-dominated / free-connex trees when they exist,
bushy low-height trees), generates the Yannakakis+ plan for each candidate,
prunes and costs it in one estimation pass under the selected cardinality
scenario, and returns the argmin.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from ..core._emit import Rules
from ..core.cq import CQ
from ..core.join_tree import (
    JoinTree,
    dominating_relations,
    enumerate_join_trees,
    is_free_connex_tree,
)
from ..core.plan import Plan
from ..core.yannakakis import plan_yannakakis
from ..core.yannakakis_plus import plan_yannakakis_plus
from .cardinality import ESTIMATED, Cardinality
from .cost import estimate_plan
from .stats import RelStats


@dataclass
class Choice:
    """Result of plan selection."""

    plan: Plan
    tree: JoinTree
    cost: float
    opt_time: float
    n_candidates: int
    all_costs: list = field(default_factory=list)


def candidate_trees(cq: CQ, cap: int = 48) -> list[JoinTree]:
    """Valid join trees with the §5.2 pruning preferences applied:
    relation-dominated roots first, then free-connex trees, then anything;
    within a class, roots containing output attributes and lower heights
    are preferred."""
    trees = enumerate_join_trees(cq, cap=cap)
    dom = set(dominating_relations(cq))
    if dom:
        doms = [t for t in trees if t.root in dom]
        if doms:
            trees = doms
    else:
        fc = [t for t in trees if is_free_connex_tree(cq, t)]
        if fc:
            trees = fc
    o = cq.plan_output

    def rank(t: JoinTree):
        root_out = len(cq.rel(t.root).attr_set & o)
        return (-root_out, t.height())

    trees.sort(key=rank)
    return trees[:cap]


def choose_plan(
    cq: CQ,
    tables: dict[str, DataFrame] | None = None,
    *,
    mode: str = ESTIMATED,
    rules: Rules = Rules(),
    algorithm: str = "yannakakis+",
    stats: dict[str, RelStats] | None = None,
    cap: int = 24,
) -> Choice:
    """Pick the cheapest plan in the Yannakakis+ (or classic Yannakakis)
    family under the given cardinality-estimation scenario."""
    # the base statistics, fetched in one batched call: like the paper's
    # system, which reads them from the DBMS catalog, they are not part of
    # the optimization time
    card = Cardinality(cq, mode=mode, tables=tables, stats=stats)
    t0 = time.perf_counter()
    trees = candidate_trees(cq, cap=cap)
    best: tuple[float, Plan, JoinTree] | None = None
    costs = []
    for tree in trees:
        if algorithm == "yannakakis+":
            plan = plan_yannakakis_plus(cq, tree, rules=rules)
        else:
            plan = plan_yannakakis(cq, tree)
        # one pass: drop what the estimates call useless (§7.2.4), cost the rest
        plan = estimate_plan(plan, card)
        c = plan.meta["cost"]
        costs.append((c, tree.root))
        if best is None or c < best[0]:
            best = (c, plan, tree)
    if best is None:
        raise ValueError(f"no valid join tree for {cq.name or cq}")
    opt_time = time.perf_counter() - t0
    return Choice(best[1], best[2], best[0], opt_time, len(trees), costs)
