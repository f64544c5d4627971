"""Estimation pass over the operator IR: the cost model (§5.2) and
cost-based semi-join / projection suppression (§7.2.4), decided on one set
of cardinality estimates.

The cost of a plan is the sum over operators of their Table-1 running times
under the cardinality estimates: scans and projections pay their input,
joins pay inputs plus output, semi-joins pay their inputs. This is exactly
the "total intermediate results" metric the paper optimises (Example 5.1),
with input terms added so semi-join work is not free. Filters keep
``FILTER_SELECTIVITY`` of their input. In the ``accurate`` scenario, joins
between two unchanged base relations are costed with exact pairwise join
sizes.

The paper's robustness comes in part from *not* running semi-join reductions
that would not reduce anything: "In most queries, only one round or even no
semi-join reduction is required." Dropping a semi-join is always
semantically safe (dangling tuples are ignored by the later inner joins);
it only trades the worst-case guarantee for constant-factor savings. So a
semi-join expected to keep at least ``KEEP_RATIO`` of its input is pure
overhead, is removed, and costs nothing. So is a semi-join whose right input
is keyed on (a subset of) its attributes: in a Yannakakis+ plan that input
is joined later, on those attributes, with what comes out of the left
input, and a keyed join removes the same tuples and cannot multiply the
others. The semi-join would only shrink the operators in between, at the
price of a pass over its left input, a second evaluation of its right input
and, on Spark, two more shuffles. Measured on TPC-H q5 after cycle
elimination at the ``cyclic`` benchmark's scale (three semi-joins against
``O`` on ``ok``, ``S⋉N`` on ``sk`` and ``N⋈RG`` on ``nk``, each joined later
anyway): dropping them took the Spark plan from 24 stages to native's 12,
and the query's median time from 1.78 s to 1.14 s (native 1.18 s) on a
4-core VM. Dropping an aggregating projection
is safe for the same algebraic reason: every π in a Yannakakis(+) plan
removes only attributes that appear in *no* remaining relation, so
downstream joins are schema-unaffected, and the deferred ⊕ merges the
surviving duplicates at the next aggregation (associativity). The one
exception is a plan whose Finalize skipped its own grouping on the strength
of a projection-established key — those plans keep all projections.

Only Yannakakis+ plans are pruned; the classic Yannakakis baseline keeps its
full reduction. Under the worst-case CE scenario no semi-join can be proven
useless, so the defensive plan keeps them all.
"""
from __future__ import annotations

from dataclasses import replace

from ..core.plan import Filter, Finalize, Join, Plan, Project, Scan, SemiJoin
from .cardinality import WORST_CASE, Cardinality, Est

KEEP_RATIO = 0.8
FILTER_SELECTIVITY = 0.1


def estimate_plan(plan: Plan, card: Cardinality) -> Plan:
    """One forward pass over ``plan.steps``: estimate every slot, drop
    low-value semi-joins and aggregating projections (consumers rewired to
    the operator's input), and sum the cost of the operators that remain.

    Returns the pruned plan with ``meta['cost']``, ``meta['est']`` (slot ->
    ``Est``) and ``meta['semijoins_pruned']`` (operators dropped)."""
    prune = plan.meta.get("algorithm") == "yannakakis+" and card.mode != WORST_CASE
    fin = plan.steps[-1]
    prune_projects = prune and not (isinstance(fin, Finalize) and not fin.dedup)
    env: dict[str, Est] = {}
    base_slot: dict[str, str] = {}  # slot -> base relation name while unchanged
    alias: dict[str, str] = {}  # dropped slot -> the slot that replaces it
    steps = []
    total = 0.0

    def res(slot: str) -> str:
        while slot in alias:
            slot = alias[slot]
        return slot

    for s in plan.steps:
        if isinstance(s, Scan):
            est = card.scan(s.relation)
            base_slot[s.out] = s.relation.name
            cost = est.rows
        elif isinstance(s, Project):
            s = replace(s, src=res(s.src))
            src = env[s.src]
            est = card.project(src, s.attrs, s.dedup)
            if prune_projects and s.dedup and est.rows >= KEEP_RATIO * src.rows:
                alias[s.out] = s.src
                continue
            cost = src.rows
        elif isinstance(s, Join):
            s = replace(s, left=res(s.left), right=res(s.right))
            l, r = env[s.left], env[s.right]
            est = card.join(l, r, s.on)
            lb, rb = base_slot.get(s.left), base_slot.get(s.right)
            if lb and rb:
                exact = card.exact_pair_join(plan.cq.rel(lb), plan.cq.rel(rb))
                if exact is not None:
                    est = Est(max(exact, 1.0), est.ndv, est.keys)
            cost = l.rows + r.rows + est.rows
        elif isinstance(s, SemiJoin):
            s = replace(s, left=res(s.left), right=res(s.right))
            l, r = env[s.left], env[s.right]
            est = card.semijoin(l, r, s.on)
            keyed = any(k <= frozenset(s.on) for k in r.keys)
            if prune and (keyed or est.rows >= KEEP_RATIO * l.rows):
                alias[s.out] = s.left  # not worth it: reuse the unreduced input
                continue
            base_slot[s.out] = base_slot.get(s.left, "")
            cost = l.rows + r.rows
        elif isinstance(s, Filter):
            s = replace(s, src=res(s.src))
            src = env[s.src]
            est = Est(max(1.0, src.rows * FILTER_SELECTIVITY), dict(src.ndv), src.keys)
            cost = src.rows
        elif isinstance(s, Finalize):
            s = replace(s, src=res(s.src))
            src = env[s.src]
            out_rows = (
                src.rows
                if not s.dedup or s.mode == "full"
                else card.project(src, s.output, True).rows
            )
            est = Est(max(out_rows, 1.0), {}, ())
            cost = src.rows
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {s}")
        env[s.out] = est
        steps.append(s)
        total += cost
    meta = dict(plan.meta)
    meta["cost"] = total
    meta["est"] = env
    meta["semijoins_pruned"] = len(alias)
    return Plan(plan.cq, steps, res(plan.result), meta)
