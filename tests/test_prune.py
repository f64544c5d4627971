"""Cost-based semi-join / projection suppression (§7.2.4), decided in the
same estimation pass that costs the plan."""
import pytest

from repro.core._emit import Rules
from repro.core.cq import CQ, R
from repro.core.join_tree import root_tree
from repro.core.plan import Project, SemiJoin
from repro.core.yannakakis_plus import plan_yannakakis_plus
from repro.optimizer.cardinality import ESTIMATED, MODES, WORST_CASE, Cardinality
from repro.optimizer.cost import estimate_plan
from repro.optimizer.enumerate import choose_plan
from repro.optimizer.stats import RelStats


def path4(output=("a", "e")):
    rels = tuple(
        R(f"E{i+1}", "e", {c1: "src", c2: "dst"})
        for i, (c1, c2) in enumerate(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
        )
    )
    return CQ(rels, output, name="p4")


def tree4(cq):
    return root_tree(cq, [("E1", "E2"), ("E2", "E3"), ("E3", "E4")], "E1")


def uniform_stats(rows=100_000, ndv=8_000):
    st = RelStats(rows, {a: ndv for a in "abcde"})
    return {f"E{i}": st for i in range(1, 5)}


def selective_stats():
    """E1 tiny (selective predicate) → semi-joins genuinely reduce."""
    small = RelStats(50, {"a": 50, "b": 50})
    big = RelStats(100_000, {a: 8_000 for a in "abcde"})
    return {"E1": small, "E2": big, "E3": big, "E4": big}


def test_useless_semijoins_dropped():
    cq = path4()
    plan = plan_yannakakis_plus(cq, tree4(cq), rules=Rules(False, True))
    assert plan.n_semijoins() > 0
    card = Cardinality(cq, ESTIMATED, stats=uniform_stats())
    pruned = estimate_plan(plan, card)
    assert pruned.n_semijoins() == 0
    assert pruned.meta["semijoins_pruned"] >= plan.n_semijoins()


def test_useful_semijoins_kept():
    cq = CQ(
        (
            R("E1", "e", {"a": "src", "b": "dst"}, predicate="src < 5"),
            R("E2", "e", {"b": "src", "c": "dst"}),
            R("E3", "e", {"c": "src", "d": "dst"}),
        ),
        ("a", "d"),
        name="sel",
    )
    # root at the far end so the tiny filtered E1 reduces its parent via a
    # bottom-up semi-join in round 1
    tree = root_tree(cq, [("E1", "E2"), ("E2", "E3")], "E3")
    plan = plan_yannakakis_plus(cq, tree, rules=Rules(False, True))
    assert plan.n_semijoins() >= 1
    small = RelStats(50, {"a": 50, "b": 50})
    big = RelStats(100_000, {a: 8_000 for a in "abcd"})
    card = Cardinality(cq, ESTIMATED, stats={"E1": small, "E2": big, "E3": big})
    pruned = estimate_plan(plan, card)
    # the semi-join of E2 against tiny E1 survives
    assert pruned.n_semijoins() >= 1


def test_non_reducing_projections_dropped():
    cq = path4()
    plan = plan_yannakakis_plus(cq, tree4(cq), rules=Rules(False, True))
    card = Cardinality(cq, ESTIMATED, stats=uniform_stats())
    pruned = estimate_plan(plan, card)
    # with uniform non-reducing data, every aggregating π is overhead
    assert not [p for p in pruned.of_type(Project) if p.dedup]


def test_reducing_projections_kept():
    cq = path4(output=())  # global count: π to single join attrs reduces hard
    plan = plan_yannakakis_plus(cq, tree4(cq), rules=Rules(False, True))
    card = Cardinality(cq, ESTIMATED, stats=uniform_stats())
    pruned = estimate_plan(plan, card)
    assert [p for p in pruned.of_type(Project) if p.dedup]


def test_slot_rewiring_is_consistent():
    cq = path4()
    plan = plan_yannakakis_plus(cq, tree4(cq), rules=Rules(False, True))
    card = Cardinality(cq, ESTIMATED, stats=uniform_stats())
    pruned = estimate_plan(plan, card)
    defined = set()
    for s in pruned.steps:
        for ref in ("src", "left", "right"):
            if hasattr(s, ref):
                assert getattr(s, ref) in defined, f"dangling ref in {s}"
        defined.add(s.out)
    assert pruned.result in defined


def test_worst_case_mode_keeps_all_semijoins():
    cq = path4()
    choice = choose_plan(cq, None, stats=uniform_stats(), mode=WORST_CASE)
    assert choice.plan.n_semijoins() > 0


def test_estimated_mode_prunes_through_choose_plan():
    cq = path4()
    choice = choose_plan(cq, None, stats=uniform_stats())
    assert choice.plan.n_semijoins() == 0


def test_finalize_key_elimination_blocks_project_pruning():
    """A plan whose Finalize skipped grouping (PK rule) must not lose the
    projection that established the key."""
    rels = (
        R("F", "fact", {"k": "fk", "z": "z", "m": "m"}, annot="m"),
        R("D", "dim", {"k": "id", "w": "w"}, keys=[("k",)]),
    )
    cq = CQ(rels, ("k",), name="pk", ri=frozenset({("F", "D")}))
    tree = root_tree(cq, [("F", "D")], "F")
    plan = plan_yannakakis_plus(cq, tree, rules=Rules(True, True))
    from repro.core.plan import Finalize

    fin = plan.steps[-1]
    if isinstance(fin, Finalize) and not fin.dedup:
        st = {"F": RelStats(1000, {"k": 1000, "z": 2, "m": 5}),
              "D": RelStats(1000, {"k": 1000, "w": 3})}
        card = Cardinality(cq, ESTIMATED, stats=st)
        pruned = estimate_plan(plan, card)
        assert len(pruned.of_type(Project)) == len(plan.of_type(Project))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stats", [uniform_stats, selective_stats])
def test_estimation_pass_is_a_fixed_point(mode, stats):
    """Cost is measured on the pruned plan: running the pass on its own
    output drops nothing more and returns the same cost."""
    cq = path4()
    plan = plan_yannakakis_plus(cq, tree4(cq), rules=Rules(False, True))
    once = estimate_plan(plan, Cardinality(cq, mode, stats=stats()))
    twice = estimate_plan(once, Cardinality(cq, mode, stats=stats()))
    assert twice.meta["semijoins_pruned"] == 0
    assert twice.describe() == once.describe()
    assert twice.result == once.result
    assert twice.meta["cost"] == once.meta["cost"]
    assert twice.meta["est_rows"] == once.meta["est_rows"]
