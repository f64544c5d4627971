"""Cost-based optimizer internals (§5.2): cardinality formulas under the
three CE scenarios, the cost model, candidate-tree pruning, and plan choice
with fabricated statistics (no Spark needed)."""
import pytest

from repro.core._emit import Rules
from repro.core.cq import CQ, R
from repro.core.join_tree import root_tree
from repro.core.yannakakis_plus import plan_yannakakis_plus
from repro.optimizer.cardinality import (
    ACCURATE, ESTIMATED, WORST_CASE, Cardinality, Est
)
from repro.optimizer.cost import estimate_plan
from repro.optimizer.enumerate import candidate_trees, choose_plan
from repro.optimizer.stats import RelStats


def path3(output=("a",)):
    return CQ(
        (R("E1", "e", {"a": "src", "b": "dst"}),
         R("E2", "e", {"b": "src", "c": "dst"}),
         R("E3", "e", {"c": "src", "d": "dst"})),
        output, name="p3",
    )


def stats3(rows=1000, ndv=100):
    st = RelStats(rows, {"a": ndv, "b": ndv, "c": ndv, "d": ndv})
    return {"E1": st, "E2": st, "E3": st}


# ------------------------------------------------------------- formulas
def test_estimated_join_independence():
    card = Cardinality(path3(), ESTIMATED, stats=stats3())
    a = Est(1000.0, {"a": 100, "b": 100})
    b = Est(1000.0, {"b": 100, "c": 100})
    j = card.join(a, b, ("b",))
    assert j.rows == pytest.approx(1000 * 1000 / 100)


def test_worst_case_join_is_cartesian():
    card = Cardinality(path3(), WORST_CASE, stats=stats3())
    a = Est(1000.0, {})
    b = Est(500.0, {})
    assert card.join(a, b, ("b",)).rows == 500_000


def test_worst_case_join_capped_by_key():
    card = Cardinality(path3(), WORST_CASE, stats=stats3())
    a = Est(1000.0, {})
    b = Est(500.0, {}, keys=(frozenset({"b"}),))
    assert card.join(a, b, ("b",)).rows == 1000  # each a row matches ≤1 b


def test_semijoin_never_grows():
    card = Cardinality(path3(), ESTIMATED, stats=stats3())
    a = Est(1000.0, {"b": 100})
    b = Est(10.0, {"b": 5})
    s = card.semijoin(a, b, ("b",))
    assert s.rows <= a.rows
    assert s.rows == pytest.approx(1000 * 5 / 100)


def test_project_capped_by_ndv():
    card = Cardinality(path3(), ESTIMATED, stats=stats3())
    a = Est(1000.0, {"a": 42})
    assert card.project(a, ("a",), True).rows == 42


def test_project_key_elim_keeps_rows():
    card = Cardinality(path3(), ESTIMATED, stats=stats3())
    a = Est(1000.0, {"a": 42}, keys=(frozenset({"a"}),))
    assert card.project(a, ("a",), True).rows == 1000


def test_scan_uses_stats():
    cq = path3()
    card = Cardinality(cq, ESTIMATED, stats=stats3(rows=777))
    assert card.scan(cq.rel("E1")).rows == 777


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown CE mode"):
        Cardinality(path3(), "vibes")


def test_accurate_pair_join_requires_tables():
    card = Cardinality(path3(), ACCURATE, stats=stats3())
    assert card.exact_pair_join(path3().rel("E1"), path3().rel("E2")) is None


# ------------------------------------------------------------ cost model
def test_cost_positive_and_annotates():
    cq = path3()
    tree = root_tree(cq, [("E1", "E2"), ("E2", "E3")], "E1")
    plan = plan_yannakakis_plus(cq, tree, rules=Rules(False, True))
    card = Cardinality(cq, ESTIMATED, stats=stats3())
    plan = estimate_plan(plan, card)
    c = plan.meta["cost"]
    assert c > 0 and plan.meta["cost"] == c
    assert plan.meta["est_rows"]


def test_cost_prefers_selective_side():
    """Rooting at the relation with the selective predicate should cost less
    than materialising the blow-up first."""
    rels = (
        R("S", "e", {"a": "src", "b": "dst"}, predicate="src < 5"),
        R("B", "e", {"b": "src", "c": "dst"}),
    )
    cq = CQ(rels, ("a",), name="sel")
    st = {"S": RelStats(10, {"a": 5, "b": 10}),
          "B": RelStats(100_000, {"b": 100, "c": 1000})}
    card = Cardinality(cq, ESTIMATED, stats=st)
    t_s = root_tree(cq, [("S", "B")], "S")
    t_b = root_tree(cq, [("S", "B")], "B")
    c_s = estimate_plan(plan_yannakakis_plus(cq, t_s), card).meta["cost"]
    c_b = estimate_plan(plan_yannakakis_plus(cq, t_b), card).meta["cost"]
    assert c_s < c_b


# ------------------------------------------------------ tree enumeration
def test_candidates_prefer_dominating_root():
    cq = path3(output=("a", "b"))  # dominated by E1
    trees = candidate_trees(cq)
    assert all(t.root == "E1" for t in trees)


def test_candidates_prefer_free_connex_trees():
    cq = path3(output=("a", "b", "c"))
    trees = candidate_trees(cq)
    from repro.core.join_tree import is_free_connex_tree

    assert trees and all(is_free_connex_tree(cq, t) for t in trees)


def test_candidates_rank_output_roots_first():
    cq = path3(output=("a",))
    trees = candidate_trees(cq)
    assert "a" in cq.rel(trees[0].root).attrs


# ----------------------------------------------------------- choose_plan
def test_choose_plan_with_fabricated_stats():
    cq = path3()
    choice = choose_plan(cq, None, stats=stats3())
    assert choice.cost > 0
    assert choice.opt_time >= 0
    assert choice.n_candidates >= 1
    assert choice.plan.meta["algorithm"] == "yannakakis+"


def test_choose_plan_classic_algorithm():
    cq = path3()
    choice = choose_plan(cq, None, stats=stats3(), algorithm="yannakakis")
    assert choice.plan.meta["algorithm"] == "yannakakis"
    assert choice.plan.n_semijoins() == 4  # 2 up + 2 down on a 3-path


def test_choose_plan_rules_passthrough():
    cq = path3()
    c1 = choose_plan(cq, None, stats=stats3(), rules=Rules(False, False))
    from repro.core.plan import Scan

    assert all(s.with_annot for s in c1.plan.of_type(Scan))
