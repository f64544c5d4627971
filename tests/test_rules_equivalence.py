"""Semantic safety of every optimizer rule: with any combination of rule
switches, under any CE scenario, on every enumerated join tree of small
queries, the result must equal the oracle. Also covers the paper's 5-copy
PK-breaking experiment (§1)."""
import pytest

from repro import harness
from repro.core._emit import NO_RULES, Rules
from repro.core.executor import execute, native_df
from repro.core.join_tree import enumerate_join_trees
from repro.core.yannakakis import plan_yannakakis
from repro.core.yannakakis_plus import plan_yannakakis_plus
from repro.oracle import assert_equivalent
from repro.optimizer.enumerate import choose_plan
from repro.workloads import all_queries

QUERIES = all_queries()
RULE_GRID = [
    Rules(False, False), Rules(True, False), Rules(False, True), Rules(True, True)
]


def _oracle_inputs(pandas_sources, wl):
    return {
        src: pandas_sources(wl.benchmark, src)
        for src in {r.source for r in wl.cq.relations}
    }


@pytest.mark.parametrize("rules", RULE_GRID, ids=["none", "pkfk", "annot", "both"])
@pytest.mark.parametrize("name", ["job-1a", "job-4a", "tpch-q9", "sgpb-q9"])
def test_rule_grid_preserves_semantics(
    bench_tables, pandas_sources, prepared_cache, name, rules
):
    wl = QUERIES[name]
    prep = prepared_cache(name)
    df, _ = harness.build(wl, bench_tables(wl.benchmark), "yannakakis+",
                          rules=rules, prepared=prep)
    assert_equivalent(df, wl.cq.to_sql(), **_oracle_inputs(pandas_sources, wl))


@pytest.mark.parametrize("name", ["tpch-q3", "sgpb-q7"])
def test_every_join_tree_gives_same_answer(bench_tables, pandas_sources, name):
    """All members of the Yannakakis+ plan family are equivalent (§5)."""
    wl = QUERIES[name]
    tables = bench_tables(wl.benchmark)
    pdf = _oracle_inputs(pandas_sources, wl)
    trees = enumerate_join_trees(wl.cq, cap=6)
    assert trees
    for tree in trees[:6]:
        df = execute(plan_yannakakis_plus(wl.cq, tree), tables)
        assert_equivalent(df, wl.cq.to_sql(), **pdf)
        df = execute(plan_yannakakis(wl.cq, tree), tables)
        assert_equivalent(df, wl.cq.to_sql(), **pdf)


# chosen plans whose pruning decisions see exact pair-join sizes in the
# accurate scenario (they differ from pruning on independence estimates)
ACCURATE_PRUNED = ["job-12a", "lsqb-q3", "sgpb-q5a", "sgpb-q5b"]


@pytest.mark.parametrize("ce_mode", ["accurate", "estimated", "worst-case"])
def test_ce_scenarios_preserve_semantics(
    bench_tables, pandas_sources, prepared_cache, ce_mode
):
    names = ["job-2b"] + (ACCURATE_PRUNED if ce_mode == "accurate" else [])
    for name in names:
        wl = QUERIES[name]
        prep = prepared_cache(name)
        choice = choose_plan(prep.cq, prep.tables, mode=ce_mode)
        df = execute(choice.plan, prep.tables)
        assert_equivalent(df, wl.cq.to_sql(), **_oracle_inputs(pandas_sources, wl))


def test_five_copy_many_to_many(quiet_spark):
    """The paper's §1 experiment: duplicating fact tables breaks PK-FK
    multiplicities; results (with ×k² scaled counts) must stay correct."""
    from repro.workloads import tpch

    wl = QUERIES["tpch-q9"]
    tables = tpch.load_tables(quiet_spark, sf=0.002, copies=3)
    pdf = {s: tables[s].toPandas() for s in {r.source for r in wl.cq.relations}}
    sql = wl.cq.to_sql()
    # keys are broken → run without the PK-FK rules (the optimizer would
    # need key re-detection; declared keys are no longer true keys)
    import dataclasses

    cq = dataclasses.replace(
        wl.cq,
        relations=tuple(
            dataclasses.replace(r, keys=()) for r in wl.cq.relations
        ),
        ri=frozenset(),
    )
    choice = choose_plan(cq, tables)
    assert_equivalent(execute(choice.plan, tables), sql, **pdf)
    assert_equivalent(native_df(cq, tables), sql, **pdf)


def test_classic_yannakakis_rules_off_by_default(bench_tables, pandas_sources):
    wl = QUERIES["tpch-q19"]
    tables = bench_tables("tpch")
    trees = enumerate_join_trees(wl.cq)
    plan = plan_yannakakis(wl.cq, trees[0])
    # vanilla baseline: both semi-join passes present
    assert plan.n_semijoins() == 2
    df = execute(plan, tables)
    assert_equivalent(df, wl.cq.to_sql(), **_oracle_inputs(pandas_sources, wl))
