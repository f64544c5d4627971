"""GHD decomposition of cyclic queries (§4.1)."""
import pytest

from repro.core.cq import CQ, R
from repro.core.ghd import decompose
from repro.core.hypergraph import is_acyclic
from repro.core.semiring import BOOL, SUM_PROD
from repro.workloads import all_queries


def triangle(annot=None):
    return CQ(
        (R("A", "e", {"a": "src", "b": "dst"}, annot=annot),
         R("B", "e", {"b": "src", "c": "dst"}),
         R("C", "e", {"c": "src", "a": "dst"})),
        (), SUM_PROD, name="tri",
    )


def test_acyclic_passthrough():
    cq = CQ((R("A", "e", ["a", "b"]), R("B", "e", ["b", "c"])), ())
    out, defs = decompose(cq)
    assert out is cq and defs == {}


def test_triangle_single_bag():
    out, defs = decompose(triangle())
    assert is_acyclic(out)
    assert len(defs) == 1
    (bag,) = defs.values()
    assert {r.name for r in bag.relations} == {"A", "B", "C"}
    assert bag.is_full and set(bag.output) == {"a", "b", "c"}


def test_unannotated_bag_uses_bag_semantics():
    _, defs = decompose(triangle())
    (bag,) = defs.values()
    assert bag.semiring.boolean  # full enumeration keeps multiplicities


def test_annotated_bag_carries_product_column():
    out, defs = decompose(triangle(annot="w"))
    (bag,) = defs.values()
    assert not bag.semiring.boolean and bag.alias == "__v"
    bag_rel = next(r for r in out.relations if r.name.startswith("B"))
    assert bag_rel.annot == "__v"


def test_dumbbell_two_triangle_bags_with_hints():
    wl = all_queries()["sgpb-q2b"]
    out, defs = decompose(wl.cq, bags=[list(b) for b in wl.bags])
    assert is_acyclic(out)
    assert len(defs) == 2
    # reduced query: bag(a,b,c) — E4(c,d) — bag(d,e,f): a line-3 join
    names = sorted(r.name for r in out.relations)
    assert names == ["B0", "B1", "E4"]


def test_dumbbell_heuristic_without_hints():
    wl = all_queries()["sgpb-q2b"]
    out, defs = decompose(wl.cq)
    assert is_acyclic(out)
    assert len(defs) == 2  # the triangle-first heuristic finds both


def test_bag_statistics_are_per_query(quiet_spark):
    """sgpb-q2a's bag (a triangle with a filtered edge) and sgpb-q2b's (the
    unfiltered triangle) must not share statistics: planned in one process,
    each bag's statistics count its own rows, and both queries, with their
    lazy bags, match DuckDB."""
    from repro import harness
    from repro.core.executor import execute
    from repro.oracle import assert_equivalent
    from repro.optimizer.enumerate import choose_plan
    from repro.optimizer.stats import clear_cache, collect_stats

    # two complete digraphs, one on either side of the q2a predicate
    # ``src <= 64``: q2a keeps half of q2b's triangles
    nodes = [*range(5), *range(100, 105)]
    edges = [(u, v, 1) for u in nodes for v in nodes if u != v and (u < 100) == (v < 100)]
    tables = {"bitcoin_lite": quiet_spark.createDataFrame(edges, ["src", "dst", "w"])}
    wls = [all_queries()[n] for n in ("sgpb-q2a", "sgpb-q2b")]
    # the statistics cache is keyed by source name, not by table: keep this
    # graph's statistics out of other tests, and theirs out of this one
    clear_cache()
    try:
        preps = [harness.prepare(wl, tables) for wl in wls]
        plans = [choose_plan(prep.cq, prep.tables).plan for prep in preps]
        counts = set()
        for prep in preps:
            st = collect_stats(prep.tables, prep.cq)
            for rel in prep.cq.relations:
                if rel.source.startswith("__bag"):
                    rows = prep.tables[rel.source].count()
                    assert st[rel.name].rows == rows, rel.source
                    counts.add(rows)
        for wl, prep, plan in zip(wls, preps, plans):
            assert_equivalent(execute(plan, prep.tables), wl.cq.to_sql(), **tables)
    finally:
        clear_cache()
    assert len(counts) == 2  # the two queries' bags differ


def test_four_cycle_pair_merges():
    cq = CQ(
        tuple(R(f"E{i}", "e", [f"x{i}", f"x{(i+1)%4}"]) for i in range(4)),
        (), SUM_PROD, name="c4",
    )
    out, defs = decompose(cq)
    assert is_acyclic(out)
    assert defs  # at least one pair bag was materialised


def test_ri_referencing_merged_relations_dropped():
    cq = CQ(
        (R("A", "e", ["a", "b"]), R("B", "e", ["b", "c"]),
         R("C", "e", ["c", "a"]), R("D", "d", ["a"], keys=[("a",)])),
        (), SUM_PROD, ri=frozenset({("A", "D")}), name="tri+",
    )
    out, _ = decompose(cq)
    assert all("A" not in pair for pair in out.ri)
