"""Query-level rewrite (§5.1): cycle elimination (Example 5.2) — structural
tests (semantics vs oracle elsewhere)."""
import pytest

from repro.core.cq import CQ, R
from repro.core.hypergraph import is_acyclic
from repro.optimizer.rules import _pk_fk_shaped, eliminate_cycles
from repro.workloads import all_queries


def pk_square():
    """4-cycle where every join attribute is a PK somewhere (Example 5.2
    shape): C(ck,nk) O(ok,ck) L(ok,sk) S(sk,nk)."""
    return CQ(
        (
            R("C", "c", ["ck", "nk"], keys=[("ck",)]),
            R("O", "o", ["ok", "ck"], keys=[("ok",)]),
            R("L", "l", ["ok", "sk"]),
            R("S", "s", ["sk", "nk"], keys=[("sk",)]),
            R("N", "n", ["nk", "nname"], keys=[("nk",)]),
        ),
        ("nname",), name="sq",
    )


def test_pk_fk_shape_detected():
    assert _pk_fk_shaped(pk_square())


def test_triangle_without_keys_not_pk_fk():
    cq = CQ((R("A", "e", ["a", "b"]), R("B", "e", ["b", "c"]),
             R("C", "e", ["c", "a"])), ())
    assert not _pk_fk_shaped(cq)


def test_eliminate_cycles_produces_acyclic_with_filter():
    out = eliminate_cycles(pk_square())
    assert out is not None
    assert is_acyclic(out)
    assert out.eq_filters, "the broken equality must be re-imposed"
    a, b = out.eq_filters[0]
    assert b.startswith(a + "__ce") or a.startswith(b + "__ce")


def test_eliminate_cycles_keeps_connection():
    out = eliminate_cycles(pk_square())
    # the renamed relation still joins the rest of the query
    for rel in out.relations:
        assert any(
            rel.attr_set & r.attr_set for r in out.relations if r.name != rel.name
        )


def test_eliminate_cycles_declines_many_to_many():
    cq = CQ((R("A", "e", ["a", "b"]), R("B", "e", ["b", "c"]),
             R("C", "e", ["c", "a"])), ())
    assert eliminate_cycles(cq) is None


def test_eliminate_cycles_force_overrides_licence():
    cq = CQ((R("A", "e", ["a", "b"]), R("B", "e", ["b", "c"]),
             R("C", "e", ["c", "a"])), ())
    out = eliminate_cycles(cq, force=True)
    assert out is not None and is_acyclic(out)


def test_acyclic_passthrough():
    cq = CQ((R("A", "e", ["a", "b"]),), ())
    assert eliminate_cycles(cq) is cq


def test_tpch_q5_rewrites():
    wl = all_queries()["tpch-q5"]
    out = eliminate_cycles(wl.cq)
    assert out is not None and is_acyclic(out)
    assert out.plan_output > wl.cq.plan_output  # rename attrs exposed
