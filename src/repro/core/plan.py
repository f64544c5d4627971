"""Relational-operator plan IR (the operators of paper Table 1).

A :class:`Plan` is a straight-line program over named slots; each step is one
standard relational operator. Both the classic Yannakakis planner and the
Yannakakis+ planner emit this IR, and `core.executor` lowers it to a Spark
DataFrame DAG (each op maps 1:1 onto a Catalyst logical operator).

``Project`` is the ⊕-aggregating projection of Table 1 (``GROUP BY`` kept
attributes); ``dedup=False`` marks a projection whose grouping was proven
redundant by the PK rule (§5.1 "Aggregation Elimination") and which therefore
lowers to a plain column select.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .cq import CQ, Relation


@dataclass(frozen=True)
class Step:
    out: str

    def describe(self) -> str:
        """One line of :meth:`Plan.describe`."""
        raise NotImplementedError


@dataclass(frozen=True)
class Scan(Step):
    """Base-table scan: predicate pushdown, column→attribute rename, and
    (optionally) materialisation of the annotation column ``__v``."""

    relation: Relation
    with_annot: bool

    def describe(self) -> str:
        ann = "+v" if self.with_annot else ""
        return f"{self.out} <- scan {self.relation.source}{ann}"


@dataclass(frozen=True)
class Project(Step):
    """π_E with ⊕-aggregation of annotations over dropped attributes."""

    src: str
    attrs: tuple[str, ...]
    dedup: bool = True

    def describe(self) -> str:
        kind = "pi" if self.dedup else "sel"
        return f"{self.out} <- {kind}[{','.join(self.attrs)}] {self.src}"


@dataclass(frozen=True)
class Join(Step):
    """Natural join on ``on`` (⊗-combines annotations); cross join if empty."""

    left: str
    right: str
    on: tuple[str, ...]

    def describe(self) -> str:
        return f"{self.out} <- join[{','.join(self.on)}] {self.left} {self.right}"


@dataclass(frozen=True)
class SemiJoin(Step):
    """left ⋉ right on ``on`` — annotations of the right side are irrelevant."""

    left: str
    right: str
    on: tuple[str, ...]

    def describe(self) -> str:
        return f"{self.out} <- semijoin[{','.join(self.on)}] {self.left} {self.right}"


@dataclass(frozen=True)
class Filter(Step):
    """σ over attribute names (used for re-imposed cycle equalities)."""

    src: str
    condition: str

    def describe(self) -> str:
        return f"{self.out} <- filter[{self.condition}] {self.src}"


@dataclass(frozen=True)
class Finalize(Step):
    """Final π_O: ⊕-aggregate to the output schema and name the aggregate.

    ``mode`` is ``agg`` (group-by ⊕), ``distinct`` (boolean semiring) or
    ``full`` (full query — plain select, bag semantics). ``dedup=False``
    skips the group-by when a key makes every group a singleton."""

    src: str
    output: tuple[str, ...]
    mode: str
    alias: str
    dedup: bool = True

    def describe(self) -> str:
        return f"{self.out} <- finalize[{self.mode}:{','.join(self.output)}] {self.src}"


@dataclass
class Plan:
    """Straight-line operator program; ``result`` names the output slot."""

    cq: CQ
    steps: list[Step] = field(default_factory=list)
    result: str = ""
    meta: dict = field(default_factory=dict)

    def of_type(self, t: type) -> list[Step]:
        return [s for s in self.steps if isinstance(s, t)]

    def n_semijoins(self) -> int:
        return len(self.of_type(SemiJoin))

    def n_joins(self) -> int:
        return len(self.of_type(Join))

    def describe(self) -> str:
        """Human-readable listing, used by plan-shape tests."""
        return "\n".join(s.describe() for s in self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)
