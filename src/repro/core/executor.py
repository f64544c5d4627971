"""Lower operator plans to Spark DataFrame DAGs (Catalyst operators).

Every IR step maps 1:1 to standard Catalyst logical operators — Filter,
Project, Aggregate, Join(Inner/Cross), Join(LeftSemi) — mirroring the
paper's claim that Yannakakis+ plans consist solely of standard relational
operators executable by any SQL engine. The whole plan composes lazily, so
Spark executes it as one job; Spark's join reordering (CBO) is off by
default, so the emitted structure is what runs.

Annotation protocol: a DataFrame may carry the annotation column ``__v``;
absence means "all annotations are the ⊗-identity" (annotation pruning,
§5.1). Joins ⊗-combine, aggregating projections ⊕-combine, and a SUM/×
projection over an annotation-free input materialises ``count(*)``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .cq import CQ, Relation
from .plan import Filter, Finalize, Join, Plan, Project, Scan, SemiJoin
from .semiring import Semiring

ANNOT = "__v"


def _plus(sr: Semiring, col):
    return {"sum": F.sum, "max": F.max, "min": F.min}[sr.plus](col)


def _times_identity(sr: Semiring) -> int:
    return 0 if sr.times == "add" else 1


def _plus_of_identities(sr: Semiring):
    """⊕ over rows whose annotations are all the virtual ⊗-identity: a row
    count for SUM/×, else ⊕ of the identity literal."""
    if sr.plus == "sum" and sr.times == "mul":
        return F.count(F.lit(1))
    return _plus(sr, F.lit(_times_identity(sr)))


def scan_df(
    tables: dict[str, DataFrame],
    rel: Relation,
    *,
    with_annot: bool,
    sr: Semiring | None = None,
) -> DataFrame:
    """Predicate pushdown + column→attribute rename (+ annotation; an
    unannotated relation gets the semiring's ⊗-identity)."""
    df = tables[rel.source]
    if rel.predicate:
        df = df.filter(rel.predicate)
    cols = [F.col(c).alias(a) for a, c in zip(rel.attrs, rel.cols)]
    if with_annot:
        identity = _times_identity(sr) if sr is not None else 1
        annot = rel.annot if rel.annot is not None else str(identity)
        cols.append(F.expr(annot).alias(ANNOT))
    return df.select(*cols)


def _project(df: DataFrame, attrs: tuple[str, ...], dedup: bool, sr: Semiring) -> DataFrame:
    has_v = ANNOT in df.columns
    if sr.boolean:
        out = df.select(*attrs)
        return out.distinct() if dedup else out
    if not dedup:
        return df.select(*attrs, *([ANNOT] if has_v else []))
    if has_v:
        agg = _plus(sr, F.col(ANNOT)).alias(ANNOT)
    elif sr.plus == "sum" and sr.times == "mul":
        agg = F.count(F.lit(1)).alias(ANNOT)  # SUM of virtual 1s = count
    else:
        # ⊕ of ⊗-identities is the identity: stay annotation-free
        return df.select(*attrs).distinct()
    return df.groupBy(*attrs).agg(agg) if attrs else df.agg(agg)


def _join(left: DataFrame, right: DataFrame, on: tuple[str, ...], sr: Semiring) -> DataFrame:
    lv, rv = ANNOT in left.columns, ANNOT in right.columns
    if rv and lv:
        right = right.withColumnRenamed(ANNOT, "__v_r")
    out = left.crossJoin(right) if not on else left.join(right, on=list(on), how="inner")
    if lv and rv:
        op = {"mul": "*", "add": "+"}[sr.times]
        out = out.withColumn(ANNOT, F.expr(f"{ANNOT} {op} __v_r")).drop("__v_r")
    return out


def _finalize(df: DataFrame, step: Finalize, sr: Semiring, count_like: bool) -> DataFrame:
    has_v = ANNOT in df.columns
    if step.mode == "distinct":
        return df.select(*step.output).distinct()
    if step.mode == "full":
        if sr.boolean:
            return df.select(*step.output)
        val = F.col(ANNOT) if has_v else F.lit(_times_identity(sr))
        return df.select(*step.output, val.alias(step.alias))
    # mode == "agg"
    if not step.dedup:
        val = F.col(ANNOT) if has_v else F.lit(1)
        return df.select(*step.output, val.alias(step.alias))
    if has_v:
        agg = _plus(sr, F.col(ANNOT))
        if count_like and not step.output:
            # a COUNT(*) query over an empty join is 0, not NULL — the __v
            # column here is a materialised count, so the global ⊕ must
            # degrade the same way count(*) does
            agg = F.coalesce(agg, F.lit(0))
        agg = agg.alias(step.alias)
    else:
        agg = _plus_of_identities(sr).alias(step.alias)
    return df.groupBy(*step.output).agg(agg) if step.output else df.agg(agg)


def execute(plan: Plan, tables: dict[str, DataFrame]) -> DataFrame:
    """Run a plan: returns the (lazy) result DataFrame."""
    sr = plan.cq.semiring
    env: dict[str, DataFrame] = {}
    for s in plan.steps:
        if isinstance(s, Scan):
            env[s.out] = scan_df(tables, s.relation, with_annot=s.with_annot, sr=sr)
        elif isinstance(s, Project):
            env[s.out] = _project(env[s.src], s.attrs, s.dedup, sr)
        elif isinstance(s, Join):
            env[s.out] = _join(env[s.left], env[s.right], s.on, sr)
        elif isinstance(s, SemiJoin):
            env[s.out] = env[s.left].join(env[s.right], on=list(s.on), how="leftsemi")
        elif isinstance(s, Filter):
            env[s.out] = env[s.src].filter(s.condition)
        elif isinstance(s, Finalize):
            count_like = not plan.cq.annotated_relations() and not sr.boolean
            env[s.out] = _finalize(env[s.src], s, sr, count_like)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {s}")
    return env[plan.result]


def native_df(cq: CQ, tables: dict[str, DataFrame]) -> DataFrame:
    """The "native" baseline: one big join in query order followed by the
    final aggregation — exactly the single SQL statement `cq.to_sql()`
    denotes, planned by Spark itself."""
    sr = cq.semiring
    annotated: list[str] = []
    acc: DataFrame | None = None
    acc_attrs: set[str] = set()
    remaining = list(cq.relations)
    while remaining:
        # next relation sharing attrs with what we have (avoid cross joins)
        idx = next(
            (k for k, r in enumerate(remaining) if acc is None or (set(r.attrs) & acc_attrs)),
            0,
        )
        r = remaining.pop(idx)
        keep_annot = r.annot is not None and not sr.boolean
        df = scan_df(tables, r, with_annot=keep_annot, sr=sr)
        if keep_annot:
            vcol = f"__v_{r.name}"
            df = df.withColumnRenamed(ANNOT, vcol)
            annotated.append(vcol)
        if acc is None:
            acc, acc_attrs = df, set(r.attrs)
        else:
            on = sorted(acc_attrs & set(r.attrs))
            acc = acc.crossJoin(df) if not on else acc.join(df, on=on, how="inner")
            acc_attrs |= set(r.attrs)
    assert acc is not None
    for a, b in cq.eq_filters:
        acc = acc.filter(f"{a} = {b}")
    if sr.boolean:
        out = acc.select(*cq.output)
        return out if cq.is_full else out.distinct()
    op = {"mul": "*", "add": "+"}[sr.times]
    prod = F.expr(f" {op} ".join(annotated)) if annotated else None
    if cq.is_full:
        val = prod if prod is not None else F.lit(_times_identity(sr))
        return acc.select(*cq.output, val.alias(cq.alias))
    agg = _plus(sr, prod) if prod is not None else _plus_of_identities(sr)
    agg = agg.alias(cq.alias)
    return acc.groupBy(*cq.output).agg(agg) if cq.output else acc.agg(agg)
