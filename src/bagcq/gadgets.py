"""Multiplication gadgets over cyclic-shift queries.

A pair (q_s, q_b) multiplies by the rational q when some non-trivial
database D has q_s(D) = q * q_b(D) != 0 and every non-trivial database
satisfies q_s(D) <= q * q_b(D).  The pairs built here:

  beta(n):  multiplier (n+1)^2 / 2n, one inequality in q_b;
  gamma(m): multiplier (m-1) / m, inequality-free;
  alpha(c): their disjoint conjunction with n = 2c-1, m = 2c, which
            multiplies by exactly the integer c using a single inequality.

The building block CYCLIQ(x1,...,xn) asserts all n cyclic shifts of its
argument tuple; a tuple whose shifts are all facts is called a cyclique,
and cycliques are classified by the size of their shift-equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

from .relcore import (
    MARS,
    VENUS,
    Atom,
    Const,
    Database,
    Query,
    Schema,
    Term,
    ValidationError,
    canonical_structure,
    union_databases,
)
from .qalgebra import conjoin_disjoint, conjoin_shared

__all__ = [
    "GadgetPair",
    "CycliqueClass",
    "build_cycliq",
    "build_beta",
    "beta_witness",
    "build_gamma",
    "gamma_witness",
    "build_alpha",
    "alpha_witness",
    "classify_cycliques",
    "BETA_RELATION",
    "GAMMA_RELATION",
]

BETA_RELATION = "R_beta"
GAMMA_RELATION = "P_gamma"


@dataclass(frozen=True)
class GadgetPair:
    """A query pair together with its exact multiplier."""

    q_s: Query
    q_b: Query
    multiplier: Fraction
    schema: Schema

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise ValidationError(f"multiplier must be positive, got {self.multiplier}")


Kind = Literal["homogeneous", "degenerate", "normal"]


@dataclass(frozen=True)
class CycliqueClass:
    """One shift-equivalence class of cycliques of a fixed relation."""

    representative: tuple[str, ...]
    members: frozenset[tuple[str, ...]]
    kind: Kind


def _shifts(args: Sequence, n: int) -> list[tuple]:
    return [tuple(args[i:]) + tuple(args[:i]) for i in range(n)]


def build_cycliq(
    arity: int,
    head: Term,
    tail: Sequence[Term],
    relation: str = "R",
    filter_relation: Optional[str] = None,
    schema: Optional[Schema] = None,
) -> Query:
    """All cyclic shifts of (head, *tail) as atoms of one arity-n relation,
    optionally guarded by a unary filter on every argument."""
    if arity < 3:
        raise ValidationError(f"cyclic-shift queries need arity >= 3, got {arity}")
    if len(tail) != arity - 1:
        raise ValidationError(f"expected {arity - 1} tail terms, got {len(tail)}")
    args = (head, *tail)
    if schema is None:
        rels = {relation: arity}
        if filter_relation is not None:
            rels[filter_relation] = 1
        schema = Schema(rels)
    atoms = [Atom(relation, s) for s in _shifts(args, arity)]
    if filter_relation is not None:
        atoms.extend(Atom(filter_relation, (t,)) for t in args)
    return Query(schema, tuple(atoms))


def _beta_queries(n: int, schema: Schema) -> tuple[Query, Query]:
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{i}" for i in range(1, n + 1))
    cyc = lambda head, tail: build_cycliq(n, head, tail, BETA_RELATION, schema=schema)
    free = conjoin_shared(cyc(xs[0], xs[1:]), cyc(ys[0], ys[1:]))
    venus_tail = (Const(VENUS),) * (n - 1)
    ground = conjoin_shared(
        cyc(Const(VENUS), venus_tail), cyc(Const(MARS), venus_tail)
    )
    q_s = conjoin_shared(free, ground)
    q_b = Query(schema, free.atoms, ((xs[0], ys[0]),))
    return q_s, q_b


def build_beta(n: int) -> GadgetPair:
    """Two free cycliques vs. two first-coordinate-distinct cycliques.

    q_s additionally pins a homogeneous and a normal cyclique on the two
    distinguished constants; the pair multiplies by (n+1)^2 / 2n.
    """
    if n < 3:
        raise ValidationError(f"beta needs n >= 3, got {n}")
    schema = Schema({BETA_RELATION: n})
    q_s, q_b = _beta_queries(n, schema)
    return GadgetPair(q_s, q_b, Fraction((n + 1) ** 2, 2 * n), schema)


def beta_witness(n: int) -> Database:
    """Canonical structure of the ground part of beta's q_s: the
    two-element database realizing the (=) condition."""
    if n < 3:
        raise ValidationError(f"beta needs n >= 3, got {n}")
    schema = Schema({BETA_RELATION: n})
    venus_tail = (Const(VENUS),) * (n - 1)
    ground = conjoin_shared(
        build_cycliq(n, Const(VENUS), venus_tail, BETA_RELATION, schema=schema),
        build_cycliq(n, Const(MARS), venus_tail, BETA_RELATION, schema=schema),
    )
    return canonical_structure(ground)


def _gamma_schema(m: int) -> Schema:
    return Schema({GAMMA_RELATION: m, "A": 1, "B": 1})


def _gamma_queries(m: int, schema: Schema) -> tuple[Query, Query]:
    xs = tuple(f"x{i}" for i in range(1, m + 1))
    ys = tuple(f"y{i}" for i in range(1, m + 1))
    venus_tail = (Const(VENUS),) * (m - 1)
    cyc = lambda head, tail, filt: build_cycliq(
        m, head, tail, GAMMA_RELATION, filter_relation=filt, schema=schema
    )
    s_ground = conjoin_shared(
        cyc(Const(MARS), venus_tail, "A"),
        Query(schema, (Atom("B", (Const(MARS),)),)),
    )
    s_free = conjoin_shared(
        cyc(xs[0], xs[1:], "B"), Query(schema, (Atom("A", (xs[0],)),))
    )
    b_free_y = conjoin_shared(
        cyc(ys[0], ys[1:], "A"), Query(schema, (Atom("B", (ys[0],)),))
    )
    b_free_x = cyc(xs[0], xs[1:], "B")
    q_s = conjoin_shared(s_ground, s_free)
    q_b = conjoin_shared(b_free_y, b_free_x)
    return q_s, q_b


def build_gamma(m: int) -> GadgetPair:
    """Filtered-cyclique pair multiplying by (m-1)/m, no inequalities.

    q_s counts B-cycliques whose head carries A (against a ground A-cyclique
    pinned on the constants); q_b counts all B-cycliques paired with
    B-headed A-cycliques.
    """
    if m < 3:
        raise ValidationError(f"gamma needs m >= 3, got {m}")
    schema = _gamma_schema(m)
    q_s, q_b = _gamma_queries(m, schema)
    return GadgetPair(q_s, q_b, Fraction(m - 1, m), schema)


def gamma_witness(m: int) -> Database:
    """Disjoint union: the ground A-cyclique component on the constants,
    plus a free B-cyclique with A everywhere except its last position."""
    if m < 3:
        raise ValidationError(f"gamma needs m >= 3, got {m}")
    schema = _gamma_schema(m)
    venus_tail = (Const(VENUS),) * (m - 1)
    ground = conjoin_shared(
        build_cycliq(m, Const(MARS), venus_tail, GAMMA_RELATION, "A", schema=schema),
        Query(schema, (Atom("B", (Const(MARS),)),)),
    )
    xs = tuple(f"x{i}" for i in range(1, m + 1))
    almost_all_a = tuple(Atom("A", (x,)) for x in xs[:-1])
    free = conjoin_shared(
        build_cycliq(m, xs[0], xs[1:], GAMMA_RELATION, "B", schema=schema),
        Query(schema, almost_all_a),
    )
    return union_databases(canonical_structure(ground), canonical_structure(free))


def build_alpha(c: int) -> GadgetPair:
    """Integer multiplier c from one inequality: beta(2c-1) combined
    disjointly with gamma(2c).  c = 1 is the empty-query pair."""
    if c < 1:
        raise ValidationError(f"alpha needs c >= 1, got {c}")
    if c == 1:
        schema = Schema({})
        empty = Query(schema, ())
        return GadgetPair(empty, empty, Fraction(1), schema)
    n, m = 2 * c - 1, 2 * c
    schema = Schema({BETA_RELATION: n}).merge(_gamma_schema(m))
    beta_s, beta_b = _beta_queries(n, schema)
    gamma_s, gamma_b = _gamma_queries(m, schema)
    q_s = conjoin_disjoint(beta_s, gamma_s)
    q_b = conjoin_disjoint(beta_b, gamma_b)
    return GadgetPair(q_s, q_b, Fraction(c), schema)


def alpha_witness(c: int) -> Database:
    """Union of the beta and gamma witnesses over the merged schema; the
    two share only the distinguished constants."""
    if c < 1:
        raise ValidationError(f"alpha needs c >= 1, got {c}")
    if c == 1:
        schema = Schema({})
        return Database(
            schema,
            frozenset({MARS, VENUS}),
            frozenset(),
            {MARS: MARS, VENUS: VENUS},
        )
    n, m = 2 * c - 1, 2 * c
    schema = Schema({BETA_RELATION: n}).merge(_gamma_schema(m))
    return union_databases(beta_witness(n), gamma_witness(m), schema=schema)


def classify_cycliques(
    d: Database, relation: str, filter_relation: Optional[str] = None
) -> list[CycliqueClass]:
    """Partition the relation's cycliques into shift-equivalence classes.

    A class of size 1 is homogeneous (a constant tuple), of full size n is
    normal, anything between is degenerate and can have size at most n/2.
    Classes come back sorted by their lexicographically least member.
    """
    n = d.schema.arity(relation)
    if n < 3:
        raise ValidationError(f"cyclique classification needs arity >= 3, got {n}")
    facts = set(d.facts_by_relation.get(relation, ()))
    if filter_relation is not None:
        allowed = {t[0] for t in d.facts_by_relation.get(filter_relation, ())}
    else:
        allowed = None
    cycliques = set()
    for t in facts:
        if allowed is not None and not set(t) <= allowed:
            continue
        shifts = _shifts(t, n)
        if all(s in facts for s in shifts):
            cycliques.add(t)
    classes: list[CycliqueClass] = []
    remaining = set(cycliques)
    while remaining:
        t = remaining.pop()
        members = frozenset(_shifts(t, n)) & cycliques
        remaining -= members
        size = len(members)
        kind: Kind = (
            "homogeneous" if size == 1 else "normal" if size == n else "degenerate"
        )
        classes.append(CycliqueClass(min(members), members, kind))
    classes.sort(key=lambda c: c.representative)
    return classes
