"""Query and structure algebra.

Queries compose by shared conjunction (variables with equal names are
identified) and by disjoint conjunction, written here as expression trees:
under counting, a disjoint conjunction multiplies the operands' counts and
a power raises the count to the exponent, so both evaluate in factored
form without ever materializing the combined query.

Databases compose by blow-up and direct product.  For an inequality-free
query with j variables, count(q, blowup(D, k)) = k^j * count(q, D) and
count(q, D1 x D2) = count(q, D1) * count(q, D2); these two identities
drive the inequality-elimination transform at the end of the module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counts import Count
from .homcount import count_homomorphisms
from .relcore import (
    Atom,
    Database,
    Fact,
    Query,
    Schema,
    SchemaMismatchError,
    ValidationError,
    is_var,
)

__all__ = [
    "QueryExpr",
    "Leaf",
    "DisjointAnd",
    "Power",
    "CapExceededError",
    "eval_expr",
    "expr_schema",
    "flatten",
    "conjoin_shared",
    "conjoin_disjoint",
    "blowup",
    "product",
    "power_product",
    "strip_inequalities",
    "inequality_elimination_witness",
]


class CapExceededError(ValidationError):
    """A size- or iteration-capped operation ran past its cap."""


class QueryExpr:
    """Expression over queries: Leaf | DisjointAnd | Power."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(QueryExpr):
    query: Query


@dataclass(frozen=True)
class DisjointAnd(QueryExpr):
    children: tuple[QueryExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        for c in self.children:
            if not isinstance(c, QueryExpr):
                raise ValidationError(f"not a QueryExpr: {c!r}")


@dataclass(frozen=True)
class Power(QueryExpr):
    base: QueryExpr
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.base, QueryExpr):
            raise ValidationError(f"not a QueryExpr: {self.base!r}")
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValidationError(f"exponent must be a natural number, got {self.exponent!r}")


def eval_expr(expr: QueryExpr, d: Database) -> Count:
    """Count of the expression on d, in factored form.

    Disjoint conjuncts multiply and powers exponentiate; only leaves touch
    the counting engine, so astronomical exponents stay symbolic.
    """
    if isinstance(expr, Leaf):
        return Count.of(count_homomorphisms(expr.query, d))
    if isinstance(expr, DisjointAnd):
        out = Count.of(1)
        for c in expr.children:
            out = out * eval_expr(c, d)
            if out.is_zero():
                return out
        return out
    if isinstance(expr, Power):
        if expr.exponent == 0:
            return Count.of(1)
        return eval_expr(expr.base, d) ** expr.exponent
    raise ValidationError(f"unknown expression node {expr!r}")


def _leaves(expr: QueryExpr) -> list[Query]:
    if isinstance(expr, Leaf):
        return [expr.query]
    if isinstance(expr, DisjointAnd):
        out: list[Query] = []
        for c in expr.children:
            out.extend(_leaves(c))
        return out
    if isinstance(expr, Power):
        return _leaves(expr.base)
    raise ValidationError(f"unknown expression node {expr!r}")


def expr_schema(expr: QueryExpr) -> Schema:
    """Merged schema of all leaves; arity conflicts between leaves error."""
    leaves = _leaves(expr)
    if not leaves:
        raise ValidationError("expression has no leaves")
    schema = leaves[0].schema
    for q in leaves[1:]:
        schema = schema.merge(q.schema)
    return schema


def _materialized_vars(expr: QueryExpr) -> int:
    if isinstance(expr, Leaf):
        return len(expr.query.variables)
    if isinstance(expr, DisjointAnd):
        return sum(_materialized_vars(c) for c in expr.children)
    if isinstance(expr, Power):
        return expr.exponent * _materialized_vars(expr.base)
    raise ValidationError(f"unknown expression node {expr!r}")


def _rename_query(q: Query, suffix: str) -> Query:
    ren = {v: v + suffix for v in q.variables}
    atoms = tuple(
        Atom(a.relation, tuple(ren[t] if is_var(t) else t for t in a.args)) for a in q.atoms
    )
    ineqs = tuple(
        tuple(ren[t] if is_var(t) else t for t in pair) for pair in q.inequalities
    )
    return Query(q.schema, atoms, ineqs)


def flatten(expr: QueryExpr, max_variables: int = 10_000) -> Query:
    """Materialize the expression as one flat query.

    Copies after the first of each variable-colliding leaf get a uniform
    fresh suffix from a per-call counter, so output is deterministic.
    Refuses when the materialized variable count would exceed the cap.
    """
    total = _materialized_vars(expr)
    if total > max_variables:
        raise CapExceededError(
            f"flattening needs {total} variables, above the cap of {max_variables}"
        )
    schema = expr_schema(expr)
    avoid = set(schema.constants)
    used: set[str] = set()
    atoms: list[Atom] = []
    ineqs: list[tuple] = []
    counter = 1

    def emit(q: Query) -> None:
        nonlocal counter
        vs = set(q.variables)
        if vs & (used | avoid):
            while True:
                renamed = _rename_query(q, f"·{counter}")
                counter += 1
                if not (set(renamed.variables) & (used | avoid)):
                    q = renamed
                    break
        used.update(q.variables)
        atoms.extend(q.atoms)
        ineqs.extend(q.inequalities)

    def walk(e: QueryExpr) -> None:
        if isinstance(e, Leaf):
            emit(e.query)
        elif isinstance(e, DisjointAnd):
            for c in e.children:
                walk(c)
        elif isinstance(e, Power):
            for _ in range(e.exponent):
                walk(e.base)

    walk(expr)
    return Query(schema, tuple(atoms), tuple(ineqs))


def conjoin_shared(q1: Query, q2: Query) -> Query:
    """Plain conjunction: atom and inequality union, shared variable names
    refer to the same variable."""
    if q1.schema != q2.schema:
        raise SchemaMismatchError("conjunction needs a common schema")
    return Query(q1.schema, q1.atoms + q2.atoms, q1.inequalities + q2.inequalities)


def conjoin_disjoint(q1: Query, q2: Query) -> Query:
    """Disjoint conjunction: q2's variables are renamed apart when they
    collide with q1's, so the count on any database is the product."""
    if q1.schema != q2.schema:
        raise SchemaMismatchError("conjunction needs a common schema")
    avoid = set(q1.variables) | set(q1.schema.constants)
    if set(q2.variables) & avoid:
        i = 1
        while True:
            renamed = _rename_query(q2, f"·{i}")
            if not (set(renamed.variables) & avoid):
                q2 = renamed
                break
            i += 1
    return Query(q1.schema, q1.atoms + q2.atoms, q1.inequalities + q2.inequalities)


def _pair_name(a: str, b: str) -> str:
    """Injective readable pairing of element names, e.g. ("e1", "2") -> "e1.2".

    Dots inside components are percent-escaped, so distinct pairs never
    produce equal names even after nesting, and the result stays a legal
    single token in the database file format.
    """

    def enc(s: str) -> str:
        return s.replace("%", "%25").replace(".", "%2E")

    return f"{enc(a)}.{enc(b)}"


def blowup(d: Database, k: int) -> Database:
    """k copies of every element; a fact holds of copies iff it held of the
    originals.  Constants move to copy 1."""
    if k < 1:
        raise ValidationError(f"blow-up factor must be >= 1, got {k}")
    elements = frozenset(
        _pair_name(s, str(i)) for s in d.elements for i in range(1, k + 1)
    )
    facts = []
    for f in d.facts:
        for copies in _tuples(len(f.elements), k):
            facts.append(
                Fact(f.relation, tuple(_pair_name(s, str(i)) for s, i in zip(f.elements, copies)))
            )
    interp = {c: _pair_name(e, "1") for c, e in d.const_interp.items()}
    return Database(d.schema, elements, frozenset(facts), interp)


def _tuples(r: int, k: int):
    """All r-tuples over 1..k."""
    if r == 0:
        yield ()
        return
    for rest in _tuples(r - 1, k):
        for i in range(1, k + 1):
            yield (i, *rest)


def product(d1: Database, d2: Database) -> Database:
    """Direct product: paired elements, componentwise facts, paired
    constant interpretations (a constant interpreted on one side only is
    left uninterpreted)."""
    if d1.schema != d2.schema:
        raise SchemaMismatchError("product needs a common schema")
    elements = frozenset(
        _pair_name(a, b) for a in d1.elements for b in d2.elements
    )
    facts = []
    by_rel_2: dict[str, tuple[tuple[str, ...], ...]] = dict(d2.facts_by_relation)
    for r, ts1 in d1.facts_by_relation.items():
        for t1 in ts1:
            for t2 in by_rel_2.get(r, ()):
                facts.append(
                    Fact(r, tuple(_pair_name(a, b) for a, b in zip(t1, t2)))
                )
    interp = {
        c: _pair_name(e1, d2.const_interp[c])
        for c, e1 in d1.const_interp.items()
        if c in d2.const_interp
    }
    return Database(d1.schema, elements, frozenset(facts), interp)


def power_product(d: Database, k: int) -> Database:
    """k-fold direct product; k = 1 is d itself, k = 0 is undefined."""
    if k < 1:
        raise ValidationError(f"product power must be >= 1, got {k}")
    out = d
    for _ in range(k - 1):
        out = product(out, d)
    return out


def strip_inequalities(q: Query) -> Query:
    """Same atoms, no inequalities.  Never decreases the count."""
    if not q.inequalities:
        return q
    return Query(q.schema, q.atoms, ())


def inequality_elimination_witness(
    q_s: Query, q_b: Query, d0: Database, max_k: int = 16
) -> Database:
    """Turn a witness for the inequality-free relaxation into one for q_s.

    Given count(strip(q_s), d0) > count(q_b, d0) with q_b inequality-free,
    returns D = blowup(d0^(x k), 2n), n the number of inequalities in q_s,
    where k is the least exponent with

        count(strip(q_s), d0^(x k)) > (2n)^(j+1) * count(q_b, d0^(x k)),

    j = |Var(q_b)|.  On the result, count(q_s, D) > count(q_b, D): at most
    a (2n)-fraction of the relaxed homomorphisms is lost to inequality
    violations, while q_b only gains the (2n)^j blow-up factor.
    """
    if q_b.inequalities:
        raise ValidationError("the lower query must be inequality-free")
    n = len(q_s.inequalities)
    if n == 0:
        return d0
    relaxed = strip_inequalities(q_s)
    if not count_homomorphisms(relaxed, d0) > count_homomorphisms(q_b, d0):
        raise ValidationError(
            "precondition failed: the relaxed count does not exceed the lower count on d0"
        )
    j = len(q_b.variables)
    factor = (2 * n) ** (j + 1)
    for k in range(1, max_k + 1):
        dk = power_product(d0, k)
        if count_homomorphisms(relaxed, dk) > factor * count_homomorphisms(q_b, dk):
            return blowup(dk, 2 * n)
    raise CapExceededError(f"no exponent k <= {max_k} reached the required gap")
