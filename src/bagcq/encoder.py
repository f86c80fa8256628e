"""Compile a normalized polynomial instance into a query triple.

The output (c, phi_s, phi_b) has the property that the polynomial has a
natural root iff some non-trivial database D satisfies
c * phi_s(D) > phi_b(D).  The parts:

  Arena    ground query pinning a fixed gadget database on constants:
           per-monomial elements a_m with loops of every S_m, position
           edges R_d(a_m, b_n) for the variable n sitting at position d
           of monomial m, an anchor element a, and an E-cycle through
           all constants plus an E-loop on mars.
  pi_s/pi_b  star queries around a center x; on a correct database their
           counts evaluate the two polynomials at the valuation read off
           the X-edges: pi_s(D) = P_s(v) and pi_b(D) = v(1)^deg * P_b(v).
           Each S_m-ray is a path of (coefficient - 1) edges hanging off
           the loop atom, so the ray contributes a factor of exactly the
           coefficient; pi_b adds deg extra rays through R_1.
  zeta_b   k-th powers of single-edge queries, one per S/R relation,
           calibrated so any extra S/R fact inflates the count past c.
  delta_b  E-cycles of every length in L = {1..l-1, l+1}, raised to c;
           they stay at 1 exactly when the E-structure is the intended
           loop-plus-l-cycle and explode when constants collapse.

phi_s = Arena dand pi_s stays small and flattenable; phi_b and its huge
exponents are only ever evaluated in factored form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from .counts import Count
from .homcount import count_homomorphisms
from .polyreduce import HilbertInstance, validate_instance
from .qalgebra import DisjointAnd, Leaf, Power, QueryExpr, eval_expr
from .relcore import (
    MARS,
    VENUS,
    Atom,
    Const,
    Database,
    Fact,
    Query,
    Schema,
    SchemaMismatchError,
    UninterpretedConstantError,
    ValidationError,
    canonical_structure,
)

__all__ = [
    "EncoderOutput",
    "DbClassification",
    "NotArenaModelError",
    "instance_schema",
    "build_pi",
    "build_arena",
    "build_zeta",
    "build_delta",
    "assemble",
    "build_correct_database",
    "extract_valuation",
    "classify_database",
]


# A Power exponent is materialized as a plain int of at most this many bits.
MAX_EXPONENT_BITS = 1 << 20


class NotArenaModelError(ValidationError):
    """The database does not embed the arena, so the operation is undefined."""


class DbClassification(enum.Enum):
    NOT_MODEL = "not_model"
    CORRECT = "correct"
    SLIGHTLY_INCORRECT = "slightly_incorrect"
    SERIOUSLY_INCORRECT = "seriously_incorrect"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EncoderOutput:
    """The compiled triple plus every intermediate a verifier wants."""

    c: Count
    phi_s: QueryExpr
    phi_b: QueryExpr
    arena_query: Query
    arena_db: Database
    pi_s: Query
    pi_b: Query
    k: int
    c1: Count
    cycle_len: int
    cycle_lengths: frozenset[int]
    atoms_per_relation: Mapping[str, int]
    instance: HilbertInstance


def _require_valid(inst: HilbertInstance) -> None:
    violations = validate_instance(inst)
    if violations:
        raise ValidationError("invalid instance: " + "; ".join(violations))


def instance_schema(inst: HilbertInstance) -> Schema:
    """Binary relations S_m, R_d, E, X; constants a, a_m, b_n."""
    rels = {"E": 2, "X": 2}
    for m in range(1, inst.m_count + 1):
        rels[f"S{m}"] = 2
    for d in range(1, inst.degree + 1):
        rels[f"R{d}"] = 2
    consts = ["a"]
    consts += [f"a{m}" for m in range(1, inst.m_count + 1)]
    consts += [f"b{n}" for n in range(1, inst.n_count + 1)]
    return Schema(rels, tuple(consts))


def build_pi(inst: HilbertInstance) -> tuple[Query, Query]:
    """The two star queries around the shared center x.

    For each monomial index m, an S_m loop on x plus a ray: a path of
    (coefficient - 1) fresh S_m edges leaving x, so that mapping x onto
    the monomial element a_m admits exactly `coefficient` homomorphisms
    of the ray (the path either loops at a_m throughout or switches once
    to the anchor's loop).  For each position d, a ray R_d(x, y_d) with
    an X-edge hanging off y_d; the bigger query repeats the position-1
    ray variant deg more times.
    """
    _require_valid(inst)
    schema = instance_schema(inst)

    def star(coeffs: list[int], primed: bool) -> Query:
        atoms: list[Atom] = []
        for m, c in enumerate(coeffs, 1):
            rel = f"S{m}"
            atoms.append(Atom(rel, ("x", "x")))
            if c >= 2:
                ray = [f"x{m}_{i}" for i in range(1, c)]
                atoms.append(Atom(rel, ("x", ray[-1])))
                for i in range(len(ray) - 1, 0, -1):
                    atoms.append(Atom(rel, (ray[i], ray[i - 1])))
        for d in range(1, inst.degree + 1):
            atoms.append(Atom(f"R{d}", ("x", f"y{d}")))
            atoms.append(Atom("X", (f"y{d}", f"z{d}")))
        if primed:
            for d in range(1, inst.degree + 1):
                atoms.append(Atom("R1", ("x", f"yp{d}")))
                atoms.append(Atom("X", (f"yp{d}", f"zp{d}")))
        return Query(schema, tuple(atoms))

    c_s = [c for c, _ in inst.p_s.terms]
    c_b = [c for c, _ in inst.p_b.terms]
    return star(c_s, primed=False), star(c_b, primed=True)


def _cycle_nodes(inst: HilbertInstance) -> list[str]:
    nodes = [VENUS, "a"]
    nodes += [f"a{m}" for m in range(1, inst.m_count + 1)]
    nodes += [f"b{n}" for n in range(1, inst.n_count + 1)]
    return nodes


def build_arena(inst: HilbertInstance) -> tuple[Query, Database]:
    """The ground arena query and its canonical structure."""
    _require_valid(inst)
    schema = instance_schema(inst)
    atoms: list[Atom] = []
    triples = sorted(inst.position_rel, key=lambda t: (t[1], t[2]))
    for n, d, m in triples:
        atoms.append(Atom(f"R{d}", (Const(f"a{m}"), Const(f"b{n}"))))
    for m_prime in range(1, inst.m_count + 1):
        for m in range(1, inst.m_count + 1):
            atoms.append(Atom(f"S{m_prime}", (Const(f"a{m}"), Const(f"a{m}"))))
    for m in range(1, inst.m_count + 1):
        atoms.append(Atom(f"S{m}", (Const(f"a{m}"), Const("a"))))
        atoms.append(Atom(f"S{m}", (Const("a"), Const("a"))))
    atoms.append(Atom("E", (Const(MARS), Const(MARS))))
    nodes = _cycle_nodes(inst)
    for i, src in enumerate(nodes):
        dst = nodes[(i + 1) % len(nodes)]
        atoms.append(Atom("E", (Const(src), Const(dst))))
    query = Query(schema, tuple(atoms))
    return query, canonical_structure(query)


def build_zeta(inst: HilbertInstance, arena_db: Database) -> tuple[QueryExpr, int, Count]:
    """Single-edge powers over the S/R vocabulary.

    k is the least natural with (j+1)^k >= c * j^k, j the largest S/R
    fact count of the arena; then any database whose S/R facts strictly
    contain the arena's multiplies the k-th-power count by at least
    ((j+1)/j)^k >= c.  Returns (zeta_b, k, its arena count).
    """
    _require_valid(inst)
    schema = instance_schema(inst)
    vocab = [f"S{m}" for m in range(1, inst.m_count + 1)]
    vocab += [f"R{d}" for d in range(1, inst.degree + 1)]
    by_rel = dict(arena_db.facts_by_relation)
    j = max(len(by_rel.get(rel, ())) for rel in vocab)
    c_frak = inst.c_frak
    k = 1
    while (j + 1) ** k < c_frak * j**k:
        k += 1
    parts = tuple(
        Power(Leaf(Query(schema, (Atom(rel, ("w", "v")),))), k) for rel in vocab
    )
    zeta = DisjointAnd(parts)
    return zeta, k, eval_expr(zeta, arena_db)


def build_delta(inst: HilbertInstance, c: Count) -> QueryExpr:
    """E-cycles of every length in {1..l-1, l+1}, raised to the c-th power.

    The exponent is astronomically large, so it stays symbolic: the node
    is evaluated in factored form only.
    """
    _require_valid(inst)
    schema = instance_schema(inst)
    l_len = inst.m_count + inst.n_count + 2
    lengths = sorted(set(range(1, l_len)) | {l_len + 1})
    cycles = []
    for l in lengths:
        zs = [f"z{i}" for i in range(1, l + 1)]
        atoms = tuple(Atom("E", (zs[i], zs[(i + 1) % l])) for i in range(l))
        cycles.append(Leaf(Query(schema, atoms)))
    # The exponent is a few thousand bits at worst; only counts of the form
    # base^c are kept factored, the integer c itself is materializable.
    exponent = c.value(max_bits=MAX_EXPONENT_BITS)
    return Power(DisjointAnd(tuple(cycles)), exponent)


def assemble(inst: HilbertInstance) -> EncoderOutput:
    """Wire every part into the output triple (c, phi_s, phi_b)."""
    _require_valid(inst)
    pi_s, pi_b = build_pi(inst)
    arena_query, arena_db = build_arena(inst)
    zeta, k, c1 = build_zeta(inst, arena_db)
    c = Count.of(inst.c_frak) * c1
    delta = build_delta(inst, c)
    l_len = inst.m_count + inst.n_count + 2
    by_rel = dict(arena_db.facts_by_relation)
    return EncoderOutput(
        c=c,
        phi_s=DisjointAnd((Leaf(arena_query), Leaf(pi_s))),
        phi_b=DisjointAnd((Leaf(pi_b), zeta, delta)),
        arena_query=arena_query,
        arena_db=arena_db,
        pi_s=pi_s,
        pi_b=pi_b,
        k=k,
        c1=c1,
        cycle_len=l_len,
        cycle_lengths=frozenset(set(range(1, l_len)) | {l_len + 1}),
        atoms_per_relation={rel: len(ts) for rel, ts in by_rel.items()},
        instance=inst,
    )


def _check_valuation(inst: HilbertInstance, v: Mapping[int, int]) -> None:
    for n in range(1, inst.n_count + 1):
        if n not in v:
            raise ValidationError(f"valuation misses variable {n}")
        if not isinstance(v[n], int) or v[n] < 0:
            raise ValidationError(f"valuation must be natural, got {n} -> {v[n]!r}")


def build_correct_database(inst: HilbertInstance, v: Mapping[int, int]) -> Database:
    """The arena plus v(n) fresh X-successors of each b_n."""
    _require_valid(inst)
    _check_valuation(inst, v)
    _, arena_db = build_arena(inst)
    elements = set(arena_db.elements)
    facts = set(arena_db.facts)
    for n in range(1, inst.n_count + 1):
        for i in range(1, v[n] + 1):
            e = f"e{n}_{i}"
            elements.add(e)
            facts.add(Fact("X", (f"b{n}", e)))
    return Database(
        arena_db.schema, frozenset(elements), frozenset(facts), dict(arena_db.const_interp)
    )


def _models_arena(d: Database, arena_query: Query) -> bool:
    try:
        return count_homomorphisms(arena_query, d) > 0
    except (UninterpretedConstantError, SchemaMismatchError):
        return False


def extract_valuation(d: Database, inst: HilbertInstance) -> dict[int, int]:
    """v(n) = number of distinct X-successors of b_n's interpretation."""
    arena_query, _ = build_arena(inst)
    if not _models_arena(d, arena_query):
        raise NotArenaModelError("the database does not embed the arena")
    successors: dict[str, set[str]] = {}
    for t in d.facts_by_relation.get("X", ()):
        successors.setdefault(t[0], set()).add(t[1])
    return {
        n: len(successors.get(d.const_interp[f"b{n}"], ()))
        for n in range(1, inst.n_count + 1)
    }


def classify_database(d: Database, inst: HilbertInstance) -> DbClassification:
    """Definition of the four-way split.

    A database that embeds the arena is correct when its constants are
    pairwise distinct and its non-X facts are exactly the embedded arena
    facts; extra non-X facts make it slightly incorrect; collapsed
    constants make it seriously incorrect.
    """
    arena_query, arena_db = build_arena(inst)
    if not _models_arena(d, arena_query):
        return DbClassification.NOT_MODEL
    names = arena_db.schema.constants
    interp = d.const_interp
    if len({interp[c] for c in names}) != len(names):
        return DbClassification.SERIOUSLY_INCORRECT
    image = {
        Fact(f.relation, tuple(interp[e] for e in f.elements)) for f in arena_db.facts
    }
    sigma0 = {f for f in d.facts if f.relation != "X"}
    if sigma0 == image:
        return DbClassification.CORRECT
    return DbClassification.SLIGHTLY_INCORRECT
