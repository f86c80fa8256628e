"""The compiled triple for the two-variable linear polynomial is small
enough to check against hand-computed values end to end."""

import itertools

import pytest

from bagcq import (
    Count,
    Database,
    DbClassification,
    Fact,
    NotArenaModelError,
    Polynomial,
    assemble,
    build_correct_database,
    classify_database,
    compare_counts,
    count_homomorphisms,
    eval_expr,
    eval_poly,
    extract_valuation,
    instance_schema,
    is_nontrivial,
    map_elements,
    normalize_hilbert,
)
from bagcq.harness.suites import builtin_polynomials

TINY = Polynomial(2, ((1, (2,)), (-1, ())))


@pytest.fixture(scope="module")
def inst():
    return normalize_hilbert(TINY)


@pytest.fixture(scope="module")
def out(inst):
    return assemble(inst)


def test_schema_layout(inst):
    s = instance_schema(inst)
    rels = dict(s.relations)
    assert rels == {"E": 2, "X": 2, "S1": 2, "S2": 2, "S3": 2, "R1": 2, "R2": 2, "R3": 2}
    assert set(s.constants) == {"mars", "venus", "a", "a1", "a2", "a3", "b1", "b2"}


def test_frozen_constants(out):
    assert out.k == 7
    assert out.c1 == Count(((3, 21), (5, 21)))
    assert out.c == Count(((3, 22), (5, 21)))
    assert out.cycle_len == 7
    assert out.cycle_lengths == frozenset({1, 2, 3, 4, 5, 6, 8})
    # j, the scale's fact bound, is the S/R maximum; E sits outside it
    sr = {r: n for r, n in out.atoms_per_relation.items() if r[0] in "SR"}
    assert max(sr.values()) == 5
    assert out.atoms_per_relation["E"] == 8


def test_star_shapes(out):
    assert len(out.pi_s.atoms) == 12
    assert len(out.pi_s.variables) == 10
    assert len(out.pi_b.atoms) == 27
    assert len(out.pi_b.variables) == 25


def test_arena_is_nontrivial_and_counts_once(out):
    assert is_nontrivial(out.arena_db)
    assert count_homomorphisms(out.arena_query, out.arena_db) == 1
    e_facts = [f for f in out.arena_db.facts if f.relation == "E"]
    assert len(e_facts) == out.cycle_len + 1


def test_star_counts_match_the_polynomials(inst, out):
    for v in ({1: 1, 2: 2}, {1: 2, 2: 3}, {1: 0, 2: 5}):
        d = build_correct_database(inst, v)
        assert count_homomorphisms(out.pi_s, d) == eval_poly(inst.p_s, v)
        assert count_homomorphisms(out.pi_b, d) == v[1] ** inst.degree * eval_poly(
            inst.p_b, v
        )


@pytest.mark.parametrize("name", sorted(builtin_polynomials()))
def test_star_counts_match_every_builtin_polynomial_on_the_box(name):
    # xy-6's pi_b has 538 variables; it counts only because its tree shape
    # is summed out before the search
    inst = normalize_hilbert(builtin_polynomials()[name])
    out = assemble(inst)
    for values in itertools.product(range(3), repeat=inst.n_count):
        v = dict(zip(range(1, inst.n_count + 1), values))
        d = build_correct_database(inst, v)
        assert count_homomorphisms(out.pi_s, d) == eval_poly(inst.p_s, v)
        assert count_homomorphisms(out.pi_b, d) == v[1] ** inst.degree * eval_poly(
            inst.p_b, v
        )


def test_correct_databases_classify_and_roundtrip(inst, out):
    for v in ({1: 0, 2: 0}, {1: 1, 2: 1}, {1: 3, 2: 2}):
        d = build_correct_database(inst, v)
        assert classify_database(d, inst) is DbClassification.CORRECT
        assert extract_valuation(d, inst) == v
    assert classify_database(out.arena_db, inst) is DbClassification.CORRECT
    assert extract_valuation(out.arena_db, inst) == {1: 0, 2: 0}


def test_extra_fact_makes_slightly_incorrect_and_lifts_the_scale(inst, out):
    d = build_correct_database(inst, {1: 1, 2: 1})
    bigger = Database(
        d.schema,
        d.elements,
        d.facts | {Fact("S1", (d.const_interp["a"], d.const_interp["a1"]))},
        dict(d.const_interp),
    )
    assert classify_database(bigger, inst) is DbClassification.SLIGHTLY_INCORRECT
    zeta = out.phi_b.children[1]
    got = eval_expr(zeta, bigger)
    assert got == Count(((2, 7), (3, 28), (5, 14)))
    assert compare_counts(got, out.c) == "greater"


def test_aliasing_makes_seriously_incorrect_and_frees_the_cycles(inst, out):
    d = build_correct_database(inst, {1: 1, 2: 1})
    merged = map_elements(d, {d.const_interp["b2"]: d.const_interp["b1"]})
    assert classify_database(merged, inst) is DbClassification.SERIOUSLY_INCORRECT
    delta = out.phi_b.children[2]
    base = eval_expr(delta.base, merged)
    assert base == Count(((2, 9), (5, 1)))
    two_to_c = Count.of(2).pow(out.c.value(max_bits=1 << 20))
    assert compare_counts(eval_expr(delta, merged), two_to_c) in ("greater", "equal")


def test_unrelated_database_is_not_a_model(inst):
    schema = instance_schema(inst)
    d = Database(schema, frozenset({"e1", "e2"}), frozenset(), {"mars": "e1", "venus": "e2"})
    assert classify_database(d, inst) is DbClassification.NOT_MODEL
    with pytest.raises(NotArenaModelError):
        extract_valuation(d, inst)


def test_trivial_or_foreign_schemas_classify_as_not_model(inst):
    from bagcq import Schema

    foreign = Database(
        Schema({"E": 3}),
        frozenset({"e1", "e2"}),
        frozenset(),
        {"mars": "e1", "venus": "e2"},
    )
    assert classify_database(foreign, inst) is DbClassification.NOT_MODEL


def test_triple_comparison_at_the_root(inst, out):
    d = build_correct_database(inst, {1: 1, 2: 1})
    lhs = out.c * eval_expr(out.phi_s, d)
    rhs = eval_expr(out.phi_b, d)
    # 18 * c1 against 15 * c1
    assert lhs == Count.of(18) * out.c1
    assert rhs == Count.of(15) * out.c1
    assert compare_counts(lhs, rhs) == "greater"


def test_triple_comparison_away_from_first_coordinate_one(inst, out):
    d = build_correct_database(inst, {1: 2, 2: 1})
    lhs = out.c * eval_expr(out.phi_s, d)
    rhs = eval_expr(out.phi_b, d)
    assert compare_counts(lhs, rhs) == "less"


def test_rootless_polynomial_never_beats_the_bound(out):
    inst2 = normalize_hilbert(Polynomial(2, ((1, (2, 2)), (1, ()))))
    out2 = assemble(inst2)
    for x in range(4):
        d = build_correct_database(inst2, {1: 1, 2: x})
        lhs = out2.c * eval_expr(out2.phi_s, d)
        rhs = eval_expr(out2.phi_b, d)
        assert compare_counts(lhs, rhs) != "greater"
