import pytest

from bagcq import (
    Atom,
    Const,
    Database,
    Fact,
    Query,
    Schema,
    SchemaMismatchError,
    UninterpretedConstantError,
    count_homomorphisms,
    exists_onto_homomorphism,
)
from bagcq.harness.generators import derive_seed, random_database, random_query
from bagcq.harness.suites import count_by_enumeration

S = Schema({"E": 2, "U": 1})


def db(facts, elements=None, interp=None):
    els = set(elements or [])
    for f in facts:
        els.update(f.elements)
    return Database(S, frozenset(els), frozenset(facts), interp or {})


TRIANGLE = db([Fact("E", (a, b)) for a, b in (("1", "2"), ("2", "3"), ("3", "1"))])


def test_atomless_query_counts_all_assignments():
    q = Query(S, (), ())
    assert count_homomorphisms(q, TRIANGLE) == 1
    q2 = Query(S, (Atom("E", ("x", "y")), Atom("U", ("z",))), ())
    d = db([Fact("E", ("1", "2")), Fact("U", ("1",)), Fact("U", ("3",))])
    assert count_homomorphisms(q2, d) == 2


def test_edge_and_loop_counts():
    edge = Query(S, (Atom("E", ("x", "y")),))
    loop = Query(S, (Atom("E", ("x", "x")),))
    assert count_homomorphisms(edge, TRIANGLE) == 3
    assert count_homomorphisms(loop, TRIANGLE) == 0
    with_loop = db(list(TRIANGLE.facts) + [Fact("E", ("1", "1"))])
    assert count_homomorphisms(loop, with_loop) == 1


def test_directed_three_cycle_on_triangle():
    q = Query(
        S,
        (Atom("E", ("x", "y")), Atom("E", ("y", "z")), Atom("E", ("z", "x"))),
    )
    assert count_homomorphisms(q, TRIANGLE) == 3


def test_inequality_constrains_the_count():
    q = Query(S, (Atom("E", ("x", "y")),), (("x", "y"),))
    d = db([Fact("E", ("1", "1")), Fact("E", ("1", "2"))])
    assert count_homomorphisms(q, d) == 1


def test_constants_resolve_through_the_interpretation():
    q = Query(S, (Atom("E", (Const("mars"), "x")),))
    d = db(
        [Fact("E", ("1", "2")), Fact("E", ("1", "3")), Fact("E", ("2", "3"))],
        interp={"mars": "1", "venus": "2"},
    )
    assert count_homomorphisms(q, d) == 2
    with pytest.raises(UninterpretedConstantError):
        count_homomorphisms(q, db([Fact("E", ("1", "2"))]))


def test_schema_mismatch_is_reported():
    other = Schema({"F": 2})
    q = Query(other, (Atom("F", ("x", "y")),))
    with pytest.raises(SchemaMismatchError):
        count_homomorphisms(q, TRIANGLE)


def test_ground_query_is_zero_or_one():
    q = Query(S, (Atom("E", (Const("mars"), Const("venus"))),))
    d = db([Fact("E", ("1", "2"))], interp={"mars": "1", "venus": "2"})
    assert count_homomorphisms(q, d) == 1
    d2 = db([Fact("E", ("2", "1"))], interp={"mars": "1", "venus": "2"})
    assert count_homomorphisms(q, d2) == 0


def test_variables_used_only_in_inequalities_range_freely():
    # x and y form an atom-free component tied by one inequality, so they
    # contribute n*(n-1) over a 3-element domain
    q = Query(S, (Atom("E", ("a", "b")),), (("x", "y"),))
    d = db([Fact("E", ("1", "2"))], elements={"1", "2", "3"})
    assert count_homomorphisms(q, d) == 1 * 3 * 2


def test_enumeration_matches_count_on_random_instances():
    for trial in range(150):
        s = derive_seed(11, trial)
        d = random_database(S, 2 + trial % 3, 0.4, s)
        q = random_query(S, 3, 3, s + 1, allow_constants=trial % 2 == 0)
        assert count_by_enumeration(q, d) == count_homomorphisms(q, d)


def test_engine_matches_naive_oracle_on_random_instances():
    for trial in range(400):
        s = derive_seed(23, trial)
        d = random_database(S, 2 + trial % 3, 0.2 + 0.5 * (trial % 7) / 7, s)
        q = random_query(S, 4, 4, s + 1, allow_constants=trial % 3 == 0)
        assert count_homomorphisms(q, d) == count_by_enumeration(q, d)


def test_onto_homomorphism_found_and_refused():
    q_big = Query(S, (Atom("E", ("a", "b")), Atom("E", ("b", "c"))))
    q_small = Query(S, (Atom("E", ("x", "y")), Atom("E", ("y", "x"))))
    h = exists_onto_homomorphism(q_big, q_small)
    assert h is not None
    assert set(h.values()) >= {"x", "y"}
    for a in q_big.atoms:
        assert Fact(a.relation, tuple(h[t] for t in a.args)) in {
            Fact(x.relation, x.args) for x in q_small.atoms
        }
    # no onto map exists from the short path onto the long one
    assert exists_onto_homomorphism(q_small, q_big) is None
