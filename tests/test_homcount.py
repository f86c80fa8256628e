import itertools
import random
import time

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
from bagcq.gadgets import (
    alpha_witness,
    beta_witness,
    build_alpha,
    build_beta,
    build_gamma,
    gamma_witness,
)
from bagcq.harness.generators import derive_seed, random_database, random_query
from bagcq.harness.suites import count_by_enumeration
from bagcq.homcount import _compile, _FactIndex, _peel

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


# N is declared but never has facts
FOREST = Schema({"E": 2, "U": 1, "N": 2})


def _forest_plus_core(rng: random.Random) -> tuple[Query, Database, set[str]]:
    """A core of 1-3 variables with chains of 1-4 edges hanging off it, at
    most 7 variables in all, on 2-3 elements; also the shapes it drew."""
    els = [str(i) for i in range(rng.choice((2, 2, 3)))]
    facts = [Fact("E", t) for t in itertools.product(els, repeat=2) if rng.random() < 0.6]
    facts += [Fact("U", (e,)) for e in els if rng.random() < 0.6]
    interp = {"mars": rng.choice(els), "venus": rng.choice(els)}
    d = Database(FOREST, frozenset(els), frozenset(facts), interp)
    core = [f"c{i}" for i in range(rng.randint(1, 3))]
    atoms = [Atom("E", (core[i], core[(i + 1) % len(core)])) for i in range(len(core))]
    variables, neqs, shapes, anchors = list(core), [], set(), []
    while len(variables) < 7 and rng.random() < 0.75:
        prev = anchor = rng.choice(variables)
        anchors.append(anchor)
        length = rng.randint(1, min(4, 7 - len(variables)))
        shapes.add(f"chain-{length}")
        for _ in range(length):
            v = f"t{len(variables)}"
            variables.append(v)
            pair = (prev, v) if rng.random() < 0.5 else (v, prev)
            atoms.append(Atom("E", pair))
            if rng.random() < 0.2:
                atoms.append(Atom("E", pair[::-1]))
                shapes.add("both-directions")
            prev = v
        for shape, p, atom in (
            ("leaf-loop", 0.2, Atom("E", (prev, prev))),
            ("leaf-unary", 0.3, Atom("U", (prev,))),
            ("ray-to-constant", 0.2, Atom("E", (prev, Const("mars")))),
            ("factless-relation", 0.05, Atom("N", (prev, prev))),
        ):
            if rng.random() < p:
                atoms.append(atom)
                shapes.add(shape)
        if rng.random() < 0.2:
            neqs.append((anchor, rng.choice([Const("venus")] + core)))
            shapes.add("neighbour-in-inequality")
    if len(anchors) > len(set(anchors)):
        shapes.add("several-rays")
    if len(variables) < 7 and rng.random() < 0.2:
        neqs.append(("w", rng.choice(variables)))
        shapes.add("inequality-only-variable")
    return Query(FOREST, tuple(atoms), tuple(neqs)), d, shapes


def test_peeling_matches_enumeration_on_forest_plus_core_queries():
    seen: set[str] = set()
    nonzero = 0
    for trial in range(500):
        q, d, shapes = _forest_plus_core(random.Random(derive_seed(31, trial)))
        seen |= shapes
        n = count_homomorphisms(q, d)
        assert n == count_by_enumeration(q, d), (trial, q, d)
        nonzero += n > 0
    assert nonzero > 100
    assert seen >= {
        "chain-1", "chain-2", "chain-3", "chain-4", "several-rays", "both-directions",
        "leaf-loop", "leaf-unary", "ray-to-constant", "factless-relation",
        "neighbour-in-inequality", "inequality-only-variable",
    }


@pytest.mark.parametrize(
    "pair, witness",
    [
        (build_beta(3), beta_witness(3)),
        (build_beta(5), beta_witness(5)),
        (build_gamma(4), gamma_witness(4)),
        (build_gamma(6), gamma_witness(6)),
        (build_alpha(2), alpha_witness(2)),
        (build_alpha(3), alpha_witness(3)),
    ],
)
def test_gadget_queries_have_nothing_to_peel(pair, witness):
    # every gadget variable shares an atom with two or more others, so the
    # gadget traffic goes straight to the search; peeling any of it would
    # change what that traffic costs
    for q in (pair.q_s, pair.q_b):
        patterns, neqs = _compile(q, witness)
        scalar, weights, core, left = _peel(patterns, neqs, _FactIndex(witness))
        assert (scalar, weights, core, left) == (1, {}, frozenset(q.variables), patterns)


def _path(names: list[str]) -> Query:
    return Query(S, tuple(Atom("E", (a, b)) for a, b in zip(names, names[1:])))


def _namings(n: int) -> list[list[str]]:
    shuffled = [f"v{i}" for i in range(n + 1)]
    random.Random(5).shuffle(shuffled)
    return [[f"v{i}" for i in range(n + 1)], [f"v{i:05d}" for i in range(n + 1)], shuffled]


def test_deep_paths_count_walks_under_every_naming():
    # walks of length n over E = {aa, ab, ba} are the entries of M^n summed,
    # M = [[1, 1], [1, 0]]
    def mul(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]

    n = 3000
    m, p, k = [[1, 1], [1, 0]], [[1, 0], [0, 1]], n
    while k:
        if k & 1:
            p = mul(p, m)
        m, k = mul(m, m), k >> 1
    walks = sum(map(sum, p))
    d = db([Fact("E", t) for t in (("a", "a"), ("a", "b"), ("b", "a"))])
    for names in _namings(n):
        start = time.perf_counter()
        assert count_homomorphisms(_path(names), d) == walks
        assert time.perf_counter() - start < 1.0
    loop = db([Fact("E", ("a", "a"))])
    for names in _namings(400):
        start = time.perf_counter()
        assert count_homomorphisms(_path(names), loop) == 1
        assert time.perf_counter() - start < 0.1
