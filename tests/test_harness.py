import pytest

from bagcq import (
    Atom,
    Count,
    Database,
    Leaf,
    Query,
    Schema,
    ValidationError,
    alpha_witness,
    beta_witness,
    build_alpha,
    build_beta,
    compare_counts,
)
from bagcq.harness.search import Claim, check_claim
from bagcq.harness.generators import derive_seed, random_database, random_query
from bagcq.harness.search import SearchConfig, search_counterexample
from bagcq.harness.suites import SUITES, count_by_enumeration, run_suite

S = Schema({"R": 2, "U": 1})


def test_derive_seed_is_injective_enough():
    seen = {derive_seed(s, t) for s in range(20) for t in range(50)}
    assert len(seen) == 20 * 50


def test_random_database_is_reproducible():
    a = random_database(S, 3, 0.5, 42)
    b = random_database(S, 3, 0.5, 42)
    assert a == b
    c = random_database(S, 3, 0.5, 43)
    assert a != c  # overwhelmingly likely by construction of the seed


def test_random_database_pins_the_distinguished_pair():
    d = random_database(S, 2, 0.5, 7)
    assert d.const_interp == {"mars": "e1", "venus": "e2"}
    with pytest.raises(ValidationError):
        random_database(S, 1, 0.5, 7)
    bare = random_database(S, 1, 0.5, 7, nontrivial=False)
    assert bare.const_interp == {}


def test_random_database_validates_density():
    with pytest.raises(ValidationError):
        random_database(S, 2, 1.5, 0)


def test_random_query_is_reproducible_and_well_formed():
    q1 = random_query(S, 3, 4, 99, allow_constants=True)
    q2 = random_query(S, 3, 4, 99, allow_constants=True)
    assert q1 == q2
    assert q1.schema == S
    assert len(q1.atoms) <= 4


def test_count_by_enumeration_is_independent_of_the_engine():
    q = Query(S, (Atom("R", ("x", "y")),), (("x", "y"),))
    d = random_database(S, 3, 0.6, 5)
    brute = 0
    for x in sorted(d.elements):
        for y in sorted(d.elements):
            if x != y and ("R", (x, y)) in {(f.relation, f.elements) for f in d.facts}:
                brute += 1
    assert count_by_enumeration(q, d) == brute


def test_every_suite_passes_a_quick_run():
    quick = {
        "oracle": 80, "beta": 40, "gamma": 40, "alpha": 20, "disjoint-and": 30,
        "power": 15, "blowup": 30, "product": 30, "star-onto": 40,
        "star-eval": None, "scale-floor": 10, "cycle-guard": None,
        "end-to-end": None, "normalization": None, "strip": 25,
        "cycliques": 40, "roundtrip": 8,
    }
    assert set(quick) == set(SUITES)
    for name in SUITES:
        report = run_suite(name, trials=quick[name], seed=3)
        assert report.ok, f"{name}: {[f.message for f in report.failures[:3]]}"
        assert report.wall_time >= 0
        assert report.suite == name


def test_run_suite_rejects_unknown_names():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_search_finds_a_misdeclared_multiplier():
    pair = build_alpha(2)
    d = search_counterexample(
        Count.of(3),
        Leaf(pair.q_s),
        Leaf(pair.q_b),
        SearchConfig(trials=4000, seed=1),
    )
    assert d is not None
    # the shrunken witness still violates and cannot lose any single fact
    from bagcq import count_homomorphisms, is_nontrivial

    assert is_nontrivial(d)
    assert 3 * count_homomorphisms(pair.q_s, d) > count_homomorphisms(pair.q_b, d)
    from bagcq import Database

    for f in d.facts:
        smaller = Database(d.schema, d.elements, d.facts - {f}, dict(d.const_interp))
        still = 3 * count_homomorphisms(pair.q_s, smaller) > count_homomorphisms(
            pair.q_b, smaller
        )
        assert not (still and is_nontrivial(smaller))


def test_search_stays_quiet_at_the_true_multiplier():
    pair = build_beta(3)
    d = search_counterexample(
        Count.of(6),
        Leaf(pair.q_s),
        Leaf(pair.q_b),
        SearchConfig(trials=600, seed=2),
        rhs_scale=Count.of(16),
    )
    assert d is None


def test_search_exhaustive_mode_finds_the_minimal_pair():
    schema = Schema({"R": 2})
    q_s = Query(schema, (Atom("R", ("x", "y")),))
    q_b = Query(schema, (Atom("R", ("z", "z")),))
    d = search_counterexample(
        Count.of(1), Leaf(q_s), Leaf(q_b), SearchConfig(mode="exhaustive", max_domain=2)
    )
    assert d is not None
    assert len(d.facts) == 1
    (fact,) = d.facts
    assert fact.elements[0] != fact.elements[1]


def test_search_exhaustive_respects_the_state_cap():
    schema = Schema({"R": 2})
    q_s = Query(schema, (Atom("R", ("x", "y")),), (("x", "y"),))
    q_b = Query(schema, (Atom("R", ("z", "z")),))
    d = search_counterexample(
        Count.of(1),
        Leaf(q_s),
        Leaf(q_b),
        SearchConfig(mode="exhaustive", max_domain=2, max_states=2),
    )
    assert d is None  # masks 0 and 1 contain no violating database


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(mode="clever")
    with pytest.raises(ValidationError):
        SearchConfig(max_domain=1)


def test_check_claim_counts_the_tight_beta_witness():
    pair = build_beta(3)
    claim = Claim(Leaf(pair.q_s), Leaf(pair.q_b), Count.of(6), Count.of(16))
    result = check_claim(claim, [beta_witness(3)])
    assert (result.checked, result.nonvacuous) == (1, 1)
    assert dict(result.verdicts) == {"equal": 1}
    assert result.violator is None


def test_check_claim_marks_an_empty_database_vacuous():
    pair = build_beta(3)
    empty = Database(pair.schema, frozenset({"e1", "e2"}), frozenset(),
                     {"mars": "e1", "venus": "e2"})
    result = check_claim(Claim(Leaf(pair.q_s), Leaf(pair.q_b)), [empty])
    assert (result.checked, result.nonvacuous) == (1, 0)
    assert result.violator is None


def test_check_claim_shrinks_the_violator_of_a_misdeclared_multiplier():
    pair = build_alpha(2)
    claim = Claim(Leaf(pair.q_s), Leaf(pair.q_b), num=Count.of(3))
    w = alpha_witness(2)
    result = check_claim(claim, [w], shrink=True)
    d = result.violator
    assert result.violator_index == 0 and dict(result.verdicts) == {"greater": 1}
    assert d.facts < w.facts
    assert compare_counts(*claim.sides(d)) == "greater"
    for f in d.facts:
        smaller = Database(d.schema, d.elements, d.facts - {f}, dict(d.const_interp))
        assert compare_counts(*claim.sides(smaller)) != "greater"
