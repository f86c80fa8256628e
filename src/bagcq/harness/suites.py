"""Property suites: every claim the package relies on, re-checked by
independent routes on desk-scale instances.

A suite is a list of rows over sources of cases.  An identity row
(`_Ctx.identity`) asserts left(case) == right(case) for each (seed,
case) pair: engine against enumeration, a transform's count against its
closed form, a star count against a polynomial value, a round-trip.  A
claim row (`_Ctx.bound`) checks a `Claim` over a database source from
`generators`, with the checker `search` uses.  Random sources derive one
seed per trial, so every failure replays from its recorded seed.  Suite
names describe the behavior under test; `run_suite` takes one name, so
iterate SUITES to run all.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional

from ..counts import Count
from ..encoder import (
    DbClassification, EncoderOutput, assemble, build_correct_database, classify_database,
    extract_valuation, instance_schema,
)
from ..gadgets import (
    BETA_RELATION, alpha_witness, beta_witness, build_alpha, build_beta, build_gamma,
    classify_cycliques, gamma_witness,
)
from ..homcount import count_homomorphisms, exists_onto_homomorphism
from ..polyreduce import (
    HilbertInstance, Polynomial, eval_poly, normalize_hilbert, validate_instance,
)
from ..qalgebra import (
    DisjointAnd, Leaf, Power, blowup, conjoin_disjoint, eval_expr, flatten,
    inequality_elimination_witness, power_product, strip_inequalities,
)
from ..relcore import (
    Atom, Const, Database, Fact, Query, Schema, UninterpretedConstantError, ValidationError,
)
from .formats import (
    parse_count, parse_database, parse_expr, parse_polynomial, parse_query, serialize_count,
    serialize_database, serialize_expr, serialize_polynomial, serialize_query,
)
from .generators import (
    added_facts, correct_databases, derive_seed, merged_constants, random_database,
    random_databases, random_query,
)
from .search import Claim, check_claim

__all__ = [
    "SuiteFailure", "SuiteReport", "SUITES", "run_suite", "count_by_enumeration",
    "builtin_polynomials", "TINY_POLYNOMIAL", "normalization_identity_holds",
]


@dataclass(frozen=True)
class SuiteFailure:
    seed: int
    message: str
    witness: str = ""


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: list[SuiteFailure] = field(default_factory=list)
    wall_time: float = 0.0
    # Claim checks with a nonzero left side (strip makes two per trial),
    # plus identity cases whose expected counts are all nonzero.
    nonvacuous: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.failures


def count_by_enumeration(q: Query, d: Database) -> int:
    """Independent oracle: try every variable assignment directly."""

    def resolve(t, asg):
        if isinstance(t, Const):
            try:
                return d.const_interp[t.name]
            except KeyError:
                raise UninterpretedConstantError(t.name) from None
        return asg[t]

    elements = sorted(d.elements)
    total = 0
    for combo in itertools.product(elements, repeat=len(q.variables)):
        asg = dict(zip(q.variables, combo))
        if all(
            Fact(a.relation, tuple(resolve(t, asg) for t in a.args)) in d.facts
            for a in q.atoms
        ) and all(resolve(t1, asg) != resolve(t2, asg) for t1, t2 in q.inequalities):
            total += 1
    return total


TINY_POLYNOMIAL = Polynomial(2, ((1, (2,)), (-1, ())))


def builtin_polynomials() -> dict[str, Polynomial]:
    return {
        "x-1": TINY_POLYNOMIAL,
        "one": Polynomial(1, ((1, ()),)),
        "2x+1": Polynomial(2, ((2, (2,)), (1, ()))),
        "xy-6": Polynomial(3, ((1, (2, 3)), (-6, ()))),
        "x^2+1": Polynomial(2, ((1, (2, 2)), (1, ()))),
    }


@functools.lru_cache(maxsize=None)
def _x_minus_1() -> tuple[HilbertInstance, EncoderOutput]:
    """The tiny instance and its compiled triple, built once."""
    inst = normalize_hilbert(TINY_POLYNOMIAL)
    return inst, assemble(inst)


def _describe(case) -> tuple[str, str]:
    """A case's queries and databases as witness text, and its other parts
    as a note for the failure message."""
    parts = case if isinstance(case, tuple) else (case,)
    witness = "".join(serialize_query(p) if isinstance(p, Query) else serialize_database(p)
                      for p in parts if isinstance(p, (Query, Database)))
    note = ", ".join(repr(p) for p in parts if not isinstance(p, (Query, Database)))
    return witness, note and " at " + note


def _show(v) -> str:
    return "(" + ", ".join(map(_show, v)) + ")" if isinstance(v, tuple) else str(v)


def _nonzero(v) -> bool:
    """No zero in v, a count or a tuple of counts."""
    if isinstance(v, tuple):
        return all(map(_nonzero, v))
    return not v.is_zero() if isinstance(v, Count) else v != 0


class _Ctx:
    def __init__(self, report: SuiteReport) -> None:
        self.report = report

    def check(self, cond: bool, seed: int, message: str, witness: str = "") -> None:
        if not cond:
            self.report.failures.append(SuiteFailure(seed, message, witness))

    def identity(
        self, label: str, cases: Iterable[tuple[int, object]], left: Callable, right: Callable,
        tally: bool = True,
    ) -> int:
        """Check left(case) == right(case) for each (seed, case) pair and
        return the number of cases.  Each mismatch is a failure at its seed
        with the case as witness; with tally=True, cases whose expected
        value has no zero count add to the report's nonvacuous total."""
        checked = nonvacuous = 0
        for s, case in cases:
            want, got = right(case), left(case)
            checked += 1
            nonvacuous += _nonzero(want)
            if got != want:
                witness, note = _describe(case)
                self.check(False, s, f"{label}{note}: {_show(got)} != {_show(want)}", witness)
        if tally:
            self.report.nonvacuous = (self.report.nonvacuous or 0) + nonvacuous
        return checked

    def bound(
        self, label: str, claim: Claim, databases: Iterable[Database], seed: int,
        trials: Optional[range] = None,
    ) -> None:
        """Check a claim over a source whose i-th database was drawn with
        derive_seed(seed, trials[i]), or from seed when trials is None."""
        result = check_claim(claim, databases)
        self.report.nonvacuous = (self.report.nonvacuous or 0) + result.nonvacuous
        if result.violator is not None:
            left, right = claim.sides(result.violator)
            s = seed if trials is None else derive_seed(seed, trials[result.violator_index])
            self.check(False, s, f"{label} fails: {left} > {right}",
                       serialize_database(result.violator))


def _seeded(seed: int, trials: int, draw: Callable[[int, int], object]) -> Iterator[tuple]:
    """(s, draw(t, s)) for each trial t, with s = derive_seed(seed, t)."""
    for t in range(trials):
        s = derive_seed(seed, t)
        yield s, draw(t, s)


_RU = Schema({"R": 2, "U": 1})


def _small_db(t: int, s: int) -> Database:
    """The algebra suites' database: 2-3 elements, density 0.3-0.7 by trial."""
    return random_database(_RU, 2 + t % 2, 0.3 + 0.5 * (t % 5) / 5, s)


def _plain_pair(t: int, s: int) -> tuple[Query, Database]:
    """A query without inequalities (with constants every fourth trial)
    and a database."""
    q = random_query(_RU, 3, 3, s, allow_inequalities=False, allow_constants=t % 4 == 0)
    return q, _small_db(t, s + 1)


def _suite_oracle(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    schema = Schema({"R": 2, "T": 3, "U": 1})

    def draw(t: int, s: int) -> tuple[Query, Database]:
        q = random_query(schema, max_vars=4, max_atoms=4, seed=s + 1, allow_constants=t % 3 == 0)
        return q, random_database(schema, 2 + t % 3, 0.2 + 0.6 * ((t * 7) % 10) / 10, s)

    ctx.identity("engine against enumeration", _seeded(seed, trials, draw),
                 lambda c: count_homomorphisms(*c), lambda c: count_by_enumeration(*c))


def _witness_counts(ctx: _Ctx, seed: int, build, witness, expected: Mapping) -> None:
    """Each gadget witness gives the pair exactly the expected (s, b) counts.
    These fixed checks stay out of the tally of the suite's random claim."""

    def counts(param: int) -> tuple[int, int]:
        pair, w = build(param), witness(param)
        return count_homomorphisms(pair.q_s, w), count_homomorphisms(pair.q_b, w)

    ctx.identity("witness counts", [(seed, p) for p in expected], counts, expected.__getitem__,
                 tally=False)


def _suite_beta(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    expected = {n: ((n + 1) ** 2, 2 * n) for n in (3, 5, 9)}
    _witness_counts(ctx, seed, build_beta, beta_witness, expected)
    n = int(params.get("n", 3))
    pair, rows = build_beta(n), range(trials)
    claim = Claim(Leaf(pair.q_s), Leaf(pair.q_b), Count.of(2 * n), Count.of((n + 1) ** 2))
    draws = random_databases(pair.schema, seed, rows, 3, 0.15, 0.7, 8)
    ctx.bound("2n*s <= (n+1)^2*b", claim, draws, seed, rows)


def _suite_gamma(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    _witness_counts(ctx, seed, build_gamma, gamma_witness, {3: (2, 3), 4: (3, 4)})
    m = int(params.get("m", 4))
    pair, rows = build_gamma(m), range(trials)
    claim = Claim(Leaf(pair.q_s), Leaf(pair.q_b), Count.of(m), Count.of(m - 1))
    draws = random_databases(pair.schema, seed, rows, 3, 0.1, 0.5, 8)
    ctx.bound("m*s <= (m-1)*b", claim, draws, seed, rows)


def _suite_alpha(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    for c in (2, 3):
        pair = build_alpha(c)
        ctx.check(pair.multiplier == c, seed, f"c={c} multiplier is {pair.multiplier}")
        claim = Claim(Leaf(pair.q_s), Leaf(pair.q_b), den=Count.of(c))
        tight = check_claim(claim, [alpha_witness(c)])
        ctx.check(tight.verdicts == {"equal": 1} and tight.nonvacuous == 1, seed,
                  f"c={c} witness breaks s = c*b != 0: {dict(tight.verdicts)}")
        rows = range(c - 2, trials, 2)  # trial t checks the pair for c = 2 + t % 2
        draws = random_databases(pair.schema, seed, rows, 2, 0.1, 0.5, 8)
        ctx.bound(f"c={c}: s <= c*b", claim, draws, seed, rows)


def _suite_disjoint_and(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    def draw(t: int, s: int) -> tuple[Query, Query, Database]:
        q1, q2 = (random_query(_RU, 3, 3, s + i, allow_inequalities=t % 2 == 0) for i in (0, 1))
        return q1, q2, _small_db(t, s + 2)

    def joint(c: tuple[Query, Query, Database]) -> tuple[int, Count]:
        q1, q2, d = c
        return (count_homomorphisms(conjoin_disjoint(q1, q2), d),
                eval_expr(DisjointAnd((Leaf(q1), Leaf(q2))), d))

    def product_of_counts(c: tuple[Query, Query, Database]) -> tuple[int, Count]:
        n = count_homomorphisms(c[0], c[2]) * count_homomorphisms(c[1], c[2])
        return n, Count.of(n)

    ctx.identity("disjoint conjunction (count, expr) against the product",
                 _seeded(seed, trials, draw), joint, product_of_counts)


def _suite_power(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    def powers(c: tuple[Query, Database]) -> tuple[tuple, tuple]:
        q, d = c
        exprs = [Power(Leaf(q), k) for k in range(4)]
        return (tuple(eval_expr(e, d) for e in exprs),
                tuple(count_homomorphisms(flatten(e), d) for e in exprs))

    def base_powers(c: tuple[Query, Database]) -> tuple[tuple, tuple]:
        base = count_homomorphisms(*c)
        return tuple(Count.of(base**k) for k in range(4)), tuple(base**k for k in range(4))

    draws = _seeded(seed, trials, lambda t, s: (random_query(_RU, 2, 2, s), _small_db(t, s + 1)))
    ctx.identity("powers 0..3 (eval, flattened) against base^k", draws, powers, base_powers)


def _suite_blowup(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    ctx.identity(
        "blow-up by k against k^|vars| * base",
        _seeded(seed, trials, lambda t, s: (*_plain_pair(t, s), 1 + t % 3)),
        lambda c: count_homomorphisms(c[0], blowup(c[1], c[2])),
        lambda c: c[2] ** len(c[0].variables) * count_homomorphisms(c[0], c[1]),
    )


def _suite_product(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    def base_powers(c: tuple[Query, Database, tuple[int, ...]]) -> tuple[int, ...]:
        base = count_homomorphisms(c[0], c[1])
        return tuple(base**n for n in c[2])

    ctx.identity(
        "n-fold product counts against base^n",  # the cube every fifth trial
        _seeded(seed, trials, lambda t, s: (*_plain_pair(t, s), (2, 3) if t % 5 == 0 else (2,))),
        lambda c: tuple(count_homomorphisms(c[0], power_product(c[1], n)) for n in c[2]),
        base_powers,
    )


def _suite_star_onto(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst, out = _x_minus_1()
    ctx.check(
        exists_onto_homomorphism(out.pi_b, out.pi_s) is not None,
        seed,
        "no onto homomorphism from the bigger star onto the smaller",
    )
    rows = range(trials)
    draws = random_databases(instance_schema(inst), seed, rows, 2, 0.1, 0.4, 8)
    ctx.bound("pi_s <= pi_b", Claim(Leaf(out.pi_s), Leaf(out.pi_b)), draws, seed, rows)


def _suite_star_eval(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst, out = _x_minus_1()
    box = int(params.get("box", 3))
    valuations = [dict(zip(range(1, inst.n_count + 1), values))
                  for values in itertools.product(range(box + 1), repeat=inst.n_count)]
    cases = [(seed, vd) for vd in zip(valuations, correct_databases(inst, box))]
    ctx.report.trials = ctx.identity(
        "star counts against the polynomial values", cases,
        lambda c: (count_homomorphisms(out.pi_s, c[1]), count_homomorphisms(out.pi_b, c[1])),
        lambda c: (eval_poly(inst.p_s, c[0]), c[0][1] ** inst.degree * eval_poly(inst.p_b, c[0])),
    )
    ctx.identity("valuation round-trip", cases, lambda c: extract_valuation(c[1], inst),
                 lambda c: c[0], tally=False)


_ONE = DisjointAnd(())  # the empty product: 1 on every database


def _suite_scale_floor(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst, out = _x_minus_1()
    zeta = out.phi_b.children[1]
    fixed = [(seed, out.arena_db), (seed, build_correct_database(inst, {1: 2, 2: 1}))]
    ctx.identity("arena and correct database: scale count against c1", fixed,
                 lambda d: eval_expr(zeta, d), lambda d: out.c1)
    vocab = [f"S{m}" for m in range(1, inst.m_count + 1)]
    vocab += [f"R{d}" for d in range(1, inst.degree + 1)]
    extra = list(added_facts(out.arena_db, vocab))
    extra = extra[:: max(1, len(extra) // max(trials, 1))]
    ctx.identity("arena plus a fact: classification", [(seed, d) for d in extra],
                 lambda d: classify_database(d, inst),
                 lambda d: DbClassification.SLIGHTLY_INCORRECT, tally=False)
    ctx.bound("arena plus a fact: c*1 <= zeta", Claim(_ONE, zeta, num=out.c), extra, seed)
    ctx.report.trials = len(fixed) + len(extra)


def _suite_cycle_guard(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst, out = _x_minus_1()
    delta = out.phi_b.children[2]
    fixed = [(seed, out.arena_db), (seed, build_correct_database(inst, {1: 1, 2: 2}))]
    ctx.identity("arena and correct database: cycle count against 1", fixed,
                 lambda d: eval_expr(delta, d), lambda d: Count.of(1))
    merged = list(merged_constants(out.arena_db))
    ctx.identity("two constants merged: classification", [(seed, d) for d in merged],
                 lambda d: classify_database(d, inst),
                 lambda d: DbClassification.SERIOUSLY_INCORRECT, tally=False)
    ctx.bound("two constants merged: 2*1 <= delta base", Claim(_ONE, delta.base, num=Count.of(2)),
              merged, seed)
    ctx.report.trials = len(fixed) + len(merged)


def _suite_end_to_end(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    box = int(params.get("box", 3))
    inst, out = _x_minus_1()
    root = [build_correct_database(inst, {1: 1, 2: 1})]
    found = check_claim(Claim(out.phi_s, out.phi_b, num=out.c), root).violator
    ctx.check(found is not None, seed, "the root of x-1 does not beat c*phi_s <= phi_b")
    inst = normalize_hilbert(builtin_polynomials()["2x+1"])
    out = assemble(inst)
    claim = Claim(out.phi_s, out.phi_b, num=out.c)
    ctx.bound("rootless 2x+1: c*phi_s <= phi_b", claim, correct_databases(inst, box), seed)
    ctx.report.trials = 1 + (box + 1) ** inst.n_count


def normalization_identity_holds(inst: HilbertInstance) -> bool:
    """P_b(1,.) - c*P_s(1,.) == c*(Q^2 - 1) as polynomials, where P(1,.)
    substitutes 1 for the homogenizing variable x_1."""

    def at_x1_one(p: Polynomial) -> Polynomial:
        terms = tuple((c, tuple(i for i in m if i != 1)) for c, m in p.terms)
        return Polynomial(p.num_vars, terms)

    c, q = inst.c_frak, inst.q
    gap = at_x1_one(inst.p_b) - at_x1_one(inst.p_s).scale(c)
    return gap == (q * q - Polynomial.constant(q.num_vars, 1)).scale(c)


def _suite_normalization(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    box = int(params.get("box", 4))
    ctx.report.trials = 0
    for name, q in builtin_polynomials().items():
        inst = normalize_hilbert(q)
        violations = validate_instance(inst)
        ctx.check(not violations, seed, f"{name}: validator said {violations}")
        again = normalize_hilbert(q)
        ctx.check(
            serialize_polynomial(again.p_s) == serialize_polynomial(inst.p_s)
            and serialize_polynomial(again.p_b) == serialize_polynomial(inst.p_b),
            seed,
            f"{name}: normalization is not deterministic",
        )
        ctx.check(
            normalization_identity_holds(inst),
            seed,
            f"{name}: P_b(1,.) - c*P_s(1,.) differs from c*(Q^2 - 1)",
        )
        used = q.variables_used()
        points = [(seed, dict(zip(used, values)))
                  for values in itertools.product(range(box + 1), repeat=len(used))]
        ctx.report.trials += ctx.identity(
            f"{name}: intermediate comparison P1 > P2 against being a root", points,
            lambda v: eval_poly(inst.p1, v) > eval_poly(inst.p2, v), lambda v: eval_poly(q, v) == 0,
            tally=False)


def _suite_strip(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    schema = Schema({"R": 2, "S": 2})
    q_s = Query(schema, (Atom("R", ("x", "y")),), (("x", "y"),))
    q_b = Query(schema, (Atom("S", ("z", "z")),))
    d0 = Database(
        schema,
        frozenset({"mars", "venus"}),
        frozenset({Fact("R", ("mars", "venus"))}),
        {"mars": "mars", "venus": "venus"},
    )
    d = inequality_elimination_witness(q_s, q_b, d0)
    found = check_claim(Claim(Leaf(q_s), Leaf(q_b)), [d]).violator
    ctx.check(found is not None, seed, "transformed witness does not separate the pair",
              serialize_database(d))
    relaxed, rows = Leaf(strip_inequalities(q_s)), range(trials)
    draws = list(random_databases(schema, seed, rows, 2, 0.2, 0.6, 5))
    doubled = [blowup(d_rand, 2) for d_rand in draws]
    ctx.bound("doubling keeps half: relaxed <= 2*q_s", Claim(relaxed, Leaf(q_s), den=Count.of(2)),
              doubled, seed, rows)
    ctx.bound("stripping inequalities: q_s <= relaxed", Claim(Leaf(q_s), relaxed), draws, seed, rows)


def _suite_cycliques(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    w = beta_witness(3)
    classes = classify_cycliques(w, BETA_RELATION)
    kinds = sorted(c.kind for c in classes)
    ctx.check(
        kinds == ["homogeneous", "normal"],
        seed,
        f"two-element witness classes are {kinds}",
    )
    for trial in range(trials):
        s = derive_seed(seed, trial)
        arity = 3 + trial % 2
        schema = Schema({"P": arity, "U": 1})
        d = random_database(schema, 2 + trial % 3, 0.2 + 0.6 * (trial % 5) / 5, s)
        use_filter = trial % 3 == 0
        classes = classify_cycliques(d, "P", "U" if use_filter else None)
        facts = set(d.facts_by_relation.get("P", ()))
        allowed = (
            {t[0] for t in d.facts_by_relation.get("U", ())} if use_filter else None
        )
        expected = {
            t
            for t in facts
            if all(tuple(t[i:] + t[:i]) in facts for i in range(arity))
            and (allowed is None or set(t) <= allowed)
        }
        covered: set = set()
        for cls in classes:
            ctx.check(
                not (covered & cls.members), s, "classes overlap", serialize_database(d)
            )
            covered |= cls.members
            shifts = {tuple(cls.representative[i:] + cls.representative[:i]) for i in range(arity)}
            ctx.check(
                cls.members <= shifts,
                s,
                "class member is not a shift of the representative",
            )
            if cls.kind == "degenerate":
                ctx.check(
                    2 * len(cls.members) <= arity,
                    s,
                    f"degenerate class of size {len(cls.members)} at arity {arity}",
                    serialize_database(d),
                )
            ctx.check(
                (len(cls.members) == 1) == (cls.kind == "homogeneous")
                and (len(cls.members) == arity) == (cls.kind == "normal"),
                s,
                f"kind {cls.kind} mislabels a class of size {len(cls.members)}",
            )
        ctx.check(covered == expected, s, "classes do not cover exactly the cycliques",
                  serialize_database(d))


def _suite_roundtrip(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst, out = _x_minus_1()
    beta = build_beta(3)
    queries = [beta.q_s, beta.q_b, build_gamma(4).q_s, out.pi_s, out.pi_b, out.arena_query]
    databases = [beta_witness(3), gamma_witness(4), alpha_witness(2), out.arena_db]
    counts = [out.c, out.c1, Count.of(0), Count.of(1), Count.of(12)]
    schema = instance_schema(inst)

    def draw(t: int, s: int) -> tuple[Database, Query]:
        return random_database(_RU, 2 + t % 3, 0.4, s), random_query(_RU, 3, 3, s + 1,
                                                                      allow_constants=True)

    def fixed(objects: Iterable) -> list[tuple[int, object]]:
        return [(seed, x) for x in objects]

    def same(x: object) -> object:
        return x

    rows = [
        ("query", fixed(queries), lambda q: parse_query(serialize_query(q), schema=q.schema), same),
        ("query text", fixed(queries), lambda q: serialize_query(parse_query(serialize_query(q))),
         serialize_query),
        ("database", fixed(databases),
         lambda d: parse_database(serialize_database(d), schema=d.schema), same),
        ("polynomial", fixed(builtin_polynomials().values()),
         lambda p: parse_polynomial(serialize_polynomial(p)), same),
        ("expression", fixed([out.phi_s, out.phi_b]),
         lambda e: parse_expr(serialize_expr(e), schema=schema), same),
        ("count", fixed(counts), lambda c: parse_count(serialize_count(c)), same),
        ("random database and query", _seeded(seed, trials, draw),
         lambda c: (parse_database(serialize_database(c[0]), schema=_RU),
                    parse_query(serialize_query(c[1]), schema=_RU)), same),
    ]
    for kind, cases, left, right in rows:
        ctx.identity(f"{kind} round-trip", cases, left, right, tally=False)


_SuiteFn = Callable[[_Ctx, int, int, Mapping], None]

SUITES: dict[str, tuple[int, _SuiteFn]] = {
    "oracle": (2000, _suite_oracle),
    "beta": (1000, _suite_beta),
    "gamma": (1000, _suite_gamma),
    "alpha": (500, _suite_alpha),
    "disjoint-and": (500, _suite_disjoint_and),
    "power": (200, _suite_power),
    "blowup": (500, _suite_blowup),
    "product": (500, _suite_product),
    "star-onto": (1000, _suite_star_onto),
    "star-eval": (16, _suite_star_eval),
    "scale-floor": (60, _suite_scale_floor),
    "cycle-guard": (28, _suite_cycle_guard),
    "end-to-end": (17, _suite_end_to_end),
    "normalization": (60, _suite_normalization),
    "strip": (200, _suite_strip),
    "cycliques": (300, _suite_cycliques),
    "roundtrip": (50, _suite_roundtrip),
}


def run_suite(
    name: str,
    trials: Optional[int] = None,
    seed: int = 0,
    params: Optional[Mapping] = None,
) -> SuiteReport:
    """Run one named suite; deterministic given (trials, seed, params)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    default_trials, fn = SUITES[name]
    n = default_trials if trials is None else trials
    if n < 0:
        raise ValidationError(f"trials must be >= 0, got {n}")
    report = SuiteReport(suite=name, trials=n)
    ctx = _Ctx(report)
    start = time.perf_counter()
    fn(ctx, n, seed, params or {})
    report.wall_time = time.perf_counter() - start
    return report
