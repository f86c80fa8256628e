"""Property suites: every claim the package relies on, re-checked by
independent routes on desk-scale instances.

Each suite draws seed-derived random instances (or sweeps a small box
exhaustively), compares exact counts, and reports failures that replay
from their recorded per-trial seed.  Bound suites check each bound as a
`Claim` over a source from `generators`, with the checker `search` uses.
Suite names describe the behavior under test; `run_suite` takes one
name, so iterate SUITES to run all.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from ..counts import Count, compare_counts
from ..encoder import (
    DbClassification,
    assemble,
    build_correct_database,
    classify_database,
    extract_valuation,
    instance_schema,
)
from ..gadgets import (
    BETA_RELATION,
    alpha_witness,
    beta_witness,
    build_alpha,
    build_beta,
    build_gamma,
    classify_cycliques,
    gamma_witness,
)
from ..homcount import count_homomorphisms, exists_onto_homomorphism
from ..polyreduce import (
    HilbertInstance,
    Polynomial,
    eval_poly,
    normalize_hilbert,
    validate_instance,
)
from ..qalgebra import (
    DisjointAnd,
    Leaf,
    Power,
    blowup,
    conjoin_disjoint,
    eval_expr,
    flatten,
    inequality_elimination_witness,
    power_product,
    product,
    strip_inequalities,
)
from ..relcore import (
    Atom,
    Const,
    Database,
    Fact,
    Query,
    Schema,
    UninterpretedConstantError,
    map_elements,
)
from .formats import (
    parse_count,
    parse_database,
    parse_expr,
    parse_polynomial,
    parse_query,
    serialize_count,
    serialize_database,
    serialize_expr,
    serialize_polynomial,
    serialize_query,
)
from .generators import (
    correct_databases,
    derive_seed,
    random_database,
    random_databases,
    random_query,
)
from .search import Claim, check_claim

__all__ = [
    "SuiteFailure",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "count_by_enumeration",
    "builtin_polynomials",
    "TINY_POLYNOMIAL",
    "normalization_identity_holds",
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
    # Claim checks with a nonzero left side (strip makes two per trial).
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


class _Ctx:
    def __init__(self, report: SuiteReport) -> None:
        self.report = report

    def check(self, cond: bool, seed: int, message: str, witness: str = "") -> None:
        if not cond:
            self.report.failures.append(SuiteFailure(seed, message, witness))

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


def _suite_oracle(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    schema = Schema({"R": 2, "T": 3, "U": 1})
    for trial in range(trials):
        s = derive_seed(seed, trial)
        d = random_database(schema, 2 + trial % 3, 0.2 + 0.6 * ((trial * 7) % 10) / 10, s)
        q = random_query(
            schema, max_vars=4, max_atoms=4, seed=s + 1, allow_constants=trial % 3 == 0
        )
        got = count_homomorphisms(q, d)
        want = count_by_enumeration(q, d)
        ctx.check(
            got == want,
            s,
            f"engine said {got}, enumeration said {want}",
            serialize_query(q) + serialize_database(d),
        )


def _witness_counts(ctx: _Ctx, seed: int, build, witness, expected: Mapping) -> None:
    """Each gadget witness gives the pair exactly the expected (s, b) counts."""
    for param, want in expected.items():
        pair, w = build(param), witness(param)
        got = (count_homomorphisms(pair.q_s, w), count_homomorphisms(pair.q_b, w))
        ctx.check(got == want, seed, f"{param}: witness counts {got}, expected {want}")


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
    schema = Schema({"R": 2, "U": 1})
    for trial in range(trials):
        s = derive_seed(seed, trial)
        q1 = random_query(schema, 3, 3, s, allow_inequalities=trial % 2 == 0)
        q2 = random_query(schema, 3, 3, s + 1, allow_inequalities=trial % 2 == 0)
        d = random_database(schema, 2 + trial % 2, 0.3 + 0.5 * (trial % 5) / 5, s + 2)
        prod = count_homomorphisms(q1, d) * count_homomorphisms(q2, d)
        joint = count_homomorphisms(conjoin_disjoint(q1, q2), d)
        via_expr = eval_expr(DisjointAnd((Leaf(q1), Leaf(q2))), d)
        ctx.check(
            joint == prod and via_expr == Count.of(prod),
            s,
            f"disjoint conjunction count {joint} (expr {via_expr}) != product {prod}",
            serialize_query(q1) + serialize_query(q2) + serialize_database(d),
        )


def _suite_power(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    schema = Schema({"R": 2, "U": 1})
    for trial in range(trials):
        s = derive_seed(seed, trial)
        q = random_query(schema, 2, 2, s)
        d = random_database(schema, 2 + trial % 2, 0.3 + 0.5 * (trial % 5) / 5, s + 1)
        base = count_homomorphisms(q, d)
        for k in range(4):
            expr = Power(Leaf(q), k)
            got = eval_expr(expr, d)
            ctx.check(
                got == Count.of(base**k),
                s,
                f"eval of power {k} gave {got}, expected {base}^{k}",
            )
            flat = count_homomorphisms(flatten(expr), d)
            ctx.check(flat == base**k, s, f"flattened power {k} counted {flat}")


def _suite_blowup(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    schema = Schema({"R": 2, "U": 1})
    for trial in range(trials):
        s = derive_seed(seed, trial)
        q = random_query(
            schema, 3, 3, s, allow_inequalities=False, allow_constants=trial % 4 == 0
        )
        d = random_database(schema, 2 + trial % 2, 0.3 + 0.5 * (trial % 5) / 5, s + 1)
        k = 1 + trial % 3
        j = len(q.variables)
        want = k**j * count_homomorphisms(q, d)
        got = count_homomorphisms(q, blowup(d, k))
        ctx.check(got == want, s, f"blow-up by {k}: {got} != {k}^{j} * base = {want}",
                  serialize_query(q) + serialize_database(d))


def _suite_product(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    schema = Schema({"R": 2, "U": 1})
    for trial in range(trials):
        s = derive_seed(seed, trial)
        q = random_query(
            schema, 3, 3, s, allow_inequalities=False, allow_constants=trial % 4 == 0
        )
        d = random_database(schema, 2 + trial % 2, 0.3 + 0.5 * (trial % 5) / 5, s + 1)
        base = count_homomorphisms(q, d)
        got = count_homomorphisms(q, product(d, d))
        ctx.check(got == base**2, s, f"product square: {got} != {base}^2",
                  serialize_query(q) + serialize_database(d))
        if trial % 5 == 0:
            got3 = count_homomorphisms(q, power_product(d, 3))
            ctx.check(got3 == base**3, s, f"product cube: {got3} != {base}^3")


def _suite_star_onto(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst = normalize_hilbert(TINY_POLYNOMIAL)
    out = assemble(inst)
    ctx.check(
        exists_onto_homomorphism(out.pi_b, out.pi_s) is not None,
        seed,
        "no onto homomorphism from the bigger star onto the smaller",
    )
    rows = range(trials)
    draws = random_databases(instance_schema(inst), seed, rows, 2, 0.1, 0.4, 8)
    ctx.bound("pi_s <= pi_b", Claim(Leaf(out.pi_s), Leaf(out.pi_b)), draws, seed, rows)


def _suite_star_eval(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst = normalize_hilbert(TINY_POLYNOMIAL)
    out = assemble(inst)
    box = int(params.get("box", 3))
    count = 0
    for values in itertools.product(range(box + 1), repeat=inst.n_count):
        v = dict(zip(range(1, inst.n_count + 1), values))
        d = build_correct_database(inst, v)
        count += 1
        ps = count_homomorphisms(out.pi_s, d)
        pb = count_homomorphisms(out.pi_b, d)
        want_s = eval_poly(inst.p_s, v)
        want_b = v[1] ** inst.degree * eval_poly(inst.p_b, v)
        ctx.check(
            ps == want_s and pb == want_b,
            seed,
            f"at {v}: star counts ({ps}, {pb}), polynomial says ({want_s}, {want_b})",
        )
        ctx.check(
            extract_valuation(d, inst) == v, seed, f"valuation round-trip failed at {v}"
        )
    ctx.report.trials = count


def _suite_scale_floor(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst = normalize_hilbert(TINY_POLYNOMIAL)
    out = assemble(inst)
    zeta = out.phi_b.children[1]
    ctx.check(
        eval_expr(zeta, out.arena_db) == out.c1,
        seed,
        "arena count of the scale expression is not c1",
    )
    d_correct = build_correct_database(inst, {1: 2, 2: 1})
    ctx.check(
        eval_expr(zeta, d_correct) == out.c1,
        seed,
        "correct database moved the scale count off c1",
    )
    vocab = [f"S{m}" for m in range(1, inst.m_count + 1)]
    vocab += [f"R{d}" for d in range(1, inst.degree + 1)]
    elements = sorted(out.arena_db.elements)
    candidates = [
        Fact(rel, (x, y))
        for rel in vocab
        for x in elements
        for y in elements
        if Fact(rel, (x, y)) not in out.arena_db.facts
    ]
    step = max(1, len(candidates) // max(trials, 1))
    tested = 0
    for f in candidates[::step]:
        d = Database(
            out.arena_db.schema,
            out.arena_db.elements,
            out.arena_db.facts | {f},
            dict(out.arena_db.const_interp),
        )
        label = classify_database(d, inst)
        ctx.check(
            label is DbClassification.SLIGHTLY_INCORRECT,
            seed,
            f"arena plus {f} classified {label}",
        )
        got = eval_expr(zeta, d)
        ctx.check(
            compare_counts(got, out.c) in ("greater", "equal"),
            seed,
            f"extra fact {f} left the scale count at {got}, below c = {out.c}",
        )
        tested += 1
    ctx.report.trials = tested + 2


def _suite_cycle_guard(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    inst = normalize_hilbert(TINY_POLYNOMIAL)
    out = assemble(inst)
    delta = out.phi_b.children[2]
    base = delta.base
    ctx.check(
        eval_expr(delta, out.arena_db).is_one(), seed, "arena cycle count is not 1"
    )
    d_correct = build_correct_database(inst, {1: 1, 2: 2})
    ctx.check(
        eval_expr(delta, d_correct).is_one(), seed, "correct database cycle count is not 1"
    )
    names = [c for c in out.arena_db.schema.constants]
    tested = 0
    for c1, c2 in itertools.combinations(names, 2):
        merged = map_elements(out.arena_db, {c2: c1})
        label = classify_database(merged, inst)
        ctx.check(
            label is DbClassification.SERIOUSLY_INCORRECT,
            seed,
            f"identifying {c1} and {c2} classified {label}",
        )
        b = eval_expr(base, merged)
        ctx.check(
            compare_counts(b, Count.of(2)) in ("greater", "equal"),
            seed,
            f"identifying {c1} and {c2} left the cycle base at {b}",
            serialize_database(merged),
        )
        tested += 1
    ctx.report.trials = tested + 2


def _suite_end_to_end(ctx: _Ctx, trials: int, seed: int, params: Mapping) -> None:
    box = int(params.get("box", 3))
    inst = normalize_hilbert(TINY_POLYNOMIAL)
    out = assemble(inst)
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
    checked = 0
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
        for values in itertools.product(range(box + 1), repeat=len(used)):
            v = dict(zip(used, values))
            q_zero = eval_poly(q, v) == 0
            p_gt = eval_poly(inst.p1, v) > eval_poly(inst.p2, v)
            ctx.check(
                q_zero == p_gt,
                seed,
                f"{name} at {v}: root={q_zero} but intermediate comparison={p_gt}",
            )
            checked += 1
    ctx.report.trials = checked


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
    inst = normalize_hilbert(TINY_POLYNOMIAL)
    out = assemble(inst)
    beta = build_beta(3)
    queries = [beta.q_s, beta.q_b, build_gamma(4).q_s, out.pi_s, out.pi_b, out.arena_query]
    for i, q in enumerate(queries):
        text = serialize_query(q)
        back = parse_query(text, schema=q.schema)
        ctx.check(back == q, seed, f"query {i} round-trip changed the query")
        ctx.check(
            serialize_query(parse_query(text)) == text,
            seed,
            f"query {i} text round-trip is not idempotent",
        )
    for i, d in enumerate([beta_witness(3), gamma_witness(4), alpha_witness(2), out.arena_db]):
        text = serialize_database(d)
        back = parse_database(text, schema=d.schema)
        ctx.check(back == d, seed, f"database {i} round-trip changed the database")
    for name, p in builtin_polynomials().items():
        ctx.check(
            parse_polynomial(serialize_polynomial(p)) == p,
            seed,
            f"polynomial {name} round-trip changed it",
        )
    schema = instance_schema(inst)
    for i, e in enumerate([out.phi_s, out.phi_b]):
        text = serialize_expr(e)
        ctx.check(
            parse_expr(text, schema=schema) == e,
            seed,
            f"expression {i} round-trip changed it",
        )
    for i, c in enumerate([out.c, out.c1, Count.of(0), Count.of(1), Count.of(12)]):
        ctx.check(
            parse_count(serialize_count(c)) == c, seed, f"count {i} round-trip changed it"
        )
    for trial in range(trials):
        s = derive_seed(seed, trial)
        schema = Schema({"R": 2, "U": 1})
        d = random_database(schema, 2 + trial % 3, 0.4, s)
        ctx.check(
            parse_database(serialize_database(d), schema=schema) == d,
            s,
            "random database round-trip changed it",
        )
        q = random_query(schema, 3, 3, s + 1, allow_constants=True)
        ctx.check(
            parse_query(serialize_query(q), schema=schema) == q,
            s,
            "random query round-trip changed it",
            serialize_query(q),
        )


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
    report = SuiteReport(suite=name, trials=n)
    ctx = _Ctx(report)
    start = time.perf_counter()
    fn(ctx, n, seed, params or {})
    report.wall_time = time.perf_counter() - start
    return report
