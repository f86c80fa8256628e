"""The three workloads: seeded inputs, the op each input drives, and the
known answer every op is checked against after the timed loop.

Inputs come from this file's own seeded generators, never from
`bagcq.harness.generators`, so a change to the program cannot change
what is measured.  Each workload hands out its ops in rounds: a round is
one pass over a fixed schedule of op kinds, and only the content of each
input depends on the seed.  Every run therefore has the same mix.

The ops call bagcq through module attributes (`homcount.count_homomorphisms`,
`encoder.assemble`, ...) so that the wrappers of spans.py see every call.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from bagcq import encoder, homcount, polyreduce, qalgebra
from bagcq.counts import compare_counts
from bagcq.encoder import DbClassification
from bagcq.gadgets import (
    GadgetPair,
    alpha_witness,
    beta_witness,
    build_alpha,
    build_beta,
    build_gamma,
    gamma_witness,
)
from bagcq.harness import formats
from bagcq.harness.suites import count_by_enumeration
from bagcq.polyreduce import Polynomial
from bagcq.relcore import MARS, VENUS, Atom, Const, Database, Fact, Query, Schema, map_elements


class Workload:
    """A workload hands out ops in rounds and checks their results."""

    name: str
    tail_pct: float  # the percentile reported as op_tail_ms

    def round(self, i: int) -> list["Op"]:
        raise NotImplementedError

    def check(self, op: "Op", result) -> Optional[str]:
        """None when the result is the known answer, else what is wrong."""
        raise NotImplementedError

    def tally(self, op: "Op", result) -> None:
        """Count what the op's input was like; result is None when the op
        timed out or failed."""

    def shape(self) -> dict:
        """The counts `tally` gathered."""
        raise NotImplementedError

    def shape_ok(self, shape: dict) -> bool:
        return True


@dataclass
class Op:
    kind: str  # label for the shape counts, e.g. "alpha3/suite"
    run: Callable[[], object]
    expect: object = None  # what the workload's check compares the result with


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _random_database(schema: Schema, size: int, density: float, rng: random.Random) -> Database:
    """Every possible fact independently with probability `density`;
    mars and venus on e1 and e2, other constants on random elements."""
    elements = [f"e{i}" for i in range(1, size + 1)]
    facts = [
        Fact(rel, t)
        for rel, arity in schema.relations
        for t in itertools.product(elements, repeat=arity)
        if rng.random() < density
    ]
    interp = {c: rng.choice(elements) for c in schema.constants}
    interp.update({MARS: "e1", VENUS: "e2"})
    return Database(schema, frozenset(elements), frozenset(facts), interp)


def _poly_value(terms: tuple[tuple[int, tuple[int, ...]], ...], v: dict[int, int]) -> int:
    total = 0
    for coeff, mono in terms:
        for i in mono:
            coeff *= v[i]
        total += coeff
    return total


def _greater_expected(terms, v: dict[int, int]) -> bool:
    """c*phi_s > phi_b on a correct database iff v(1) = 1 and v is a root."""
    return v[1] == 1 and _poly_value(terms, v) == 0


# ---------------------------------------------------------------- verify-gadgets


@dataclass(frozen=True)
class _Gadget:
    name: str
    pair: GadgetPair
    witness: Database
    multiplier: Fraction  # the paper's value, not the program's
    witness_counts: Optional[tuple[int, int]]  # exact (q_s, q_b) on the witness
    suite_draw: Optional[Callable[[int], tuple[int, float]]]  # round -> (size, density)


def _gadget_trial(pair, d: Database, multiplier: Fraction) -> tuple[int, int, bool]:
    s = homcount.count_homomorphisms(pair.q_s, d)
    b = homcount.count_homomorphisms(pair.q_b, d)
    return s, b, s * multiplier.denominator <= multiplier.numerator * b


def _oracle_count(q: Query, d: Database) -> int:
    return homcount.count_homomorphisms(q, d)


def _random_query(schema: Schema, rng: random.Random, constants: bool) -> Query:
    variables = [f"v{i}" for i in range(1, rng.randint(1, 4) + 1)]
    terms: list = variables + ([Const(c) for c in schema.constants] if constants else [])
    atoms = []
    for _ in range(rng.randint(0, 4)):
        rel, arity = rng.choice(schema.relations)
        atoms.append(Atom(rel, tuple(rng.choice(terms) for _ in range(arity))))
    neqs = []
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            t1, t2 = rng.choice(terms), rng.choice(terms)
            if t1 != t2:
                neqs.append((t1, t2))
    return Query(schema, tuple(atoms), tuple(neqs))


class VerifyGadgets(Workload):
    """The traffic of `bagcq verify`: one op is one gadget trial, q_s and
    q_b counted on one database and the multiplier bound checked.

    A round is seven gadget trials plus one oracle pair: a suite-style and
    a witness-seeded trial of beta(3), gamma(4) and alpha(2), and a
    witness-seeded trial of alpha(3).  Suite-style databases use the
    suites' sizes and densities; witness-seeded ones are the gadget's
    witness with up to three facts added or removed.

    Suite-style alpha(3) trials are left out: on three elements their cost
    is heavy-tailed (coefficient of variation 1.2-1.7 within one density,
    up to 0.6 s), so a 20-second run cannot estimate their mean steadily.
    """

    name = "verify-gadgets"
    tail_pct = 99.0
    _ORACLE_SCHEMA = Schema({"R": 2, "T": 3, "U": 1})

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.trials = {"suite": [0, 0], "witness": [0, 0]}  # style -> [done, non-vacuous]
        self.gadgets = [
            _Gadget(
                "beta3", build_beta(3), beta_witness(3), Fraction(16, 6), (16, 6),
                lambda i: (2 + i % 3, 0.15 + 0.7 * (i % 8) / 8),
            ),
            _Gadget(
                "gamma4", build_gamma(4), gamma_witness(4), Fraction(3, 4), (3, 4),
                lambda i: (2 + i % 3, 0.1 + 0.5 * (i % 8) / 8),
            ),
            _Gadget(
                "alpha2", build_alpha(2), alpha_witness(2), Fraction(2), None,
                lambda i: (2, 0.1 + 0.5 * (i % 8) / 8),
            ),
            _Gadget("alpha3", build_alpha(3), alpha_witness(3), Fraction(3), None, None),
        ]

    def _perturb(self, g: _Gadget, rng: random.Random) -> tuple[Database, int]:
        facts = set(g.witness.facts)
        elements = set(g.witness.elements)
        changes = rng.choice((0, 1, 2, 3))
        for _ in range(changes):
            if facts and rng.random() < 0.25:
                facts.discard(rng.choice(sorted(facts, key=lambda f: (f.relation, f.elements))))
            else:
                pool = sorted(elements) + ["w1"]
                rel, arity = rng.choice(g.pair.schema.relations)
                fact = Fact(rel, tuple(rng.choice(pool) for _ in range(arity)))
                facts.add(fact)
                elements.update(fact.elements)
        interp = dict(g.witness.const_interp)
        return Database(g.pair.schema, frozenset(elements), frozenset(facts), interp), changes

    def round(self, i: int) -> list[Op]:
        rng = _rng(self.name, self.seed, i)
        ops = []
        for g in self.gadgets:
            if g.suite_draw is not None:
                size, density = g.suite_draw(i)
                d = _random_database(g.pair.schema, size, density, rng)
                trial = functools.partial(_gadget_trial, g.pair, d, g.multiplier)
                ops.append(Op(f"{g.name}/suite", trial, (g, None)))
            d, changes = self._perturb(g, rng)
            exact = g.witness_counts if changes == 0 else None
            trial = functools.partial(_gadget_trial, g.pair, d, g.multiplier)
            ops.append(Op(f"{g.name}/witness", trial, (g, (changes, exact))))
        d = _random_database(self._ORACLE_SCHEMA, 2 + i % 3, 0.2 + 0.6 * ((i * 7) % 10) / 10, rng)
        q = _random_query(self._ORACLE_SCHEMA, rng, constants=i % 3 == 0)
        ops.append(Op("oracle", functools.partial(_oracle_count, q, d), (q, d)))
        return ops

    def check(self, op: Op, result) -> Optional[str]:
        if op.kind == "oracle":
            q, d = op.expect
            want = count_by_enumeration(q, d)
            return None if result == want else f"engine counted {result}, enumeration {want}"
        g, witness = op.expect
        s, b, holds = result
        if not holds:
            return f"{g.name}: bound s <= {g.multiplier} * b broken by ({s}, {b})"
        if witness is not None and witness[0] == 0:
            exact = witness[1]
            if exact is not None and (s, b) != exact:
                return f"{g.name} witness counts ({s}, {b}), expected {exact}"
            if exact is None and (b == 0 or s != g.multiplier * b):
                return f"{g.name} witness counts ({s}, {b}) break s = c*b != 0"
        return None

    def tally(self, op: Op, result) -> None:
        if op.kind != "oracle" and result is not None:
            counts = self.trials[op.kind.split("/")[1]]
            counts[0] += 1
            counts[1] += result[0] > 0

    def shape(self) -> dict:
        done = sum(t[0] for t in self.trials.values())
        shares = {f"nonvacuous_share_{style}": round(t[1] / max(t[0], 1), 4)
                  for style, t in self.trials.items()}
        nonvacuous = sum(t[1] for t in self.trials.values())
        return {"nonvacuous_share": round(nonvacuous / max(done, 1), 4), **shares}


# ---------------------------------------------------------------- reduce-ladder

# name -> (number of variables, terms); index 1 is the homogenizer.
RUNGS: dict[str, tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]] = {
    "x-1": (2, ((1, (2,)), (-1, ()))),
    "x-2": (2, ((1, (2,)), (-2, ()))),
    "xy-2": (3, ((1, (2, 3)), (-2, ()))),
    "x+y-2": (3, ((1, (2,)), (1, (3,)), (-2, ()))),
    "x-3": (2, ((1, (2,)), (-3, ()))),
    "xy-6": (3, ((1, (2, 3)), (-6, ()))),
}

# One round of the ladder: (rung, v(1) of each of its ops).  Cheap rungs
# come often and the frontier once, so the median falls among the x-2 /
# xy-2 ops and the round still reaches the per-op limit.
_LADDER_ROUND: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("x-1", (1, 1, 1, 1, 1, 1, 0, 2)),
    ("x-2", (1, 1, 1, 1)),
    ("xy-2", (1, 1, 1, 1)),
    ("x+y-2", (1, 1)),
    ("x-3", (1,)),
    ("xy-6", (1,)),
)


def decide(poly: Polynomial, v: dict[int, int], workdir: str):
    """The `reduce` -> `classify` path for one (polynomial, valuation) pair."""
    inst = polyreduce.normalize_hilbert(poly)
    out = encoder.assemble(inst)
    formats.save_encoder_output(out, workdir)
    out = formats.load_encoder_output(workdir)
    d = encoder.build_correct_database(out.instance, v)
    s = qalgebra.eval_expr(out.phi_s, d)
    b = qalgebra.eval_expr(out.phi_b, d)
    verdict = compare_counts(out.c * s, b)
    label = encoder.classify_database(d, out.instance)
    return verdict, label, encoder.extract_valuation(d, out.instance)


def _roots(terms, num_vars: int, box: int) -> list[tuple[int, ...]]:
    return [
        values
        for values in itertools.product(range(box + 1), repeat=num_vars - 1)
        if _poly_value(terms, dict(zip(range(2, num_vars + 1), values))) == 0
    ]


class ReduceLadder(Workload):
    """Polynomials of growing `pi_b` size, each compiled, saved, loaded and
    decided on a correct database; the frontier rung hits the op limit."""

    name = "reduce-ladder"
    tail_pct = 70.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.roots = {name: _roots(terms, n, 6) for name, (n, terms) in RUNGS.items()}
        self.undecided = {name: 0 for name in RUNGS}

    def round(self, i: int) -> list[Op]:
        rng = _rng(self.name, self.seed, i)
        ops = []
        for name, firsts in _LADDER_ROUND:
            num_vars, terms = RUNGS[name]
            for v1 in firsts:
                if rng.random() < 0.5:
                    rest = rng.choice(self.roots[name])
                else:
                    rest = tuple(rng.randint(1, 3) for _ in range(num_vars - 1))
                v = {1: v1, **dict(zip(range(2, num_vars + 1), rest))}
                poly = Polynomial(num_vars, terms)
                ops.append(Op(name, functools.partial(decide, poly, v, self.workdir), v))
        return ops

    def check(self, op: Op, result) -> Optional[str]:
        verdict, label, valuation = result
        v = op.expect
        if (verdict == "greater") != _greater_expected(RUNGS[op.kind][1], v):
            return f"{op.kind} at {v}: verdict {verdict}"
        if label is not DbClassification.CORRECT:
            return f"{op.kind} at {v}: correct database classified {label}"
        if valuation != v:
            return f"{op.kind} at {v}: extracted valuation {valuation}"
        return None

    def tally(self, op: Op, result) -> None:
        self.undecided[op.kind] += result is None

    def shape(self) -> dict:
        pi_b_vars = {}
        for name, (n, terms) in RUNGS.items():
            out = encoder.assemble(polyreduce.normalize_hilbert(Polynomial(n, terms)))
            pi_b_vars[name] = len(out.pi_b.variables)
        return {"pi_b_variables": pi_b_vars, "undecided_ops": self.undecided}


# ---------------------------------------------------------------- search-mix

_SEARCH_INSTANCES = {"x-1": RUNGS["x-1"], "2x+1": (2, ((2, (2,)), (1, ())))}

# One round per instance; a quarter of the candidates are drawn the way
# `search_counterexample` draws them, the rest perturb a correct database
# along the paper's four-way split.
_SEARCH_ROUND = ("random", "random", "extra-fact", "extra-fact", "merge", "merge",
                 "x-successors", "free-element")

_EXPECTED_CLASS = {
    "extra-fact": DbClassification.SLIGHTLY_INCORRECT,
    "merge": DbClassification.SERIOUSLY_INCORRECT,
    "x-successors": DbClassification.CORRECT,
    "free-element": DbClassification.CORRECT,
}


def judge(out, d: Database):
    """One candidate of `bagcq search`: the c*phi_s vs phi_b verdict, then
    the four-way classification."""
    s = qalgebra.eval_expr(out.phi_s, d)
    b = qalgebra.eval_expr(out.phi_b, d)
    return compare_counts(out.c * s, b), encoder.classify_database(d, out.instance)


def _correct_database(out, v: dict[int, int]) -> Database:
    """The compiled arena plus v(n) fresh X-successors of each b_n."""
    arena = out.arena_db
    elements = set(arena.elements)
    facts = set(arena.facts)
    for n, count in v.items():
        source = arena.const_interp[f"b{n}"]
        for j in range(1, count + 1):
            elements.add(f"e{n}_{j}")
            facts.add(Fact("X", (source, f"e{n}_{j}")))
    return Database(arena.schema, frozenset(elements), frozenset(facts), dict(arena.const_interp))


class SearchMix(Workload):
    """The traffic of `bagcq search` on the compiled x-1 (a root) and 2x+1
    (no root) instances: one op judges one candidate database."""

    name = "search-mix"
    tail_pct = 95.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.classes = {c.value: 0 for c in DbClassification}
        self.instances = []
        for name, (n, terms) in _SEARCH_INSTANCES.items():
            out = encoder.assemble(polyreduce.normalize_hilbert(Polynomial(n, terms)))
            self.instances.append((name, terms, out))

    def _candidate(self, kind: str, slot: int, out, rng: random.Random):
        """(database, expected class or None, valuation it encodes or None)."""
        schema = out.arena_db.schema
        if kind == "random":
            density = 0.1 + 0.8 * rng.random()
            return _random_database(schema, 2 + slot % 2, density, rng), None, None
        n_count = out.instance.n_count
        v = {1: rng.choice((1, 1, 1, 2)), **{n: rng.randint(0, 3) for n in range(2, n_count + 1)}}
        if kind == "x-successors":
            n = rng.randint(1, n_count)
            v[n] = v[n] + 1 if v[n] == 0 or rng.random() < 0.5 else v[n] - 1
        d = _correct_database(out, v)
        if kind == "extra-fact":
            vocab = [rel for rel, _ in schema.relations if rel[0] in "SR"]
            elements = sorted(d.elements)
            while True:
                fact = Fact(rng.choice(vocab), (rng.choice(elements), rng.choice(elements)))
                if fact not in d.facts:
                    break
            d = Database(schema, d.elements, d.facts | {fact}, dict(d.const_interp))
        elif kind == "merge":
            c1, c2 = rng.sample(schema.constants, 2)
            if {c1, c2} == {MARS, VENUS}:
                c2 = "a"
            d = map_elements(d, {d.const_interp[c2]: d.const_interp[c1]})
        elif kind == "free-element":
            d = Database(schema, d.elements | {"free1"}, d.facts, dict(d.const_interp))
        return d, _EXPECTED_CLASS[kind], v

    def round(self, i: int) -> list[Op]:
        rng = _rng(self.name, self.seed, i)
        ops = []
        for name, terms, out in self.instances:
            for slot, kind in enumerate(_SEARCH_ROUND):
                d, label, v = self._candidate(kind, slot, out, rng)
                expect = (terms, out, d, label, v)
                ops.append(Op(f"{name}/{kind}", functools.partial(judge, out, d), expect))
        return ops

    def check(self, op: Op, result) -> Optional[str]:
        verdict, label = result
        terms, out, d, want_label, v = op.expect
        if want_label is not None and label is not want_label:
            return f"{op.kind}: classified {label}, expected {want_label}"
        if v is None and label is DbClassification.CORRECT:
            v = encoder.extract_valuation(d, out.instance)
        if label is DbClassification.CORRECT:
            if (verdict == "greater") != _greater_expected(terms, v):
                return f"{op.kind} at {v}: verdict {verdict}"
        elif verdict == "greater":
            return f"{op.kind}: verdict greater on a {label} database"
        return None

    def tally(self, op: Op, result) -> None:
        if result is not None:
            self.classes[result[1].value] += 1

    def shape(self) -> dict:
        return {"class_histogram": self.classes}

    def shape_ok(self, shape: dict) -> bool:
        return all(shape["class_histogram"].values())


# name -> class; each is built as cls(seed, workdir).
WORKLOADS = {cls.name: cls for cls in (VerifyGadgets, ReduceLadder, SearchMix)}


def probe(workdir: str) -> None:
    """Run the x-1 pipeline once, so lazy imports happen during set-up and
    every layer has at least one timed call."""
    n, terms = RUNGS["x-1"]
    verdict, _, _ = decide(Polynomial(n, terms), {1: 1, 2: 1}, workdir)
    if verdict != "greater":
        raise RuntimeError(f"set-up probe: x-1 at its root gave {verdict}")
