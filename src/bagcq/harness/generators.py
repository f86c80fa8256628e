"""Seed-reproducible random structures, and the database sources that
claims are checked over.

All randomness flows through an explicit random.Random so that identical
arguments always produce identical objects; suites derive one seed per
trial so every failure replays in isolation.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from ..encoder import build_correct_database
from ..polyreduce import HilbertInstance
from ..relcore import MARS, VENUS, Atom, Const, Database, Fact, Query, Schema, ValidationError

__all__ = [
    "derive_seed", "random_database", "random_query",
    "random_databases", "search_databases", "fact_subsets", "correct_databases",
]


def derive_seed(seed: int, trial: int) -> int:
    """Per-trial seed; spacing keeps neighboring streams uncorrelated."""
    return seed * 1_000_003 + trial


def random_database(
    schema: Schema,
    domain_size: int,
    density: float,
    seed: int,
    nontrivial: bool = True,
) -> Database:
    """Each possible fact independently with probability density.

    Elements are e1..eN; with nontrivial=True the two distinguished
    constants go to e1 and e2 (so the result is non-trivial by
    construction), and that requires a domain of at least two.
    """
    if not 0.0 <= density <= 1.0:
        raise ValidationError(f"density must be in [0,1], got {density}")
    if domain_size < 1:
        raise ValidationError(f"domain_size must be >= 1, got {domain_size}")
    if nontrivial and domain_size < 2:
        raise ValidationError("a non-trivial database needs at least two elements")
    rng = random.Random(seed)
    elements = tuple(f"e{i}" for i in range(1, domain_size + 1))
    facts = []
    for rel, arity in schema.relations:
        for t in itertools.product(elements, repeat=arity):
            if rng.random() < density:
                facts.append(Fact(rel, t))
    interp = {"mars": "e1", "venus": "e2"} if nontrivial else {}
    return Database(schema, frozenset(elements), frozenset(facts), interp)


def random_query(
    schema: Schema,
    max_vars: int,
    max_atoms: int,
    seed: int,
    allow_inequalities: bool = True,
    allow_constants: bool = False,
) -> Query:
    """Small random query over the given schema.

    Terms are drawn from v1..v<max_vars> (every query gets at least one
    variable in play) and, when allowed, the schema's constants.
    """
    rng = random.Random(seed)
    n_vars = rng.randint(1, max_vars)
    variables = [f"v{i}" for i in range(1, n_vars + 1)]
    terms: list = list(variables)
    if allow_constants:
        terms += [Const(c) for c in schema.constants]

    def pick_term():
        return rng.choice(terms)

    atoms = []
    rels = list(schema.relations)
    for _ in range(rng.randint(0, max_atoms)):
        rel, arity = rng.choice(rels)
        atoms.append(Atom(rel, tuple(pick_term() for _ in range(arity))))
    neqs = []
    if allow_inequalities and rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            t1, t2 = pick_term(), pick_term()
            if t1 != t2:
                neqs.append((t1, t2))
    return Query(schema, tuple(atoms), tuple(neqs))


def random_databases(
    schema: Schema, seed: int, trials: range, sizes: int, low: float, spread: float, steps: int
) -> Iterator[Database]:
    """The suites' draw: trial t gets 2 + t % sizes elements, density
    low + spread * (t % steps) / steps, and seed derive_seed(seed, t)."""
    for t in trials:
        yield random_database(
            schema, 2 + t % sizes, low + spread * (t % steps) / steps, derive_seed(seed, t)
        )


def search_databases(schema: Schema, max_domain: int, trials: int, seed: int) -> Iterator[Database]:
    """The search's draw: random size and density per trial, and every
    constant beyond mars and venus placed on a random element."""
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, trial))
        size = rng.randint(2, max_domain)
        density = 0.1 + 0.8 * rng.random()
        d = random_database(schema, size, density, rng.randrange(1 << 31))
        elements = sorted(d.elements)
        spare = {c: rng.choice(elements) for c in schema.constants if c not in d.const_interp}
        yield Database(schema, d.elements, d.facts, {**d.const_interp, **spare})


def fact_subsets(schema: Schema, max_domain: int) -> Iterator[Database]:
    """Every fact set over e1..eN for N = 2..max_domain, as a bit mask
    counting up; mars and venus sit on e1 and e2, other constants rotate."""
    for n in range(2, max_domain + 1):
        elements = tuple(f"e{i}" for i in range(1, n + 1))
        interp = {MARS: elements[0], VENUS: elements[1]}
        spare = [name for name in schema.constants if name not in interp]
        interp.update(zip(spare, itertools.cycle(elements)))
        all_facts = [Fact(rel, t) for rel, arity in schema.relations
                     for t in itertools.product(elements, repeat=arity)]
        for mask in range(1 << len(all_facts)):
            facts = frozenset(f for i, f in enumerate(all_facts) if mask >> i & 1)
            yield Database(schema, frozenset(elements), facts, dict(interp))


def correct_databases(inst: HilbertInstance, box: int) -> Iterator[Database]:
    """The correct database of every valuation in {0..box}^n, in
    lexicographic order of the valuation."""
    for values in itertools.product(range(box + 1), repeat=inst.n_count):
        yield build_correct_database(inst, dict(zip(range(1, inst.n_count + 1), values)))
