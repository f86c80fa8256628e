"""Claims, their one checker, and the counterexample search.

A claim num * lhs(D) <= den * rhs(D) is what the bound suites and the
search assert.  `check_claim` runs one over any iterable of databases
from `generators` and reports the number checked, the non-vacuous ones
(lhs(D) > 0), the less / equal / greater histogram and the first
violator, shrunk on request by greedy fact removal.  The search checks
a claim, such as a triple's c * phi_s(D) <= phi_b(D), over random
databases or every small fact set.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..counts import Count, compare_counts
from ..qalgebra import QueryExpr, eval_expr, expr_schema
from ..relcore import Database, ValidationError
from .generators import fact_subsets, search_databases

__all__ = ["Claim", "ClaimCheck", "check_claim", "SearchConfig", "search_claim"]


@dataclass(frozen=True)
class Claim:
    """num * lhs(D) <= den * rhs(D) on every non-trivial database D."""

    lhs: QueryExpr
    rhs: QueryExpr
    num: Count = Count.of(1)
    den: Count = Count.of(1)

    def sides(self, d: Database) -> tuple[Count, Count]:
        """num * lhs(D) and den * rhs(D)."""
        return self.num * eval_expr(self.lhs, d), self.den * eval_expr(self.rhs, d)


@dataclass
class ClaimCheck:
    checked: int = 0
    nonvacuous: int = 0
    verdicts: Counter = field(default_factory=Counter)
    violator: Optional[Database] = None
    violator_index: Optional[int] = None  # position of the violator in the source


def check_claim(claim: Claim, databases: Iterable[Database], shrink: bool = False) -> ClaimCheck:
    """Check the claim on each database up to the first violator, which
    shrink=True reduces to a minimal one.  Sources keep mars and venus
    apart and shrinking keeps the interpretation, so all are non-trivial."""
    result = ClaimCheck()
    for i, d in enumerate(databases):
        left, right = claim.sides(d)
        verdict = compare_counts(left, right)
        result.checked += 1
        result.nonvacuous += not left.is_zero()
        result.verdicts[verdict] += 1
        if verdict == "greater":
            result.violator = _shrink(claim, d) if shrink else d
            result.violator_index = i
            break
    return result


def _shrink(claim: Claim, d: Database) -> Database:
    """Greedy fact removal: drop the first fact, in sorted order, whose
    removal keeps the violation, until no single fact can go."""
    shrunk = True
    while shrunk:
        shrunk = False
        for f in sorted(d.facts, key=lambda f: (f.relation, f.elements)):
            smaller = Database(d.schema, d.elements, d.facts - {f}, dict(d.const_interp))
            if compare_counts(*claim.sides(smaller)) == "greater":
                d = smaller
                shrunk = True
                break
    return d


@dataclass(frozen=True)
class SearchConfig:
    max_domain: int = 3
    trials: int = 2000
    seed: int = 0
    mode: str = "random"
    max_states: int = 200_000

    def __post_init__(self) -> None:
        if self.mode not in ("random", "exhaustive"):
            raise ValidationError(f"unknown search mode {self.mode!r}")
        if self.max_domain < 2:
            raise ValidationError("searching needs at least two elements")
        if self.trials < 0 or self.max_states < 0:
            raise ValidationError("trials and max_states must be >= 0")


def search_claim(claim: Claim, cfg: SearchConfig) -> ClaimCheck:
    """Check the claim over cfg.trials random draws or the first
    cfg.max_states fact subsets, as cfg.mode picks; shrink any violator."""
    schema = expr_schema(claim.lhs).merge(expr_schema(claim.rhs))
    if cfg.mode == "exhaustive":
        databases = itertools.islice(fact_subsets(schema, cfg.max_domain), cfg.max_states)
    else:
        databases = search_databases(schema, cfg.max_domain, cfg.trials, cfg.seed)
    return check_claim(claim, databases, shrink=True)
