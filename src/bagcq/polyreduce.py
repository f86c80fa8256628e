"""Polynomial normalization for the root-existence reduction.

An arbitrary nonzero integer polynomial Q over variables indexed from 2
is reshaped, through squaring and sign-splitting, into a pair (P_s, P_b)
of natural-coefficient polynomials over indices from 1 and a constant
c >= 2 such that Q has a root over the naturals iff some valuation with
first coordinate 1 satisfies c * P_s > xi_1^d * P_b.  The pair is
homogeneous of a common degree d, shares its monomial list, puts the
fresh variable xi_1 first in every monomial, and satisfies
1 <= c_{s,m} <= c_{b,m} coefficientwise; those four properties are what
the query encoder consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .relcore import ValidationError

__all__ = [
    "Monomial",
    "Polynomial",
    "HilbertInstance",
    "normalize_hilbert",
    "validate_instance",
    "eval_poly",
    "find_root_bruteforce",
]

# A monomial is the nondecreasing tuple of its variable indices;
# () is the constant monomial 1.
Monomial = tuple[int, ...]


def _mono(indices: Iterable[int]) -> Monomial:
    out = tuple(sorted(indices))
    for i in out:
        if not isinstance(i, int) or i < 1:
            raise ValidationError(f"variable indices must be positive integers, got {i!r}")
    return out


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial in normalized sparse form.

    Terms are merged by monomial, zero coefficients dropped, and the term
    list kept sorted by descending monomial tuple, so equal polynomials
    compare equal and serialize identically.
    """

    num_vars: int
    terms: tuple[tuple[int, Monomial], ...] = ()

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValidationError(f"num_vars must be >= 1, got {self.num_vars}")
        merged: dict[Monomial, int] = {}
        for c, m in self.terms:
            mono = _mono(m)
            if mono and mono[-1] > self.num_vars:
                raise ValidationError(
                    f"monomial {mono} uses an index above num_vars={self.num_vars}"
                )
            merged[mono] = merged.get(mono, 0) + c
        object.__setattr__(
            self,
            "terms",
            tuple(
                (c, m)
                for m, c in sorted(merged.items(), key=lambda kv: kv[0], reverse=True)
                if c != 0
            ),
        )

    @classmethod
    def constant(cls, num_vars: int, c: int) -> Polynomial:
        return cls(num_vars, ((c, ()),))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(m) for _, m in self.terms), default=0)

    def variables_used(self) -> tuple[int, ...]:
        return tuple(sorted({i for _, m in self.terms for i in m}))

    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(m for _, m in self.terms)

    def coefficient(self, m: Iterable[int]) -> int:
        mono = _mono(m)
        for c, m2 in self.terms:
            if m2 == mono:
                return c
        return 0

    def __add__(self, other: Polynomial) -> Polynomial:
        n = max(self.num_vars, other.num_vars)
        return Polynomial(n, self.terms + other.terms)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.num_vars, tuple((-c, m) for c, m in self.terms))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        n = max(self.num_vars, other.num_vars)
        out = [
            (c1 * c2, m1 + m2)
            for c1, m1 in self.terms
            for c2, m2 in other.terms
        ]
        return Polynomial(n, tuple(out))

    def scale(self, c: int) -> Polynomial:
        return Polynomial(self.num_vars, tuple((c * a, m) for a, m in self.terms))


def eval_poly(p: Polynomial, v: Mapping[int, int]) -> int:
    """Exact value of p at the valuation v.

    v must cover every variable occurring in p, with natural values.
    """
    for i in p.variables_used():
        if i not in v:
            raise ValidationError(f"valuation misses variable {i}")
    for i, x in v.items():
        if not isinstance(x, int) or x < 0:
            raise ValidationError(f"valuation must be natural, got {i} -> {x!r}")
    total = 0
    for c, m in p.terms:
        prod = c
        for i in m:
            prod *= v[i]
        total += prod
    return total


def find_root_bruteforce(q: Polynomial, bound: int) -> Optional[dict[int, int]]:
    """Lexicographically least root of q with all values in 0..bound,
    over the variables that actually occur; None when the box has none."""
    if bound < 0:
        raise ValidationError(f"bound must be >= 0, got {bound}")
    used = q.variables_used()
    for values in itertools.product(range(bound + 1), repeat=len(used)):
        v = dict(zip(used, values))
        if eval_poly(q, v) == 0:
            return v
    return None


@dataclass(frozen=True)
class HilbertInstance:
    """Normalized root-existence instance of the polynomial q: the pair
    (P_s, P_b), the constant c, the shared monomial list, and the position
    relation mapping (variable index, position, monomial index).  Every
    field is a function of q; normalize_hilbert(q) rebuilds the instance."""

    q: Polynomial
    p_s: Polynomial
    p_b: Polynomial
    c_frak: int
    degree: int
    m_count: int
    n_count: int
    monomials: tuple[Monomial, ...]
    position_rel: frozenset[tuple[int, int, int]]
    p1: Polynomial
    p2: Polynomial


def validate_instance(inst: HilbertInstance) -> list[str]:
    """All violations of the instance invariants; empty means valid."""
    out: list[str] = []
    ms, mb = inst.p_s.monomials(), inst.p_b.monomials()
    if ms != mb or ms != inst.monomials:
        out.append("monomial lists of P_s, P_b and the instance differ")
    if len(inst.monomials) != inst.m_count:
        out.append(f"m_count={inst.m_count} but {len(inst.monomials)} monomials listed")
    for m in inst.monomials:
        if len(m) != inst.degree:
            out.append(f"monomial {m} has degree {len(m)}, expected {inst.degree}")
        if not m or m[0] != 1:
            out.append(f"monomial {m} does not start with variable 1")
        if m and m[-1] > inst.n_count:
            out.append(f"monomial {m} uses an index above n_count={inst.n_count}")
    for (cs, m1), (cb, _) in zip(inst.p_s.terms, inst.p_b.terms):
        if not 1 <= cs <= cb:
            out.append(f"coefficient order fails at {m1}: s={cs}, b={cb}")
    if inst.c_frak < 2:
        out.append(f"constant must be >= 2, got {inst.c_frak}")
    seen: dict[tuple[int, int], int] = {}
    for n, d, m in inst.position_rel:
        if not (1 <= n <= inst.n_count and 1 <= d <= inst.degree and 1 <= m <= inst.m_count):
            out.append(f"position triple {(n, d, m)} out of range")
            continue
        if (d, m) in seen:
            out.append(f"two variables at position {(d, m)}")
        seen[(d, m)] = n
        if inst.monomials[m - 1][d - 1] != n:
            out.append(f"position triple {(n, d, m)} disagrees with monomial {inst.monomials[m - 1]}")
    for d in range(1, inst.degree + 1):
        for m in range(1, inst.m_count + 1):
            if (d, m) not in seen:
                out.append(f"no variable at position {(d, m)}")
    return out


def normalize_hilbert(q: Polynomial) -> HilbertInstance:
    """Reshape a nonzero polynomial into a valid instance.

    Steps: square (roots preserved, values now nonnegative); split into
    positive and negative parts; P1 = negative part + 1, P2 = positive
    part (now Q(v) = 0 iff P1(v) > P2(v)); add the sum of all monomials
    to both so every coefficient is >= 1; homogenize to degree
    d = 1 + max degree by padding with the fresh variable xi_1; scale the
    second polynomial by the maximum coefficient c of the first.
    """
    if q.is_zero():
        raise ValidationError("the polynomial is identically zero")
    if 1 in q.variables_used():
        raise ValidationError("variable index 1 is reserved for the homogenizer")
    n = q.num_vars
    q_sq = q * q
    q_pos = Polynomial(n, tuple((c, m) for c, m in q_sq.terms if c > 0))
    q_neg = Polynomial(n, tuple((-c, m) for c, m in q_sq.terms if c < 0))
    p1 = q_neg + Polynomial.constant(n, 1)
    p2 = q_pos
    t_set = set(p1.monomials()) | set(p2.monomials())
    p_all = Polynomial(n, tuple((1, m) for m in t_set))
    degree = 1 + max(len(m) for m in t_set)

    def homogenize(p: Polynomial) -> Polynomial:
        return Polynomial(
            n, tuple((c, (1,) * (degree - len(m)) + m) for c, m in p.terms)
        )

    p_s = homogenize(p1 + p_all)
    c_frak = max(c for c, _ in p_s.terms)
    p_b = homogenize(p2 + p_all).scale(c_frak)
    monomials = p_s.monomials()
    position_rel = frozenset(
        (mono[pos - 1], pos, m_idx)
        for m_idx, mono in enumerate(monomials, 1)
        for pos in range(1, degree + 1)
    )
    return HilbertInstance(
        q=q,
        p_s=p_s,
        p_b=p_b,
        c_frak=c_frak,
        degree=degree,
        m_count=len(monomials),
        n_count=n,
        monomials=monomials,
        position_rel=position_rel,
        p1=p1,
        p2=p2,
    )
