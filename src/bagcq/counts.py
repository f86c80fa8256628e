"""Exact natural numbers kept in factored form.

A Count denotes the product of base**exponent pairs.  Queries built with
disjoint conjunction and power operators evaluate to numbers whose
exponents can be astronomically large, so counts are never required to be
materialized; comparison is exact regardless of magnitude.

Normal form: factors sorted by base, with pairwise-coprime bases >= 2
obtained by factor refinement (Bach, Driscoll & Shallit, J. Algorithms
1993), which needs only gcds; value one is ((1, 1),) and value zero is
((0, 1),).  The form is not unique (12^1 and 2^2*3^1 are both refined),
so equality refines the bases of both operands together: pairwise-coprime
bases are multiplicatively independent, so two values are equal exactly
when their exponents over the joint basis agree.  Unequal values that
size bounds cannot separate are ordered by interval bounds on Σ e·ln(b)
from the standard-library decimal module.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import Iterable

# Values whose size bound fits in this many bits may be materialized to a
# plain int during comparison.
_MATERIALIZE_BITS = 1 << 24

# Log comparison tries 20, 80, 320, ... decimal digits, up to this cap.
_MAX_LOG_DIGITS = 20 * 4**4

# Hashes are values modulo this prime, so equal values hash equal.
_HASH_PRIME = (1 << 61) - 1


class ComparisonUndecidedError(ArithmeticError):
    """Log precision cap hit without separating the two values."""


def _refine(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Factor refinement: {base: exp} with pairwise-coprime bases >= 2.

    The product of base**exp is unchanged.  Exponents may be negative (a
    quotient); a base whose exponents cancel drops out.  Two bases sharing
    g = gcd(b, c) > 1, with b = g^i*b' and c = g^j*c' where g divides
    neither b' nor c', split as b^e*c^f = b'^e*c'^f*g^(i*e+j*f), which
    strictly lowers the product of all bases, so the loop ends.
    """
    basis: dict[int, int] = {}
    todo = [(b, e) for b, e in pairs if b != 1 and e != 0]
    while todo:
        b, e = todo.pop()
        c = next((c for c in basis if math.gcd(b, c) > 1), None)
        if c is None:
            basis[b] = e
            continue
        f = basis.pop(c)
        g = math.gcd(b, c)
        (b, kb), (c, kc) = _divide_out(b, g), _divide_out(c, g)
        split = ((b, e), (c, f), (g, kb * e + kc * f))
        todo += [(x, k) for x, k in split if x != 1 and k != 0]
    return basis


def _divide_out(b: int, g: int) -> tuple[int, int]:
    """(b / g**k, k) for the largest k with g**k dividing b.

    Squaring g at each level takes O(log k) divisions, not k.
    """
    if b % g:
        return b, 0
    r, k = _divide_out(b, g * g)
    return (r // g, 2 * k + 1) if r % g == 0 else (r, 2 * k)


def _normalize(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    pairs = list(pairs)
    for base, exp in pairs:
        if base < 0 or exp < 0:
            raise ValueError(f"negative base or exponent in ({base}, {exp})")
    if any(base == 0 and exp > 0 for base, exp in pairs):
        return ((0, 1),)
    return tuple(sorted(_refine(pairs).items())) or ((1, 1),)


@dataclass(frozen=True, eq=False)
class Count:
    """An exact natural in factored form Π base**exp."""

    factors: tuple[tuple[int, int], ...] = ((1, 1),)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", _normalize(self.factors))

    @classmethod
    def of(cls, n: int) -> Count:
        if n < 0:
            raise ValueError(f"counts are naturals, got {n}")
        return cls(((n, 1),))

    def is_zero(self) -> bool:
        return self.factors == ((0, 1),)

    def is_one(self) -> bool:
        return self.factors == ((1, 1),)

    def mul(self, other: Count) -> Count:
        if self.is_zero() or other.is_zero():
            return Count.of(0)
        return Count(self.factors + other.factors)

    def pow(self, k: int) -> Count:
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return Count.of(1)
        return Count(tuple((b, e * k) for b, e in self.factors))

    def bits_upper(self) -> int:
        """Upper bound on the bit length of the value."""
        if self.is_zero():
            return 1
        return sum(e * b.bit_length() for b, e in self.factors)

    def bits_lower(self) -> int:
        """Lower bound on the bit length of the value."""
        if self.is_zero() or self.is_one():
            return 1
        return sum(e * (b.bit_length() - 1) for b, e in self.factors) + 1

    def value(self, max_bits: int = _MATERIALIZE_BITS) -> int:
        """Materialize to an int; refuses when the size bound exceeds max_bits."""
        if self.bits_upper() > max_bits:
            raise OverflowError(f"count needs more than {max_bits} bits to materialize")
        v = 1
        for b, e in self.factors:
            v *= b**e
        return v

    def _quotient(self, other: Count) -> dict[int, int]:
        """self/other over the joint coprime basis of two nonzero counts; {} when equal."""
        return _refine(self.factors + tuple((b, -e) for b, e in other.factors))

    def compare(self, other: Count) -> int:
        """-1, 0 or 1; exact for any magnitudes."""
        if self.factors == other.factors:
            return 0
        if self.is_zero():
            return -1
        if other.is_zero():
            return 1
        q = self._quotient(other)
        if not q:
            return 0
        a = Count(tuple((b, e) for b, e in q.items() if e > 0))
        b = Count(tuple((b, -e) for b, e in q.items() if e < 0))
        if a.bits_upper() < b.bits_lower():
            return -1
        if b.bits_upper() < a.bits_lower():
            return 1
        if max(a.bits_upper(), b.bits_upper()) <= _MATERIALIZE_BITS:
            va, vb = a.value(), b.value()
            return (va > vb) - (va < vb)
        return _log_sign(q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Count):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.factors == other.factors
        return not self._quotient(other)

    def __hash__(self) -> int:
        return math.prod(pow(b, e, _HASH_PRIME) for b, e in self.factors) % _HASH_PRIME

    def __lt__(self, other: Count) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: Count) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: Count) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: Count) -> bool:
        return self.compare(other) >= 0

    def __mul__(self, other: Count) -> Count:
        return self.mul(other)

    def __pow__(self, k: int) -> Count:
        return self.pow(k)

    def __int__(self) -> int:
        return self.value()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.is_one():
            return "1"
        return "*".join(f"{b}^{e}" for b, e in self.factors)


def _log_sign(q: dict[int, int]) -> int:
    """Sign of Σ e·ln(b) over a nonempty coprime quotient, escalating precision.

    decimal's ln is correctly rounded, so its neighbours at the working
    precision bracket ln(b); products and sums are rounded outward.  The
    bases are multiplicatively independent, so the sum is not zero and
    some precision separates it from zero.
    """
    digits = 20
    while digits <= _MAX_LOG_DIGITS:
        down = decimal.Context(
            prec=digits, rounding=decimal.ROUND_FLOOR, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
        )
        up = down.copy()
        up.rounding = decimal.ROUND_CEILING
        lo = hi = decimal.Decimal(0)
        for b, e in q.items():
            ln = down.ln(b)
            small, large = down.next_minus(ln), down.next_plus(ln)
            if e < 0:
                small, large = large, small
            lo = down.add(lo, down.multiply(e, small))
            hi = up.add(hi, up.multiply(e, large))
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        digits *= 4
    raise ComparisonUndecidedError(
        f"values too close to separate at {_MAX_LOG_DIGITS} digits: {q}"
    )


def compare_counts(a: Count, b: Count) -> str:
    """Exact three-way comparison: 'less', 'equal' or 'greater'."""
    c = a.compare(b)
    return "less" if c < 0 else "greater" if c > 0 else "equal"
