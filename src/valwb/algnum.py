"""Algebraic elements over K = k(t) with explicit certificates.

An :class:`AlgElement` bundles a truncated Puiseux expansion with an optional
monic polynomial certificate.  Nothing here infers irreducibility: the
certificate records a degree upper bound, and a separate flag says whether
the caller certified irreducibility.  Degree queries, conjugation twists and
Krasner constants all refuse to answer rather than guess.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    NoRootOfUnity,
    NotARoot,
    PrecisionExhausted,
    Uncertified,
    WorkbenchError,
)
from .field import BaseField
from .groupval import GroupVal
from .polyx import RATFUNC, PolyX, ShiftRows, _polygon
from .series import PuiseuxSeries, RatFunc, min_prec


class AlgElement:
    """A series expansion plus an optional monic polynomial certificate; its flag is None
    where :func:`attach_minpoly` could not decide Q(s) = 0."""

    __slots__ = ("expansion", "minpoly", "irreducible_certified")

    def __init__(self, expansion: PuiseuxSeries, minpoly: Optional[PolyX] = None,
                 irreducible_certified: bool = False):
        self.expansion = expansion
        self.minpoly = minpoly
        self.irreducible_certified = irreducible_certified

    @property
    def field(self) -> BaseField:
        return self.expansion.field

    def __repr__(self):
        tag = ""
        if self.minpoly is not None:
            tag = f", minpoly {self.minpoly.to_text()}"
            if self.irreducible_certified:
                tag += " (irreducible)"
        return f"AlgElement({self.expansion.to_text()}{tag})"

    def degree(self) -> int:
        """Certified degree over K.

        Two routes: a certified-irreducible minimal polynomial, or pure
        ramification (the expansion needs t^{1/e} and k has a primitive
        e-th root of unity, so X^e - u is irreducible territory at desk
        scale).  Anything else refuses.
        """
        if self.minpoly is not None and self.irreducible_certified:
            return self.minpoly.degree()
        if self.irreducible_certified is None:  # Q(s) = 0 undecided: raise its refusal
            self.minpoly.value_at(self.expansion)
        e = self.expansion.ram
        if e > 1 and self.field.root_of_unity(e) is not None:
            return e
        raise Uncertified("no certified minimal polynomial and no pure-ramification route")


def attach_minpoly(s: PuiseuxSeries, Q: PolyX, irreducible: bool = False) -> AlgElement:
    """Certify that s is a root of the monic polynomial Q (up to precision).

    The validation evaluates Q at s; a decidable nonzero valuation of the
    result refutes the certificate, while an evaluation indistinguishable
    from zero at the available precision certifies it.  Q is certified as s's
    minimal polynomial (as ``irreducible`` asserts) when deg Q is s's degree and
    Q(s) = 0 exactly: 1 for an element of K, e for an exact series of tame
    ramification e (Q is its norm from K(t^(1/e))); undecided there, the flag is None.
    """
    if Q.domain != RATFUNC or not Q.is_monic():
        raise WorkbenchError("certificate must be a monic polynomial over K")
    value = None
    with contextlib.suppress(PrecisionExhausted):  # Q(s) is not built; 0 at s's cap certifies
        if (value := Q.value_at(s)).is_fin:
            raise NotARoot(f"Q(s) has valuation {value.to_text()}, decidably nonzero")
    p = s.field.char
    if s.source is not None:  # an element of K, its expansion capped
        minimal = Q.degree() == 1 and Q.evaluate(s.source).is_zero()
    else:  # value is +inf at an exact root, None where undecided
        minimal = s.prec is None and (not p or s.ram % p > 0) and Q.degree() == s.ram and \
            (None if value is None else True)
    return AlgElement(s, Q, irreducible_certified=irreducible or minimal)


def galois_twist(a: AlgElement, m: int) -> AlgElement:
    """The conjugate sending t^{1/e} to zeta_e^m t^{1/e}.

    Multiplies the coefficient of t^{n/e} by zeta^{nm}; this is a
    valuation-preserving automorphism of the ramified tower, so the twist
    keeps the same certificate.
    """
    s = a.expansion
    e = s.ram
    zeta = s.field.root_of_unity(e)
    if zeta is None:
        raise NoRootOfUnity(f"base field {s.field!r} has no primitive root of unity of order {e}")
    f = s.field
    coeffs = {n: f.mul(c, f.pow(zeta, (n * m) % e)) for n, c in s.coeffs.items()}
    twisted = PuiseuxSeries(f, e, coeffs, s.prec)
    return AlgElement(twisted, a.minpoly, a.irreducible_certified)


def artin_schreier_translate(a: AlgElement, c) -> AlgElement:
    """The conjugate a + c for a certified Artin-Schreier certificate.

    Valid when the certificate has the shape X^p - X - u with p = char k:
    the roots differ by the prime-field constants.
    """
    if not _is_artin_schreier(a):
        raise Uncertified("translate conjugation needs an X^p - X - u certificate")
    shifted = a.expansion + PuiseuxSeries.constant(a.field, c)
    return AlgElement(shifted, a.minpoly, a.irreducible_certified)


def _is_artin_schreier(a: AlgElement) -> bool:
    """True iff a's certificate has the shape X^p - X - u with p = char k > 0."""
    Q, p = a.minpoly, a.field.char
    if not p or Q is None or Q.degree() != p:
        return False
    mid = all(Q.coeff(i).is_zero() for i in range(2, p))
    return mid and Q.coeff(1) == -RatFunc.one(Q.field)


def conjugates(a: AlgElement) -> list:
    """All conjugates reachable by the supported twists, as expansions.

    Pure-ramification elements give the e monomial twists; Artin-Schreier
    certified elements give the p prime-field translates.
    """
    f = a.field
    e = a.expansion.ram
    if _is_artin_schreier(a):
        return [artin_schreier_translate(a, c).expansion for c in range(f.char)]
    if e > 1 and f.root_of_unity(e) is not None:
        return [galois_twist(a, m).expansion for m in range(e)]
    raise Uncertified("conjugates not enumerable by the supported twist families")


def krasner_constant(a: AlgElement) -> GroupVal:
    """omega(a) = max v(sigma a - tau a) over distinct conjugates.

    Where :func:`conjugates` enumerates them, by the closed form of its family: the p
    translates a + c differ by the nonzero constants of F_p, so omega(a) = 0 (refused when
    a's cap hides t^0); two twists whose index difference has order d > 1 in Z/e differ at
    exactly the keys n with d not dividing n, so omega(a) is the max over d | e of the least
    such n/e, reached at a prime d (a's characteristic exponents).  No min is empty: the
    keys of a series of ramification e share no factor with e.  Otherwise the slopes of the
    certificate recentered at a, which are the v(sigma a - a).
    """
    if a.degree() < 2:
        raise Uncertified("the Krasner constant needs an element of degree >= 2")
    f, s = a.field, a.expansion
    if _is_artin_schreier(a):
        if s.prec is not None and s.prec <= 0:
            raise PrecisionExhausted(
                "conjugate difference indistinguishable from 0 at this precision")
        return GroupVal.fin(0)
    if s.ram > 1 and f.root_of_unity(s.ram) is not None:
        return GroupVal.fin(Fraction(max(min(n for n in s.coeffs if n % d)
                                         for d in _divisors(s.ram)[1:]), s.ram))
    # off the twist route, degree >= 2 came from a certified minimal polynomial
    slopes = [sl for sl, _ in a.minpoly.newton_polygon(s) if not sl.is_inf]
    if not slopes:
        raise Uncertified("all certificate roots coincide with the element")
    return max(slopes)


# ---------------------------------------------------------------------------
# roots in the completion
# ---------------------------------------------------------------------------

@dataclass
class Linear:
    """A ram-1 root of the certificate was found: the element lies in k((t))."""
    root: PuiseuxSeries


@dataclass
class NoRootFound:
    """No ram-1 root detected within the budget; a desk-scale verdict."""
    budget: Fraction


def minpoly_over_completion(a: AlgElement, budget) -> object:
    """Search for a root of a's certificate inside k((t)) by digit recursion.

    At each step the Newton polygon of the certificate recentered at the
    partial sum proposes candidate next exponents; only integer exponents
    are admissible (the root must have ramification 1), and each candidate
    coefficient must solve the residue equation of its polygon segment.
    When a's own expansion has ramification 1 it guides the branch choice.
    Both are read off the rows of one polyx.ShiftRows, each C_i's least key,
    cap and scalar at the partial sum, which each digit shifts by its monomial.
    A slope at or above the budget ends the search only with a digit in k.
    Returns Linear(root) or NoRootFound(budget); a budget that is not positive is refused.
    """
    if a.minpoly is None:
        raise Uncertified("root search needs a polynomial certificate")
    budget = Fraction(budget)
    if budget <= 0:
        raise WorkbenchError(f"root search budget must be positive, got {budget}")
    guide = a.expansion if a.expansion.ram == 1 else None
    f, keys = a.field, sorted(guide.coeffs) if guide is not None else None
    Q = ShiftRows(f, a.minpoly.to_series(budget + 8).coeffs)  # Q = sum C_i (X - x)^i
    digits, last = {}, Fraction(-1) * 10**9  # x = sum of the digits c t^mu, built on return
    while True:
        polygon = _polygon(Q.e, Q.rows)  # row i of C_i: its least key, cap and scalar there
        if any(s.is_inf for s, _ in polygon):
            return Linear(PuiseuxSeries(f, 1, digits, None))  # exact root
        candidates = [s.q for s, _ in polygon if not s.is_inf and s.q > last]
        if guide is not None:  # x is the guide's truncation: v(guide - x) is its next key
            if (i := bisect.bisect_right(keys, last)) == len(keys):  # x is all of the guide
                return Linear(PuiseuxSeries(f, 1, digits, min_prec(budget, guide.prec)))
            candidates = [mu for mu in candidates if mu == keys[i]]
        mu, c = next(((mu, c) for mu in sorted(candidates, reverse=True) if mu.denominator == 1
                      for c in _residue_roots(f, _residue_scalars(f, Q.e, Q.rows, mu))
                      if guide is None or c == guide.coeff_at(mu)), (None, None))
        if mu is None:  # no slope has a digit in k
            return NoRootFound(budget)
        if mu >= budget:  # a digit at or above the budget: x is the root to O(t^budget)
            return Linear(PuiseuxSeries(f, 1, digits, budget))
        digits[mu.numerator], last = c, mu
        Q.shift(c, mu.numerator)


def _residue_scalars(field: BaseField, e: int, rows, mu: Fraction) -> list:
    """phi(c): the scalars of the C_i on the line of slope mu, at the least height k + i mu e
    in units of 1/e (mu is an integer here), up to the last such i."""
    h = [None if k is None else k + i * mu.numerator * e for i, (k, _, _) in enumerate(rows)]
    line = min(y for y in h if y is not None)
    top = max(i for i, y in enumerate(h) if y == line)
    return [lead if y == line else field.zero() for y, (_, _, lead) in zip(h[:top + 1], rows)]


def _residue_roots(field: BaseField, phi: list) -> list:
    """Nonzero roots in k of the scalar polynomial phi, exact.

    F_p: brute force by Horner mod p (p is small in every supported configuration);
    Q: the roots P/Q in lowest terms, P | constant and Q | lead of the cleared
    integer polynomial, in the order of (|P|, Q), + before -.
    """
    if len(phi) < 2:
        return []
    if field.char > 0:
        p = field.char
        if p > 10**6:
            raise WorkbenchError("residue-root search infeasible for this characteristic")
        return [c for c in range(1, p)
                if not functools.reduce(lambda acc, x: (acc * c + x) % p, reversed(phi), 0)]
    den = math.lcm(*(c.denominator for c in phi))
    ints = [int(c * den) for c in phi]
    ints = ints[next(i for i, c in enumerate(ints) if c):]  # c = 0 is no nonzero root
    m = len(ints) - 1
    if m < 2:  # a linear phi solved directly
        return [Fraction(-ints[0], ints[1])] if m else []
    return [Fraction(sign * P, Q) for P in _divisors(abs(ints[0])) for Q in _divisors(abs(ints[-1]))
            if math.gcd(P, Q) == 1 for sign in (1, -1)
            if not sum(c * (sign * P)**i * Q**(m - i) for i, c in enumerate(ints))]


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
