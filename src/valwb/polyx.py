"""Polynomials in X over exact rational functions or truncated series.

Coefficients are homogeneous per polynomial (all :class:`RatFunc` or all
:class:`PuiseuxSeries`) and are used through the protocol both classes share
(``is_exact_zero``, ``is_unknown_zero``, ``val``, ``zero``/``one``,
``to_series``).  The ``domain`` marker is derived from the leading
coefficient; the zero polynomial is exact and counts as "ratfunc".
Construction trims exactly-zero leading coefficients and fails with
PrecisionExhausted if the leading coefficient is an unknown-zero, so a built
polynomial always has a decidably nonzero leading coefficient (or is the zero
polynomial).

The root-data tool of the workbench is :meth:`PolyX.newton_polygon`: the
lower convex hull of (i, val C_i) after recentering, whose slopes give the
exact multiset of valuations of center-to-root differences.  Recentering, in
every characteristic, is one Taylor shift on packed integers at a center p/q
(q = 1 at a Puiseux or polynomial center) of coefficients in K or in the
completion, each with its own cap, whose rows :meth:`PolyX.recentered_values`
reads as keys and caps; the root search in k((t)) keeps them in a ShiftRows,
one monomial shift per digit.  :meth:`PolyX.recenter_hasse` builds the C_i
by the Hasse sum in the coefficient ring.  A product of polynomials in t and X
is one Kronecker product of integer images.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import compress, count

from .errors import ParseError, PrecisionExhausted, WorkbenchError, ZeroPolynomial
from .field import BaseField
from .groupval import GroupVal
from .series import (PuiseuxSeries, RatFunc, _bounded, _divide, _gcd, _mul, _pack, _pair,
                     _parse_term, _split_terms, _unpack, common_denominator, expansion_prec,
                     lattice_cap, lattice_product, min_prec, product_prec, tp_ord)
from .series import coerce  # noqa: F401  perfbench's tracer rebinds this name here

RATFUNC = "ratfunc"
SERIES = "series"
LEAD_UNDECIDED = "leading coefficient is not decidably nonzero at this precision"


class PolyX:
    """A polynomial in X with RatFunc or PuiseuxSeries coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: BaseField, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_exact_zero():
            coeffs.pop()
        if coeffs and coeffs[-1].is_unknown_zero():
            raise PrecisionExhausted(LEAD_UNDECIDED)
        if len(set(map(type, coeffs))) > 1:
            raise WorkbenchError("coefficients must be all RatFunc or all PuiseuxSeries")
        self.field = field
        self.coeffs = coeffs

    @property
    def domain(self) -> str:
        """SERIES for series coefficients; RATFUNC for exact ones and for 0."""
        if self.coeffs and isinstance(self.coeffs[-1], PuiseuxSeries):
            return SERIES
        return RATFUNC

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(field: BaseField) -> "PolyX":
        return PolyX(field, [])

    @staticmethod
    def from_ratfuncs(field: BaseField, coeffs) -> "PolyX":
        return PolyX(field, coeffs)

    @staticmethod
    def from_series(field: BaseField, coeffs) -> "PolyX":
        return PolyX(field, coeffs)

    @staticmethod
    def x_power(field: BaseField, k: int, domain: str = RATFUNC) -> "PolyX":
        one = PuiseuxSeries.one(field) if domain == SERIES else RatFunc.one(field)
        return PolyX(field, [one.zero(field)] * k + [one])

    # -- structure ------------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return (self.coeffs[-1] if self.coeffs else RatFunc).zero(self.field)

    def is_monic(self) -> bool:
        if self.is_zero():
            return False
        c = self.coeffs[-1]
        if self.domain == RATFUNC:
            return c == c.one(self.field)
        return c.ram == 1 and c.coeffs == {0: self.field.one()}  # 1 + O(t^p) counts too

    def to_series(self, prec=None) -> "PolyX":
        if self.domain == SERIES:
            return self
        return PolyX(self.field, [c.to_series(prec) for c in self.coeffs])

    # -- arithmetic -----------------------------------------------------------

    def _unify(self, other: "PolyX"):
        if self.field != other.field:
            raise WorkbenchError("base field mismatch")
        if self.domain == other.domain:
            return self, other
        return self.to_series(), other.to_series()

    def __add__(self, other: "PolyX") -> "PolyX":
        a, b = self._unify(other)
        short, long = sorted((a.coeffs, b.coeffs), key=len)
        return PolyX(a.field, [x + y for x, y in zip(short, long)] + long[len(short):])

    def __neg__(self):
        return PolyX(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "PolyX") -> "PolyX":
        a, b = self._unify(other)
        f = a.field
        if a.is_zero() or b.is_zero():
            return PolyX.zero(f)
        if a.domain == RATFUNC and all(c.is_polynomial() for c in a.coeffs + b.coeffs):
            # one Kronecker product in X and t: at the X-stride w no t-degree
            # of a coefficient product reaches the next slot
            w = max(len(c.nq[0]) for c in a.coeffs) + max(len(c.nq[0]) for c in b.coeffs) - 1
            (xs, da), (ys, db) = (common_denominator([c.nq for c in p.coeffs]) for p in (a, b))
            xs, ys = ([x for m in ms for x in m + [0] * (w - len(m))] for ms in (xs, ys))
            slots, d = _mul(xs, ys, f.char), da * db  # the top w - 1 slots are 0
            return PolyX(f, [RatFunc._of(f, _pair(f.char, slots[i:i + w], d))
                             for i in range(0, len(slots) - w + 1, w)])
        out = [a.coeffs[-1].zero(f)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                out[i + j] = out[i + j] + x * y
        return PolyX(f, out)

    def scale(self, c) -> "PolyX":
        """Multiply every coefficient by the coefficient-domain element c."""
        return PolyX(self.field, [x * c for x in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, PolyX):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    # -- evaluation and recentering ------------------------------------------------

    def _with_point(self, a):
        """(self, a) in one ring: K when both are exact elements of K, else
        the completion, the coefficients expanded to the point's cap."""
        if self.domain == RATFUNC and not isinstance(a, PuiseuxSeries):
            return self, a
        a = a.to_series()
        return self.to_series(a.prec), a

    def evaluate(self, a):
        """Horner evaluation; the point may be RatFunc or PuiseuxSeries."""
        poly, a = self._with_point(a)
        acc = a.zero(self.field)
        for c in reversed(poly.coeffs):
            acc = acc * a + c
        return acc

    def horner_images(self, prec) -> tuple:
        """(c_j, images) for :meth:`value_at` at points with cap prec: the c_j in the completion,
        their integer images over one denominator (residues over F_p) on their own keys."""
        cs = self.to_series(prec).coeffs  # a leading coefficient lost at prec raises here
        keys, pairs = [], []  # a polynomial in K brings its own ints, a series its scalars
        for r, c in zip(self.coeffs, cs):
            xs, d = r.nq if r is not c and r.is_polynomial() else (c.coeffs.values(), None)
            keys.append([k for k, x in enumerate(xs) if x] if d else list(c.coeffs))
            pairs.append(([x for x in xs if x], d) if d else self.field.as_integers(xs))
        return cs, [dict(zip(k, x)) for k, x in zip(keys, common_denominator(pairs)[0])]

    def value_at(self, a: PuiseuxSeries, images=None) -> GroupVal:
        """``self.evaluate(a).val()`` at a series point, its value or its
        PrecisionExhausted, off integer Horner images with the caps of the series
        arithmetic; at an exact point first in a window of one key (README)."""
        cs, imgs = images or self.horner_images(a.prec)
        if cs and a.field != self.field:
            raise WorkbenchError("base field mismatch")
        if a.is_exact_zero():  # f(0) = c_0: every product is the exact zero
            cs, imgs = cs[:1], imgs[:1]
        n, p, e = len(cs) - 1, self.field.char, math.lcm(a.ram, *(c.ram for c in cs))
        keys, ys, da, va = point_images(a)
        ka = [k * (e // a.ram) for k in keys]
        lo = min(ka, default=0)

        def horner(reach):  # acc_j keeps its keys below reach - j lo: they reach acc_0's
            acc, cap = {}, None  # the exact zero, which times anything is the exact zero
            for j in range(n, -1, -1):
                if acc or cap is not None:
                    cap = product_prec(cap, Fraction(min(acc), e) if acc else cap, a.prec, va)
                cap, s, w = min_prec(cap, cs[j].prec), e // cs[j].ram, da ** (n - j)
                top = min(lattice_cap(cap, e), reach - j * lo)
                acc = lattice_product(acc, 1, list(acc.values()), ka, 1, ys, top) if acc else {}
                for k, x in imgs[j].items():
                    if k * s < top:
                        acc[k * s] = acc.get(k * s, 0) + x * w
                acc = {k: v for k, x in acc.items() if (v := x % p if p else x)}
            return acc, cap

        acc = None  # an exact point's caps do not read v(acc): first a pass on the least
        if a.prec is None and cs:  # key acc_0 can have, which is its value if it survives
            acc, cap = horner(1 + min((min(g) * (e // c.ram) + j * lo for j, (c, g)
                                       in enumerate(zip(cs, imgs)) if g), default=math.inf))
        if not acc:  # then, as at a capped point, a pass to the cap
            acc, cap = horner(math.inf)
        if acc:
            return GroupVal.fin(Fraction(min(acc), e))
        if cap is None:
            return GroupVal.posinf()
        raise PrecisionExhausted(f"series indistinguishable from 0 at precision O(t^{cap})")

    def recenter_hasse(self, a) -> list:
        """C_i with f(X) = sum C_i (X - a)^i by the Hasse-derivative formula, valid in every
        characteristic, in the ring of (self, a): exact over RatFunc, over series term by term."""
        poly, a = self._with_point(a)
        n = poly.degree()
        if n < 1 or a.is_exact_zero():
            # every shifted term carries a power of the exact zero
            return list(poly.coeffs)
        powers = [a.one(self.field)]
        for _ in range(n):
            powers.append(powers[-1] * a)
        one = self.field.one()
        out = []
        for i, row in enumerate(_hasse_binomials(self.field, n)):
            acc = poly.coeffs[i]
            for j, b in row:
                term = poly.coeffs[j] * powers[j - i]
                acc = acc + (term if b == one else term * type(a).constant(self.field, b))
            out.append(acc)
        return out

    def recentered_values(self, a) -> tuple:
        """The value profile (e, rows) of :meth:`recenter_hasse`'s C_i: row i is
        (k, cap), val C_i = k/e for the least surviving key k, or k None when no
        term survives below the cap (the exact zero if cap is None); no series."""
        a = a if self.domain == RATFUNC else a.to_series()
        return _packed_values(self.field, self.coeffs, a)

    # -- division ---------------------------------------------------------------

    def divmod_monic(self, Q: "PolyX"):
        """(quotient, remainder) for monic Q; works in both domains."""
        if not Q.is_monic():
            raise WorkbenchError("divisor must be monic")
        a, Q = self._unify(Q)
        dq = Q.degree()
        if a.degree() < dq:
            return PolyX.zero(a.field), a
        r = list(a.coeffs)
        qlen = a.degree() - dq + 1
        zero = r[-1].zero(a.field)
        q = [zero] * qlen
        for i in range(qlen - 1, -1, -1):
            c = r[i + dq]
            q[i] = c
            if c.is_exact_zero():
                continue
            for j in range(dq + 1):
                r[i + j] = r[i + j] - c * Q.coeffs[j]
            r[i + dq] = zero
        return PolyX(a.field, q), PolyX(a.field, r[:dq])

    def qadic_expand(self, Q: "PolyX") -> list:
        """Digits f_i with f = sum f_i Q^i and deg f_i < deg Q."""
        if not Q.is_monic() or Q.degree() < 1:
            raise WorkbenchError("Q must be monic of degree >= 1")
        digits = []
        rest = self
        while not rest.is_zero():
            rest, rem = rest.divmod_monic(Q)
            digits.append(rem)
        if not digits:
            digits.append(PolyX.zero(self.field))
        return digits

    # -- Newton polygon ------------------------------------------------------------

    def newton_polygon(self, center=None) -> list:
        """Root-difference valuations of f relative to ``center``.

        Returns [(slope, multiplicity), ...] with slopes in decreasing order;
        slope s with multiplicity m means exactly m roots z of f satisfy
        val(center - z) = s.  Exact roots at the center give slope PosInf.
        Raises PrecisionExhausted when a hull-determining coefficient
        valuation is undecidable at the available precision.
        """
        if self.is_zero():
            raise ZeroPolynomial("Newton polygon of the zero polynomial")
        return _polygon(*self.recentered_values(RatFunc.zero(self.field) if center is None
                                                else center))

    # -- text -----------------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if c.is_exact_zero():
                continue
            cs = c.to_text()
            xs = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
            if not xs:
                parts.append(f"[{cs}]")
            elif cs == "1":
                parts.append(xs)
            else:
                parts.append(f"[{cs}]*{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"PolyX({self.to_text()})"


def point_images(a: PuiseuxSeries) -> tuple:
    """(lattice keys, integers over one d (residues over F_p), d, val lower bound), kept."""
    return a.kept("point", lambda a: (list(a.coeffs), *a.field.as_integers(a.coeffs.values()),
                                      a.val_lower_bound()))


@functools.lru_cache(maxsize=64)
def _hasse_binomials(field: BaseField, n: int) -> tuple:
    """Row i lists (j, C(j, i)) for i < j <= n, the binomials coerced into
    the field and the ones that vanish there left out."""
    rows = []
    for i in range(n + 1):
        row = ((j, field.coerce(math.comb(j, i))) for j in range(i + 1, n + 1))
        rows.append(tuple((j, b) for j, b in row if b))
    return tuple(rows)


def _over_lcm(field, coeffs) -> tuple:
    """(cofactors, L) on integers (residues over F_p): L an lcm in k[t] of the denominators
    D_j of the c_j with a pole (one at least), cofactors[j] that of L/D_j at one scale for all j.
    A D_j is stored primitive over Q (monic over F_p), so each division by one is exact (Gauss's
    lemma): one per distinct D_j but the largest, a gcd where D_j does not divide L so far."""
    p = field.char
    dens = {tuple(c.dq[0]): c.dq for c in coeffs if not c.is_polynomial()}
    first, *rest = sorted(dens, key=len, reverse=True)
    L, cofactor = dens[first][0], {first: [dens[first][1]]}
    for d in rest:  # the cofactor of D_j = y/s is s L/y, as c_j = N_j s/y
        y, s = dens[d]
        q = _divide(L, y, p)
        if q is None:  # L grows by y/g, and so does every cofactor; L/y = L_old/g
            g = _gcd(L, y, p)
            grow, q = _divide(y, g, p), _divide(L, g, p)
            L, cofactor = _mul(L, grow, p), {k: _mul(v, grow, p) for k, v in cofactor.items()}
        cofactor[d] = [s * v for v in q]
    cofactor[(1,)] = L
    return [cofactor[tuple(c.dq[0])] for c in coeffs], L


# What _packed_values reads of a center a = s^lo A(s)/Q(s) alone: cap prec, P (a pole's cap),
# v = (vn, vd) for v(a) (None at 0), A's keys and integers ys at one scale with Q's, hi and low the
# largest and least key - lo, a1 = 1 + ||A||_1, Q (None at a constant q1 = ||Q||_1), dz = e deg Q.
ShiftPlan = namedtuple("ShiftPlan", "e prec P v lo keys ys hi low a1 q1 Q dz")


def _plan(e, prec, P, keys, ys, q1, Q=None) -> ShiftPlan:
    lo = min(0, least := min(keys, default=0))
    v = (least, e) if keys else None if prec is None else (prec.numerator, prec.denominator)
    return ShiftPlan(e, prec, P, v, lo, keys, ys, max(keys, default=lo) - lo, least - lo,
                     1 + sum(map(abs, ys)), q1, Q, e * len(Q) - e if Q else 0)


def _series_plan(a: PuiseuxSeries) -> ShiftPlan:
    s = _plan(a.ram, a.prec, expansion_prec(a.prec), *point_images(a)[:3])
    return s if a.source is None else _shift_plan(a.source)._replace(prec=a.prec, P=s.P, v=s.v)


def _shift_plan(a) -> ShiftPlan:
    """a's plan: kept in a series' (p/q's A and Q at its expansion), built per call at p/q."""
    if isinstance(a, PuiseuxSeries):
        return a.kept("shift", _series_plan)
    (xs, d), (zs, dd) = a.nq, a.dq
    tq = tp_ord(zs)  # t^(ord q) moves into lo
    keys, ys = [k for k, x in enumerate(xs, -tq) if x], [x for x in xs if x]
    if len(zs) == 1:
        return _plan(1, None, None, keys, ys, d)
    (ys, zs), _ = common_denominator([(ys, d), (zs[tq:], dd)])  # A and Q at one scale
    return _plan(1, None, None, keys, ys, sum(map(abs, zs)), zs)


def _packed_values(field: BaseField, coeffs, a) -> tuple:
    """:meth:`PolyX.recentered_values` for c_j in K or in the completion (the top one possibly 0
    or an unknown zero) at a = s^lo A(s)/Q(s), s = t^(1/e), lo <= 0, Q(0) != 0: one packed Taylor
    shift of the M_j Q^(n-j) by A (README), Q constant but at p/q.  Row i's cap: the least P_i and
    product_prec(P_j, v(c_j), Pa + (d-1)v(a), d v(a)) on its Hasse row, d = j - i, P_j a series
    c_j's cap or P for a pole (:func:`_row_caps`)."""
    n, p, inf, pole, caps, s = len(coeffs) - 1, field.char, math.inf, None, None, 1
    if zero := a.is_exact_zero():  # every shifted term carries a power of the exact zero: no plan
        e, P = 1, expansion_prec(None) if isinstance(a, PuiseuxSeries) else None
    else:
        e, prec, P, v, lo, keys, ys, hi, low, a1, q1, zs, dz = _shift_plan(a)
    if series := bool(coeffs) and isinstance(coeffs[-1], PuiseuxSeries):  # on (1/e)Z
        s = math.lcm(e, *[c.ram for c in coeffs]) // e
        e, caps = e * s, [c.prec for c in coeffs]
        ks = _least_keys(coeffs, e)
    else:
        ks = [0 if (xs := c.nq[0]) and xs[0] else tp_ord(xs) for c in coeffs]  # v(c_j)
        if any(pl := [len(c.dq[0]) > 1 for c in coeffs]):
            ks, pole = [o - tp_ord(c.dq[0]) if d else o
                        for o, c, d in zip(ks, coeffs, pl)], pl
            if P is not None:  # a pole c_j is known to O(t^P), an unknown zero from P on
                caps, ks = [P if d else None for d in pole], [None if d and o >= P else o
                                                              for o, d in zip(ks, pole)]
                if ks[n] is None:
                    raise PrecisionExhausted(LEAD_UNDECIDED)
        if e > 1:
            ks = [None if o is None else o * e for o in ks]
    direct = list(zip(ks, caps)) if caps else [(k, None) for k in ks]  # a row without terms: c_i
    if n < 1 or zero:
        return e, direct
    if a.field != field:
        raise WorkbenchError("base field mismatch")
    if s > 1:  # the center's keys with the coefficients'
        lo, keys, hi, low, dz = lo * s, [k * s for k in keys], hi * s, low * s, dz * s
    live = _row_caps(hasse := _hasse_binomials(field, n), ks, caps, prec, v, e)
    es, dm = 0, n * dz  # row i's slot 0 has the key lo(n - i) - es
    if series:  # terms[j]: c_j's slots, integers, top; a negative key k at the slot k + es
        es, terms, _ = _series_slots(coeffs, e, ks)
    else:  # the N_j over one denominator, t^k at the slot e k
        terms = [(range(0, e * len(m), e), m, e * len(m) - e)
                 for m in common_denominator([c.nq for c in coeffs])[0]]
    if pole:  # M_j = N_j L/D_j, ord M_j = v(c_j) + ord L; dm bounds deg M_j Q^(n-j) - deg N_j
        cofs, L = _over_lcm(field, coeffs)
        es, dm = e * tp_ord(L), dm + e * len(L) - e
    limit = max((row[1] - lo * (n - i) + es for i, row in enumerate(live) if row), default=0)
    nt = lambda terms=terms: sum(len(xs) - xs.count(0) for _, xs, _ in terms)  # uncut terms
    if limit < inf and limit + lo * n <= dm + max(t for _, _, t in terms):  # a slot of N_j
        # or L/D_j at or above c = limit + lo (n - j) lands in M_j at or above limit, which no
        terms = [(sl, xs, t) if t < (c := limit + lo * (n - j)) else  # row reads: dropped
                 (sl, xs[:max(0, -(-c // e))], t) if not series else
                 ([y for y in sl if y < c], [x for y, x in zip(sl, xs) if y < c], t)
                 for j, (sl, xs, t) in enumerate(terms)]
        if pole:
            cofs = [q[:max(0, -(-(limit + lo * (n - j)) // e))] for j, q in enumerate(cofs)]
    if limit == inf or zs:  # an uncapped row or one pass at p/q: at most
        limit = min(limit, 1 + dm + max((t - lo * (n - j) + j * hi
                                         for j, (_, xs, t) in enumerate(terms) if xs), default=0))
    b = ((n + 1) * sum(sum(map(abs, xs)) for _, xs, _ in terms) * q1**n * a1**n * (max(
        sum(map(abs, c)) for c in cofs) if pole else 1)).bit_length() // 8 * 8 + 8  # l1 bound
    width = limit if zs or not _sparse(limit * b, n, len(keys), nt()) else min(  # dense: one
        limit, max((ks[n] or 0) + es + n * low + 1, nt() if series else 0))  # pass at the span
    Q = q1 if zs is None else _pack(zs, b * e)  # at p/q with a pole: one pass, no window
    M = [(sum(x << b * k for k, x in zip(sl, xs)) if series else _pack(xs, b * e))
         * Q**(n - j) << b * -lo * (n - j) for j, (sl, xs, _) in enumerate(terms)]
    if pole:
        M = [v * _pack(c, b * e) for v, c in zip(M, cofs)]
    while True:
        mask = (1 << b * max(width, 0)) - 1
        A = sum(y << b * (k - lo) for k, y in zip(keys, ys) if k - lo < width)  # signed, narrow
        S = [m & mask for m in M]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                S[j] = (S[j] + A * S[j + 1]) & mask
        rows = [(_least_key(S[i], b, p, lo * (n - i) - es, row[1]), row[0]) if row else direct[i]
                for i, row in enumerate(live)]
        if width >= limit or all(r[0] is not None for r, row in zip(rows, live) if row):
            break
        missing = [i for i, row in enumerate(live)  # no key, below a cap the window has not
                   if row and rows[i][0] is None and row[1] - lo * (n - i) + es > width]  # reached
        if missing and not pole:  # a sparse span (the first pass was not the last): an
            for i in [i for i in missing if live[i][0] is None]:  # uncapped row is
                cs = [coeffs[i]] + [coeffs[i].zero(field)] * (n - i)
                for j, bj in hasse[i]:  # C_i = (D^i f)(a), exact, read off the sparse Horner
                    c = coeffs[j]  # sum of D^i f = sum C(j, i) c_j X^(j - i) at a
                    cs[j - i] = c if bj == 1 else c * type(c).constant(field, bj)
                val = PolyX(field, cs).value_at(a.to_series())
                live[i], direct[i] = None, (None if val.is_inf else int(val.q * e), None)
                rows[i] = direct[i]
            missing = [i for i in missing if live[i]]
        if not missing:
            break
        width = limit if any(live[i][0] is None for i in missing) else min(2 * width, limit)
    return e, rows


def _sparse(bits: int, n: int, keys: int, terms: int) -> bool:
    """Whether a span's bits exceed a Python int digit per term pair of the sparse sum (README)."""
    return bits > (n + 1) * keys * terms * sys.int_info.bits_per_digit


def _least_keys(coeffs, e: int) -> list:
    """Each series c_j's least key in units of 1/e, None without terms."""
    return [min(c.coeffs) * (e // c.ram) if c.coeffs else None for c in coeffs]


def _series_slots(coeffs, e: int, ks) -> tuple:
    """(es, terms, dc) for series c_j of least keys ks: each c_j's slots, its key k at k + es for
    es = -min(0, ks), its integers over one denominator dc (residues over F_p) and its top slot."""
    imgs, dc = common_denominator([point_images(c)[1:3] for c in coeffs])
    es = -min([0] + [k for k in ks if k is not None])
    return es, [(sl := [k * (e // c.ram) + es for k in c.coeffs], xs, max(sl, default=0))
                for c, xs in zip(coeffs, imgs)], dc


class ShiftRows:
    """The profile (e, rows) of f = sum C_i (X - x)^i for series c_j, each row with C_i's scalar at
    its least key, as an exact x grows by monomials c t^mu above its keys (README): dc D^(n - i) C_i
    = T_i, on b-bit slots below B_i from the key lam (n - i) - es; D the digits' denominator."""

    def __init__(self, field: BaseField, coeffs):
        self.field, self.cs, self.T, self.D = field, coeffs, None, 1
        self.e = math.lcm(*[c.ram for c in coeffs])
        self.ks = _least_keys(coeffs, self.e)
        self.rows = self.direct = [(k, c.prec, c.coeffs[min(c.coeffs)] if c.coeffs else None)
                                   for k, c in zip(self.ks, coeffs)]  # at x = 0: the c_j's own

    def shift(self, c, mu: int) -> None:
        """x += c t^mu: one Taylor shift by c = m/D, D = lcm(D, w) for c = u/w."""
        f, n, p, k = self.field, len(self.cs) - 1, self.field.char, mu * self.e
        (u, w), slots = (c, 1) if p else c.as_integer_ratio(), None
        D, passes = math.lcm(self.D, w), [j for i in range(n) for j in range(n - 1, i - 1, -1)]
        g, m = D // self.D, u * (D // w)  # c = m/D: row j onto D^(n - j), then T_j += m T_j+1

        def grown(B):  # the rows' slot bounds after the shift: its passes on |m| and the B_j
            B = [x * g**(n - j) for j, x in enumerate(B)]
            for j in passes:
                B[j] += abs(m) * B[j + 1]
            return B
        if self.T is None:  # the first digit fixes v(x), the rows' caps and the least key lam
            self.lam = min(0, k)
            self.live = _row_caps(_hasse_binomials(f, n), self.ks, [q.prec for q in self.cs],
                                  None, (k, self.e), self.e)
            self.es, terms, self.dc = _series_slots(self.cs, self.e, self.ks)
            slots = [dict(zip([j - self.lam * (n - i) for j in sl], xs))  # row i's slot 0 at
                     for i, (sl, xs, _) in enumerate(terms)]  # the key lam (n - i) - es
            slots = [[r.get(j, 0) for j in range(max(r, default=0) + 1)] for r in slots]
        elif max(B := grown(self.B)).bit_length() >= self.b:  # a slot could reach 2^(b - 1)
            slots = [_slots(t, self.b) for t in self.T]
        if slots is not None:  # some digits' room above the bound, over F_p reduced mod p
            slots = [[x % p for x in r] for r in slots] if p else slots
            B = grown([max(map(abs, r), default=0) for r in slots])
            self.b = (max(B).bit_length() + 64) // 8 * 8
            self.T = [_pack(r, self.b) for r in slots]
        self.B, self.D, T = B, D, [t * g**(n - j) for j, t in enumerate(self.T)]
        for j in passes:  # T_j+1 t^mu starts at lam (n - j - 1) - es + k: k - lam slots up
            T[j] += m * (T[j + 1] << self.b * (k - self.lam))
        self.T, self.rows = T, list(self.direct)
        for i, row in enumerate(self.live):
            if row:  # a slot at or above a row's key cap reaches no row below it under that row's
                lo = self.lam * (n - i) - self.es  # own cap (README): masked off, if finite
                T[i] &= (1 << self.b * max(0, row[1] - lo)) - 1 if row[1] < math.inf else -1
                key = _least_key(T[i], self.b, p, lo, row[1])
                self.rows[i] = (key, row[0], None if key is None else f.from_integer(
                    _slot(T[i], self.b, key - lo), self.dc * D**(n - i)))


def _row_caps(hasse, ks, caps, prec, v, e) -> list:
    """Row i's (cap, key cap) at a center of value v = (vn, vd) and cap prec, c_j of least keys ks
    (units of 1/e) and caps (None: K): the least P_i and product_prec(P_j, v(c_j), Pa + (d-1)v(a),
    d v(a)) on its Hasse row, d = j - i; (None, inf) exact, None where no c_j of the row reaches."""
    inf, (vn, vd) = math.inf, v  # caps in units of 1/U, v(a) = vn/vd
    if prec is None and not caps:  # no cap anywhere; else row i's (cap, key cap)
        return [None if all(ks[j] is None for j, _ in row) else (None, inf) for row in hasse]
    U = math.lcm(e, vd, *[c.denominator for c in [prec, *(caps or ())] if c is not None])
    ue, vu = U // e, vn * (U // vd)
    pa = inf if prec is None else prec.numerator * (U // prec.denominator) - vu  # Pa - v
    rc, own = [None if k is None else pa + k * ue + j * vu for j, k in enumerate(ks)], None
    if caps:  # in row i c_j's rc_j - iv, and with its own cap P_j also P_j + (j - i)v
        own = [inf if c is None else c.numerator * (U // c.denominator) for c in caps]
        rc = [None if r is None and o == inf else min(inf if r is None else r, o + j * vu)
              for j, (r, o) in enumerate(zip(rc, own))]
    return [None if (m := min([rc[j] for j, _ in row if rc[j] is not None], default=None))
            is None else (None, inf) if (m := m - i * vu if own is None else
                                         min(own[i], m - i * vu)) == inf
            else (Fraction(m, U), -(-m * e // U)) for i, row in enumerate(hasse)]


def _slots(v: int, b: int) -> list:
    """The signed b-bit slots of v, least first: the bytes of v lifted by half a slot in each."""
    return _unpack(v, b, v.bit_length() // b + 1)


def _slot(v: int, b: int, k: int) -> int:
    """The signed b-bit slot k of v, all slots below it 0 or, over F_p, nonnegative: lifted by
    half a slot, as the ell-1 bound keeps every slot below 2^(b-1) in size."""
    half = 1 << b - 1
    return ((v >> b * k) + half & 2 * half - 1) - half


def _least_key(v: int, b: int, p: int, lo: int, cap):
    """lo + the least b-bit slot of v >= 0 nonzero (mod p) if below the key cap, else None."""
    k = ((v & -v).bit_length() - 1) // b if v else math.inf
    if p and k + lo < cap and ((v := v >> b * k) & (1 << b) - 1) % p == 0:  # read on, to the cap
        v = _unpack(v, b, min(cap - lo - k, v.bit_length() // b + 1), False)
        k += next(compress(count(), map(p.__rmod__, v)), math.inf)
    return k + lo if k + lo < cap else None


def _polygon(e: int, rows) -> list:
    """:meth:`PolyX.newton_polygon` off a value profile: rows (key, cap, ...) in units of 1/e,
    the top one decidably nonzero (else LEAD_UNDECIDED, as the constructor raises)."""
    n = len(rows) - 1
    if rows[n][0] is None and rows[n][1] is not None:
        raise PrecisionExhausted(LEAD_UNDECIDED)
    if n == 0:
        return []
    # leading zeros (exact roots at the center)
    k = 0
    while k < n and rows[k][0] is None and rows[k][1] is None:
        k += 1
    if rows[k][0] is None and rows[k][1] is not None:
        raise PrecisionExhausted(f"coefficient {k} of the recentered polynomial is undecidable")
    known = [(i, row[0]) for i, row in enumerate(rows) if row[0] is not None]
    hull = _lower_hull(known)  # heights in units of 1/e
    # undecidable points must provably lie on or above the hull
    for i, (key, cap, *_) in enumerate(rows):
        if key is None and cap is not None and cap * e < _hull_height(hull, i):
            raise PrecisionExhausted(
                f"coefficient {i} (known only to O(t^{cap})) may cut the Newton polygon")
    out = [(GroupVal.posinf(), k)] if k > 0 else []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        out.append((GroupVal.fin(Fraction(v1 - v2, (i2 - i1) * e)), i2 - i1))
    return out


def _lower_hull(points):
    """Lower convex hull of (i, v) points sorted by i."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above segment hull[-2] -> p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_height(hull, x):
    """Height of the hull's lower boundary at abscissa x.

    ``_polygon`` puts known points at both ends, the first
    decidably nonzero index k and the degree n, and asks only about
    undecidable indices between them, so x always lies inside the hull.
    """
    return next(y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
                for (x1, y1), (x2, y2) in zip(hull, hull[1:]) if x1 <= x <= x2)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_XPART_RE = re.compile(r"(?:^|\*)\s*X(?:\^(\d+))?\s*$")


def polyx_from_text(field: BaseField, text: str, domain: str = RATFUNC) -> PolyX:
    """Parse "t*X^2 + X + t^3" or "[1 + t]*X^2 + [t]*X + [2]".

    Bracketed coefficients are parsed in the requested domain ("ratfunc" or
    "series"); unbracketed factors must be rational scalars or t-monomials.
    Empty or sign-only text is the zero polynomial.
    """
    if domain not in (RATFUNC, SERIES):
        raise WorkbenchError(f"unknown coefficient domain {domain!r}")
    ring = PuiseuxSeries if domain == SERIES else RatFunc
    terms = {}
    for sign, body in _split_terms(text):
        body = body.strip()
        m = _XPART_RE.search(body)
        if m:
            k = int(_bounded(m.group(1), "X-degree")) if m.group(1) else 1
            coef_body = body[: m.start()].strip()
        else:
            k, coef_body = 0, body
        if coef_body.startswith("[") and coef_body.endswith("]"):
            c = ring.from_text(field, coef_body[1:-1])
        else:
            # plain factors, rational scalars and t-powers, folded into one monomial
            exp, sc = 0, field.one()
            for factor in filter(None, map(str.strip, coef_body.split("*"))):
                e, s = _parse_term(field, 1, factor)
                if ring is RatFunc and e.denominator != 1:
                    raise ParseError(f"fractional t-exponent needs series domain: {factor!r}")
                exp, sc = exp + e, field.mul(sc, s)
            c = ring.t_power(field, exp) * ring.constant(field, sc)
        if sign < 0:
            c = -c
        terms[k] = terms[k] + c if k in terms else c
    zero = ring.zero(field)
    return PolyX(field, [terms.get(i, zero) for i in range(max(terms, default=-1) + 1)])
