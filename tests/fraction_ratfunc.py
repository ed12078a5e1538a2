"""The reference for RatFunc's integer layout: RatFunc as it was stored before, a
reduced fraction of two lists of field scalars (Fractions over Q, residues over
F_p), with the scalar helpers tp_add, tp_sub, tp_mul, tp_divmod and tp_gcd it
normalised with, and the Fraction long division that expanded it.  Every
operation goes through field scalars; nothing here reads an integer pair."""

import math
from fractions import Fraction

from valwb.errors import WorkbenchError
from valwb.groupval import GroupVal
from valwb.series import PuiseuxSeries, expansion_prec, square_multiply, tp_ord, tp_trim


def tp_add(field, a, b):
    add = field.add
    out = list(a) + [field.zero()] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = add(out[i], x)
    return tp_trim(out)


def tp_sub(field, a, b):
    sub = field.sub
    out = list(a) + [field.zero()] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = sub(out[i], x)
    return tp_trim(out)


def tp_mul(field, a, b):
    if not a or not b:
        return []
    add, mul = field.add, field.mul
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return tp_trim(out)


def tp_scalar(field, a, s):
    mul = field.mul
    return tp_trim([mul(x, s) for x in a])


def tp_divmod(field, a, b):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    sub, mul = field.sub, field.mul
    r = list(a)
    q = [field.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        if len(r) < len(b) + i:
            continue
        c = mul(r[len(b) + i - 1], inv_lead)
        if not c:
            continue
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] = sub(r[i + j], mul(c, y))
    return tp_trim(q), tp_trim(r)


def tp_gcd(field, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, tp_divmod(field, a, b)[1]
    if a:
        a = tp_scalar(field, a, field.inv(a[-1]))  # monic normal form
    return a


def fraction_coerce(r, prec):
    """series.coerce by the Fraction long division, on r's scalars."""
    f = r.field
    prec = Fraction(prec)
    if r.is_zero():
        return PuiseuxSeries.zero(f)
    num, den = r.num, r.den
    a = next(i for i, x in enumerate(num) if x)
    b = next(i for i, x in enumerate(den) if x)
    num, den, v0 = num[a:], den[b:], a - b
    nterms = int(math.ceil(prec - v0))
    if nterms <= 0:
        return PuiseuxSeries.unknown_zero(f, prec)
    inv_d0 = f.inv(den[0])
    q, rem = [], list(num) + [f.zero()] * max(0, nterms - len(num))
    for i in range(nterms):
        c = f.mul(rem[i], inv_d0)
        q.append(c)
        if c:
            for j in range(1, min(len(den), nterms - i)):
                rem[i + j] = f.sub(rem[i + j], f.mul(c, den[j]))
    return PuiseuxSeries(f, 1, {i + v0: c for i, c in enumerate(q) if c}, prec)


class FractionRatFunc:
    """A reduced fraction of polynomials in t; denominator monic and nonzero."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=None):
        if den is None:
            den = [field.one()]
        to_scalar = field.coerce
        num = tp_trim([to_scalar(x) for x in num])
        den = tp_trim([to_scalar(x) for x in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = [field.one()]
        elif len(den) > 1:
            g = tp_gcd(field, num, den)
            num = tp_divmod(field, num, g)[0]
            den = tp_divmod(field, den, g)[0]
        if den[-1] != field.one():
            lead = field.inv(den[-1])
            num = tp_scalar(field, num, lead)
            den = tp_scalar(field, den, lead)
        self.field = field
        self.num = num
        self.den = den

    @staticmethod
    def zero(field):
        return FractionRatFunc(field, [])

    @staticmethod
    def one(field):
        return FractionRatFunc(field, [field.one()])

    def is_zero(self):
        return not self.num

    is_exact_zero = is_zero

    def is_unknown_zero(self):
        return False

    def is_polynomial(self):
        return len(self.den) == 1

    def _check(self, other):
        if self.field != other.field:
            raise WorkbenchError("base field mismatch")

    def __add__(self, other):
        self._check(other)
        f = self.field
        num = tp_add(f, tp_mul(f, self.num, other.den), tp_mul(f, other.num, self.den))
        return FractionRatFunc(f, num, tp_mul(f, self.den, other.den))

    def __neg__(self):
        return FractionRatFunc(self.field, [self.field.neg(x) for x in self.num], self.den)

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return FractionRatFunc(f, tp_mul(f, self.num, other.num), tp_mul(f, self.den, other.den))

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        f = self.field
        return FractionRatFunc(f, tp_mul(f, self.num, other.den), tp_mul(f, self.den, other.num))

    def __pow__(self, n):
        if n < 0:
            return FractionRatFunc.one(self.field) / self ** (-n)
        return square_multiply(self, n, FractionRatFunc.one(self.field))

    def __eq__(self, other):
        if not isinstance(other, FractionRatFunc):
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field, tuple(self.num), tuple(self.den)))

    def val(self):
        on = tp_ord(self.num)
        if on is None:
            return GroupVal.posinf()
        return GroupVal.fin(on - tp_ord(self.den))

    def to_series(self, prec=None):
        if len(self.den) == 1:
            return PuiseuxSeries(self.field, 1, dict(enumerate(self.num)), None)
        out = fraction_coerce(self, expansion_prec(prec))
        out.source = self
        return out

    def to_text(self):
        num, den = (PuiseuxSeries(self.field, 1, dict(enumerate(a)), None).to_text()
                    for a in (self.num, self.den))
        return num if self.is_polynomial() else f"({num}) / ({den})"
