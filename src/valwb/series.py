"""Precision-tracked truncated Puiseux series over F_p or Q, and exact
rational functions in t.

Two element types live here:

* :class:`RatFunc` -- an exact element of K = k(t), a reduced fraction of polynomials in t,
  each an integer list over one denominator as in FLINT's fmpq_poly; its val is exact.
* :class:`PuiseuxSeries` -- a truncated element of k((t^(1/e))), stored as a
  sparse map from lattice exponents to nonzero scalars together with a hard
  precision cap.  Every operation computes the exact precision it can
  guarantee for its output; questions whose answer would need coefficients
  beyond the cap raise :class:`~valwb.errors.PrecisionExhausted` instead of
  guessing.

The distinguished exact zero is the only series with infinite precision and
empty support; an empty support under a finite cap means "indistinguishable
from zero at this precision" and is *not* zero.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from array import array
from fractions import Fraction
from typing import Optional

from .errors import (
    NegativeSupport,
    NegativeValuation,
    ParseError,
    PrecisionExhausted,
    RamifiedInput,
    WorkbenchError,
)
from .field import BaseField
from .groupval import GroupVal

DEFAULT_PREC = Fraction(64)
# The largest t-exponent numerator or denominator, X-degree or characteristic an input may
# ask for: each unit costs about one dense slot, so more is refused where it is read.
DENSE_SIZE = 10**6


# ---------------------------------------------------------------------------
# dense polynomials in t over the base field (internal plumbing for RatFunc)
# ---------------------------------------------------------------------------

def tp_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def tp_zip(op, a, b) -> list:
    """[a_i op b_i], trimmed, for integer lists padded with 0 and a field's add or sub."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = op(out[i], x)
    return tp_trim(out)


def is_dense(pairs: int, slots: int) -> bool:
    """Whether P term pairs into N output slots take the packed product: the
    pair loop takes P steps, the packed product about N log2 N."""
    return pairs > slots * slots.bit_length()


def convolve(xs, ys) -> list:
    """The coefficients of the product of nonempty integer polynomials.  Dense
    ones are packed as x_0 + x_1 2^b + ... at a slot width b that no sum
    overflows, and one big-integer product gives every coefficient (Kronecker
    substitution)."""
    n = len(xs) + len(ys) - 1
    if is_dense(len(xs) * len(ys), n):
        bound = max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys))
        bits = 8 * (bound.bit_length() // 8 + 1)  # a spare sign bit at least
        return _unpack(_pack(xs, bits) * _pack(ys, bits), bits, n)
    out = [0] * n
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                out[i + j] += x * y
    return out


def lattice_product(c1, s1, xs, c2, s2, ys, cap) -> dict:
    """{k: sum of x*y over k = n1*s1 + n2*s2 < cap} for the keys n1 of c1 and
    n2 of c2, whose integer images are xs and ys, by the pair loop."""
    acc = {}
    terms2 = [(n2 * s2, y) for n2, y in zip(c2, ys)]
    for n1, x in zip(c1, xs):
        k1 = n1 * s1
        for k2, y in terms2:
            k = k1 + k2
            if k < cap:
                acc[k] = acc.get(k, 0) + x * y
    return acc


def _pack(vs, bits) -> int:
    """The sum of vs[i] * 2^(bits*i), bits a multiple of 8: one shift per nonzero entry if there
    are no more than a slot has bits; else, if the values fit k <= min(bits/8, 8) bytes (with a
    sign bit if any is negative), 8-byte array items whose k low bytes go by k strided copies
    into one buffer of bits/8-byte slots (F_p residues below 256: one byte stride), where the
    sign bits, moved up k bytes, take off the 2^(8k) a negative slot reads as; else pairwise."""
    if len(vs) - vs.count(0) <= bits:
        v = 0
        for i, x in enumerate(vs):
            if x:
                v += x << bits * i
        return v
    w, lo, hi = bits // 8, min(vs), max(vs)
    k = (max(hi, ~lo).bit_length() + 8) // 8 if lo < 0 else (hi.bit_length() + 7) // 8
    if k <= min(w, 8) and sys.byteorder == "little":
        raw, buf = array("q" if lo < 0 else "Q", vs).tobytes(), bytearray(w * len(vs))
        for j in range(k):
            buf[j::w] = raw[j::8]
        v = int.from_bytes(buf, "little")
        if lo < 0:
            ones = int.from_bytes((b"\x01" + bytes(w - 1)) * len(vs), "little")
            v -= (v >> 8 * k - 1 & ones) << 8 * k
        return v
    while len(vs) > 1:
        pairs = iter(vs + [0])  # an unpaired last 0 drops out of the zip
        vs = [x + (y << bits) for x, y in zip(pairs, pairs)]
        bits *= 2
    return vs[0]


def _unpack(v, bits, n, signed=True):
    """The first n bits-wide slots of v (bits a multiple of 8), least first: lifted by half a slot
    each, so that none borrows from the next, in a list; or, all nonnegative, as they are, in a
    sequence read as it is walked.  Strided byte copies space the slots to 1, 2, 4 or 8 bytes or
    to whole words, joined after, for one memoryview cast; wider unsigned ones go one by one."""
    w, half = bits // 8, 1 << bits - 1 if signed else 0
    v += half and int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    raw = (v & (1 << bits * n) - 1).to_bytes(w * n, "little")
    size = 1 << (w - 1).bit_length() if w <= 8 else -(-w // 8) * 8
    if sys.byteorder != "little" or size > 8 and not half:
        xs = (int.from_bytes(raw[i:i + w], "little") for i in range(0, w * n, w))
    else:
        if size != w:
            raw, spaced = bytearray(size * n), raw
            for i in range(w):
                raw[i::size] = spaced[i::w]
        words, m = memoryview(raw).cast("BHIQ"[min(size, 8).bit_length() - 1]), max(1, size // 8)
        xs = words[m - 1::m]
        for j in range(m - 2, -1, -1):  # a wide slot's words, most significant first
            xs = [x << 64 | y for x, y in zip(xs, words[j::m])]
    return [x - half for x in xs] if half else xs


def _mul(x, y, p) -> list:
    """The product of integer polynomials (residues over F_p)."""
    m = convolve(x, y) if x and y else []
    return [v % p for v in m] if p else m


def _divide(a, b, p):
    """a/b on integer images (residues over F_p) if b divides a, else None; b primitive over Q,
    monic over F_p.  A window of deg b coefficients slides down a from the top, one quotient
    digit a step; over Q the first digit lead(b) does not divide ends it (Gauss's lemma)."""
    c, rows, tail, q = b[-1], a[::-1], b[-2::-1], []
    w = rows[:len(tail)]
    for x in rows[len(tail):]:
        w.append(x)
        top = w[0]
        if p:
            w = [(u - top * y) % p for u, y in zip(w[1:], tail)] if top else w[1:]
        elif top % c:
            return None
        else:
            top //= c
            w = [u - top * y for u, y in zip(w[1:], tail)]
        q.append(top)
    return None if any(w) else q[::-1]


def _gcd(a, b, p) -> list:
    """A gcd of integer images (residues over F_p), primitive with a positive top over Q (monic
    over F_p): b itself if it divides a, so b enters primitive (monic).  Each remainder slides
    _divide's window down a; over Q a step is lead(b) w - top b, and a coefficient enters scaled
    by the running power of lead(b) (Knuth's Algorithm R, its scaling deferred as by Collins)."""
    while b:
        c, rows, tail = b[-1], a[::-1], b[-2::-1]
        w, scale = rows[:len(tail)], 1
        for x in rows[len(tail):]:
            w.append(x * scale)
            top = w[0]
            if p:
                w = [(u - top * y) % p for u, y in zip(w[1:], tail)] if top else w[1:]
            else:
                w = [c * u - top * y for u, y in zip(w[1:], tail)]
                scale *= c
        r = tp_trim(w[::-1])
        if r:  # the primitive part, or the monic associate
            g = pow(r[-1], -1, p) if p else math.gcd(*r) * (1 if r[-1] > 0 else -1)
            r = [x * g % p for x in r] if p else [x // g for x in r]
        a, b = b, r
    return a


def common_denominator(pairs) -> tuple:
    """([xs_j scaled to d], d) for pairs (xs_j, d_j) of integers over d_j, d the lcm of the d_j."""
    d = math.lcm(*(dj for _, dj in pairs))
    return [xs if dj == d else [x * (d // dj) for x in xs] for xs, dj in pairs], d


def tp_ord(a) -> Optional[int]:
    """t-adic order; None for the zero polynomial."""
    for i, x in enumerate(a):
        if x:
            return i
    return None


_TERM_RE = re.compile(
    r"^\s*(?P<coef>-?\d+(?:/\d+)?)?\s*\*?\s*(?:t(?:\^(?:\((?P<pexp>-?\d+(?:/\d+)?)\)|(?P<exp>-?\d+(?:/\d+)?)))?)?\s*$"
)


def _split_terms(text: str):
    """Split on top-level + and -, keeping signs; (...) and [...] are respected, and a sign
    right after ^ belongs to the exponent, as PuiseuxSeries.to_text writes t^-2."""
    terms, depth, cur, sign = [], 0, "", 1
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in "+-" and not cur.endswith("^"):
            if cur.strip():
                terms.append((sign, cur))
                cur, sign = "", (1 if ch == "+" else -1)
            else:
                sign *= 1 if ch == "+" else -1
            continue
        cur += ch
    if cur.strip():
        terms.append((sign, cur))
    return terms


def _bounded(numeral: str, what: str) -> Fraction:
    """The value of a numeral "n", "-n" or "n/d" read from text, refused with a ParseError
    when a part exceeds DENSE_SIZE; its digits are counted before any int is built."""
    for digits in numeral.lstrip("-").split("/"):
        if len(digits.lstrip("0")) > len(str(DENSE_SIZE)) or int(digits) > DENSE_SIZE:
            raise ParseError(f"{what} {numeral} exceeds the dense-size bound {DENSE_SIZE}")
    return Fraction(numeral)


def check_span(elements) -> None:
    """Refuse, with a ParseError, elements of K and series whose exponents and O(t^...) caps
    span more than DENSE_SIZE slots of their common lattice (1/E)Z, E the lcm of their
    ramifications: a dense form built from them holds an integer per slot.  Only the ends of
    each support are read, so nothing dense is built to decide it."""
    e, ends = 1, []
    for a in elements:
        if isinstance(a, RatFunc):  # its integer lists run from t^0 to the larger degree
            ends += [0, max(len(a.nq[0]), len(a.dq[0])) - 1]
            continue
        e = math.lcm(e, a.ram)
        ends += [Fraction(k, a.ram) for k in (min(a.coeffs), max(a.coeffs))] if a.coeffs else []
        ends += [a.prec] if a.prec is not None else []
    if ends and (span := math.ceil((max(ends) - min(ends)) * e)) > DENSE_SIZE:
        raise ParseError(f"exponents and caps span {span} slots of the lattice (1/{e})Z, "
                         f"above the dense-size bound {DENSE_SIZE}")


def _parse_term(field, sign, body):
    """Parse one product term into (exponent: Fraction, scalar)."""
    m = _TERM_RE.match(body)
    if not m or (m.group("coef") is None and "t" not in body):
        raise ParseError(f"bad term {body!r}")
    try:
        coef = Fraction(m.group("coef") or 1)
        numeral = m.group("pexp") or m.group("exp")
        exp = _bounded(numeral, "t-exponent") if numeral else Fraction(int("t" in body))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in term {body!r}") from None
    except ValueError:  # a numeral past Python's limit on digits read into an int
        raise ParseError(f"coefficient numeral too long in term {body!r}") from None
    return exp, field.coerce(sign * coef)


def _strip_parens(text: str) -> str:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return text[1:-1].strip()
    return text


def tp_parse(field, text: str):
    """Parse a polynomial in t with integer exponents."""
    coeffs = {}
    for sign, body in _split_terms(text):
        exp, sc = _parse_term(field, sign, body)
        if exp.denominator != 1 or exp < 0:
            raise ParseError(f"polynomial exponent must be a nonnegative integer: {body!r}")
        n = int(exp)
        coeffs[n] = field.add(coeffs.get(n, field.zero()), sc)
    out = [field.zero()] * (max(coeffs, default=-1) + 1)
    for n, sc in coeffs.items():
        out[n] = sc
    return tp_trim(out)


# ---------------------------------------------------------------------------
# RatFunc: exact elements of K = k(t)
# ---------------------------------------------------------------------------

_ONE = ([1], 1)  # the denominator of every polynomial, shared


def _pair(p, xs, d=1) -> tuple:
    """xs/d as RatFunc stores it, xs a fresh integer list (residues if d = 1 over F_p) and
    d != 0: residues over 1 over F_p, over Q over d > 0 prime to their content; trimmed."""
    if d != 1 and p:
        u = pow(d, -1, p)
        xs, d = [x * u % p for x in xs], 1
    elif d != 1 and (g := math.gcd(d, *xs) * (1 if d > 0 else -1)) != 1:
        xs, d = [x // g for x in xs], d // g
    return tp_trim(xs), d


def _lowest(p, xs, d, ys) -> tuple:
    """The stored pairs (num, den) of xs/(d ys), xs and ys integer lists and d != 0: ys made
    primitive with a positive top (monic over F_p), and the gcd of xs and ys divided out."""
    ys = tp_trim([y % p for y in ys] if p else ys)
    if not ys:
        raise ZeroDivisionError("zero denominator")
    xs = tp_trim([x % p for x in xs] if p else xs)
    if not xs:
        return ([], 1), _ONE  # the zero element has one canonical form
    u = ys[-1] if p else math.gcd(*ys) * (1 if ys[-1] > 0 else -1)
    ys = _pair(p, ys, u)[0]  # ys = u ys', ys' primitive with a positive top (monic over F_p)
    if len(ys) > 1 and len(g := _gcd(xs, ys, p)) > 1:
        xs, ys = _divide(xs, g, p), _divide(ys, g, p)
    return _pair(p, xs, d * u * ys[-1]), (ys, ys[-1])  # (xs/(d u top)) / (ys/top)


class RatFunc:
    """A reduced fraction of polynomials in t; denominator monic and nonzero.

    Stored as two pairs (ints, d) in the layout of FLINT's fmpq_poly, numerator nq and
    denominator dq: sum of ints[i]/d t^i, d > 0 prime to the content of ints (residues over
    d = 1 over F_p), dq monic, so the form is canonical; num and den build the scalars."""

    __slots__ = ("field", "nq", "dq")

    def __init__(self, field: BaseField, num, den=None):
        to_scalar = field.coerce  # canonical scalars; an int, a Fraction or a string, no float
        num = tp_trim([to_scalar(x) for x in num])
        (xs, dx), self.field = field.as_integers(num), field
        if den is None:
            self.nq, self.dq = _pair(field.char, xs, dx), _ONE
        else:
            ys, dy = field.as_integers([to_scalar(x) for x in den])
            self.nq, self.dq = _lowest(field.char, [x * dy for x in xs], dx, ys)

    # read-only views, built on each read: Fractions over Q, residues over F_p
    num = property(lambda self: self._scalars(*self.nq))
    den = property(lambda self: self._scalars(*self.dq))

    def _scalars(self, xs, d) -> list:
        return list(xs) if self.field.char else [Fraction(x, d) for x in xs]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field: BaseField) -> "RatFunc":
        return RatFunc._of(field, ([], 1))

    @staticmethod
    def one(field: BaseField) -> "RatFunc":
        return RatFunc._of(field, ([1], 1))

    @staticmethod
    def constant(field: BaseField, c) -> "RatFunc":
        return RatFunc(field, [field.coerce(c)])

    @staticmethod
    def t_power(field: BaseField, n) -> "RatFunc":
        if n != int(n):  # an int or an integral Fraction
            raise WorkbenchError(f"an element of K has no fractional power of t, got exponent {n}")
        n = int(n)
        return RatFunc._of(field, ([0] * max(n, 0) + [1], 1), ([0] * max(-n, 0) + [1], 1))

    @staticmethod
    def from_text(field: BaseField, text: str) -> "RatFunc":
        """Parse "num" or "num / den" (the fraction slash must be spaced;
        scalar fractions like 3/4 are written without spaces)."""
        text = text.strip()
        if " / " in text:
            num_s, den_s = text.split(" / ", 1)
            den = tp_parse(field, _strip_parens(den_s))
            if not den:
                raise ParseError(f"zero denominator in {text!r}")
            return RatFunc(field, tp_parse(field, _strip_parens(num_s)), den)
        return RatFunc(field, tp_parse(field, _strip_parens(text)))

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nq[0]

    is_exact_zero = is_zero  # the coefficient protocol's name for it

    def is_unknown_zero(self) -> bool:
        """Never: an element of K is known exactly."""
        return False

    def is_polynomial(self) -> bool:
        return len(self.dq[0]) == 1

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise WorkbenchError("base field mismatch")

    @staticmethod
    def _of(field: BaseField, nq: tuple, dq: tuple = _ONE) -> "RatFunc":
        """The element of the stored pairs nq and dq, already in their normal form."""
        out = object.__new__(RatFunc)
        out.field, out.nq, out.dq = field, nq, dq
        return out

    # Polynomial operands (dq = ([1], 1), every RatFunc the suite draws) work on numerators
    # alone, sums over the lcm of the two d and products over their product, each reduced
    # by one integer gcd; an operand with a pole takes the fraction formulas and _lowest.

    def _sum(self, other: "RatFunc", op) -> "RatFunc":
        """self + other or self - other, as op is the field's add or sub."""
        self._check(other)
        p = self.field.char
        (xs, a), (ys, b), (us, c), (ws, d) = self.nq, other.nq, self.dq, other.dq
        if len(us) == 1 == len(ws):
            if a != b:
                (xs, ys), a = common_denominator([self.nq, other.nq])
            num = tp_zip(op, xs, ys)  # trimmed, and reduced over F_p, where a = 1
            return RatFunc._of(self.field, (num, 1) if a == 1 else _pair(p, num, a))
        num = tp_zip(op, [x * c * b for x in _mul(xs, ws, p)], [y * d * a for y in _mul(ys, us, p)])
        return RatFunc._of(self.field, *_lowest(p, num, a * b, _mul(us, ws, p)))  # over a b us ws

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return self._sum(other, self.field.add)

    def __neg__(self):
        neg = self.field.neg
        return RatFunc._of(self.field, ([neg(x) for x in self.nq[0]], self.nq[1]), self.dq)

    def __sub__(self, other):
        return self._sum(other, self.field.sub)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        p = self.field.char
        (xs, a), (ys, b) = self.nq, other.nq
        if len(self.dq[0]) == 1 == len(other.dq[0]):
            return RatFunc._of(self.field, _pair(p, _mul(xs, ys, p), a * b))
        (us, c), (ws, d) = self.dq, other.dq
        num = [x * c * d for x in _mul(xs, ys, p)]
        return RatFunc._of(self.field, *_lowest(p, num, a * b, _mul(us, ws, p)))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        p = self.field.char
        (xs, a), (ys, b), (us, c), (ws, d) = self.nq, other.nq, self.dq, other.dq
        num = [x * c * b for x in _mul(xs, ws, p)]  # xs c/(a us) * b ws/(ys d)
        return RatFunc._of(self.field, *_lowest(p, num, a * d, _mul(us, ys, p)))

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return RatFunc.one(self.field) / self ** (-n)
        return square_multiply(self, n, RatFunc.one(self.field))

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.field == other.field and self.nq == other.nq and self.dq == other.dq

    def __hash__(self):
        return hash((self.field, tuple(self.nq[0]), self.nq[1], tuple(self.dq[0])))

    # -- valuation ----------------------------------------------------------

    def val(self) -> GroupVal:
        """Exact t-adic valuation; PosInf for the zero element."""
        on = tp_ord(self.nq[0])
        if on is None:
            return GroupVal.posinf()
        return GroupVal.fin(on - tp_ord(self.dq[0]))

    # -- conversion -----------------------------------------------------------

    def to_series(self, prec=None) -> "PuiseuxSeries":
        """The image in the completion, with the same val: a polynomial embeds
        exactly, its scalars built from the integers; a fraction with a pole is expanded
        to O(t^prec), by default O(t^DEFAULT_PREC), and kept as its ``source``."""
        if self.is_polynomial():
            return self._exact_series(*self.nq)
        out = coerce(self, expansion_prec(prec))
        out.source = self
        return out

    def _exact_series(self, xs, d) -> "PuiseuxSeries":
        """The polynomial of a stored pair (xs, d), embedded exactly."""
        return PuiseuxSeries(self.field, 1, {i: x if self.field.char else Fraction(x, d)
                                             for i, x in enumerate(xs) if x}, None)

    def to_text(self) -> str:
        num, den = (self._exact_series(*pair).to_text() for pair in (self.nq, self.dq))
        return num if self.is_polynomial() else f"({num}) / ({den})"

    def __repr__(self):
        return f"RatFunc({self.to_text()})"


# ---------------------------------------------------------------------------
# PuiseuxSeries
# ---------------------------------------------------------------------------

class PuiseuxSeries:
    """Truncated series in t^(1/ram) with exact scalars and a precision cap.

    ``coeffs`` maps lattice keys n to nonzero scalars, the coefficient of
    t^(n/ram); every key satisfies n/ram < prec.  ``prec`` is a Fraction or
    None, None meaning infinite precision (exactly known element).
    ``source`` is the element of K that :meth:`RatFunc.to_series` expanded;
    None otherwise, as every operation that builds a new series drops it.
    ``plan`` holds what :meth:`kept` has built of the series, None before.
    """

    __slots__ = ("field", "ram", "coeffs", "prec", "source", "plan")

    def __init__(self, field: BaseField, ram: int, coeffs: dict, prec: Optional[Fraction]):
        self.field = field
        self.ram = ram
        self.coeffs = coeffs
        self.prec = prec
        self.source = self.plan = None
        self._normalize()

    def _normalize(self):
        cap = lattice_cap(self.prec, self.ram)
        # a fresh dict: deleting in place would keep the table sized for
        # every key the operation produced, not for the keys that survive
        self.coeffs = {n: c for n, c in self.coeffs.items() if c and n < cap}
        if not self.coeffs:
            self.ram = 1
            return
        g = self.ram
        for n in self.coeffs:
            g = math.gcd(g, n)
            if g == 1:
                break
        if g > 1:
            self.coeffs = {n // g: c for n, c in self.coeffs.items()}
            self.ram //= g

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field: BaseField) -> "PuiseuxSeries":
        """The distinguished exact zero (infinite precision)."""
        return PuiseuxSeries(field, 1, {}, None)

    @staticmethod
    def unknown_zero(field: BaseField, prec) -> "PuiseuxSeries":
        """Empty support under a finite cap: not known to be zero."""
        return PuiseuxSeries(field, 1, {}, Fraction(prec))

    @staticmethod
    def one(field: BaseField) -> "PuiseuxSeries":
        return PuiseuxSeries.constant(field, field.one())

    @staticmethod
    def constant(field: BaseField, c) -> "PuiseuxSeries":
        c = field.coerce(c)
        return PuiseuxSeries(field, 1, {} if field.is_zero(c) else {0: c}, None)

    @staticmethod
    def from_terms(field: BaseField, terms: dict, prec=None) -> "PuiseuxSeries":
        """Build from {exponent (Fraction-like): scalar-like}."""
        exps = {}
        for e, c in terms.items():  # keys that spell one exponent are summed
            e, c = Fraction(e), field.coerce(c)
            exps[e] = field.add(exps[e], c) if e in exps else c
        ram = math.lcm(*(e.denominator for e in exps))
        return PuiseuxSeries(field, ram, {int(e * ram): c for e, c in exps.items()},
                             None if prec is None else Fraction(prec))

    @staticmethod
    def t_power(field: BaseField, exp, prec=None) -> "PuiseuxSeries":
        return PuiseuxSeries.from_terms(field, {Fraction(exp): field.one()}, prec)

    # -- predicates -----------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.prec is None

    def is_unknown_zero(self) -> bool:
        """Empty support under a finite cap: not known to be zero or nonzero."""
        return not self.coeffs and self.prec is not None

    def is_exact(self) -> bool:
        return self.prec is None

    def support(self):
        return sorted(Fraction(n, self.ram) for n in self.coeffs)

    def coeff_at(self, exp) -> object:
        exp = Fraction(exp)
        n = exp * self.ram
        if n.denominator != 1:
            return self.field.zero()
        return self.coeffs.get(int(n), self.field.zero())

    # -- valuation ------------------------------------------------------------

    def val(self) -> GroupVal:
        """Fin(least support exponent); PosInf only for the exact zero.

        Raises PrecisionExhausted for an unknown-zero (empty support under a
        finite cap): the caller must not treat it as zero.
        """
        if self.coeffs:
            return GroupVal.fin(Fraction(min(self.coeffs), self.ram))
        if self.prec is None:
            return GroupVal.posinf()
        raise PrecisionExhausted(
            f"series indistinguishable from 0 at precision O(t^{self.prec})")

    def val_sub(self, other: "PuiseuxSeries") -> GroupVal:
        """(self - other).val() without building the difference: the least key below the cap
        at which the supports differ on the common lattice.  Below the least key of one support
        alone, shared scalars are compared, canonical in field.py (ints in [0, p), Fractions)."""
        self._check(other)
        e = self.ram * other.ram // math.gcd(self.ram, other.ram)
        s1, s2 = e // self.ram, e // other.ram
        a = self.coeffs if s1 == 1 else {n * s1: c for n, c in self.coeffs.items()}
        b = other.coeffs if s2 == 1 else {n * s2: c for n, c in other.coeffs.items()}
        least = min(a.keys() ^ b.keys(), default=math.inf)
        least = min((k for k in a.keys() & b.keys() if k < least and a[k] != b[k]),
                    default=least)
        prec = min_prec(self.prec, other.prec)
        if least < lattice_cap(prec, e):
            return GroupVal.fin(Fraction(least, e))
        if prec is None:
            return GroupVal.posinf()
        raise PrecisionExhausted(f"series indistinguishable from 0 at precision O(t^{prec})")

    def val_lower_bound(self) -> Optional[Fraction]:
        """A guaranteed lower bound for the valuation; None means +inf."""
        if self.coeffs:
            return Fraction(min(self.coeffs), self.ram)
        return self.prec  # None = exact zero = +inf

    def residue(self):
        """Coefficient at exponent 0; requires val >= 0 (decidably)."""
        lb = self.val_lower_bound()
        if lb is not None and self.coeffs and lb < 0:
            raise NegativeValuation(f"residue of element with valuation {lb}")
        if not self.coeffs and self.prec is not None and self.prec <= 0:
            raise PrecisionExhausted("constant term not determined at this precision")
        return self.coeff_at(0)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise WorkbenchError("base field mismatch")

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        self._check(other)
        f = self.field
        add = f.add
        e = self.ram * other.ram // math.gcd(self.ram, other.ram)
        s1, s2 = e // self.ram, e // other.ram
        coeffs = {n * s1: c for n, c in self.coeffs.items()}
        for n, c in other.coeffs.items():
            k = n * s2
            coeffs[k] = add(coeffs[k], c) if k in coeffs else c
        prec = min_prec(self.prec, other.prec)
        return PuiseuxSeries(f, e, coeffs, prec)

    def __neg__(self):
        neg = self.field.neg
        return PuiseuxSeries(self.field, self.ram,
                             {n: neg(c) for n, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        self._check(other)
        f = self.field
        if self.is_exact_zero() or other.is_exact_zero():
            return PuiseuxSeries.zero(f)
        prec = product_prec(self.prec, self.val_lower_bound(), other.prec, other.val_lower_bound())
        e = self.ram * other.ram // math.gcd(self.ram, other.ram)
        s1, s2 = e // self.ram, e // other.ram
        cap = lattice_cap(prec, e)
        # multiply integer images; one scalar is rebuilt per output key
        xs, d1 = f.as_integers(self.coeffs.values())
        ys, d2 = f.as_integers(other.coeffs.values())
        acc = lattice_product(self.coeffs, s1, xs, other.coeffs, s2, ys, cap)
        d, p, lower = d1 * d2, f.char, f.from_integer  # a sum ≡ 0 (mod p) builds no scalar
        return PuiseuxSeries(f, e, {k: lower(v, d) for k, v in acc.items() if (v % p if p else v)},
                             prec)

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if n < 0:
            return invert(self) ** (-n)
        return square_multiply(self, n, PuiseuxSeries.one(self.field))

    def truncate(self, prec) -> "PuiseuxSeries":
        """Weaken the precision cap to ``prec`` (must not exceed current prec)."""
        prec = Fraction(prec)
        if self.prec is not None and prec > self.prec:
            raise PrecisionExhausted(f"cannot extend precision {self.prec} to {prec}")
        return PuiseuxSeries(self.field, self.ram, self.coeffs, prec)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self.field == other.field and self.ram == other.ram
                and self.coeffs == other.coeffs and self.prec == other.prec)

    def __hash__(self):
        return hash((self.field, self.ram, tuple(sorted(self.coeffs.items())), self.prec))

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        def power(e):
            return f"t^{e}" if e.denominator == 1 else f"t^({e})"

        parts = []
        for n, c in sorted(self.coeffs.items()):
            e, cs = Fraction(n, self.ram), self.field.scalar_text(c)
            tpart = "t" if e == 1 else power(e)
            parts.append(cs if e == 0 else tpart if cs == "1" else f"{cs}*{tpart}")
        if self.prec is not None:
            parts.append(f"O({power(self.prec)})")
        return " + ".join(parts).replace(" + -", " - ") or "0"  # no part holds a space

    def to_series(self, prec=None) -> "PuiseuxSeries":
        """Already in the completion."""
        return self

    def kept(self, part: str, build):
        """``build(self)``, built once and kept in ``plan`` under ``part`` until the series dies."""
        plan = self.plan = self.plan or {}
        if (got := plan.get(part)) is None:
            got = plan[part] = build(self)
        return got

    def __repr__(self):
        return f"PuiseuxSeries({self.to_text()})"

    @staticmethod
    def from_text(field: BaseField, text: str) -> "PuiseuxSeries":
        text, prec = text.strip(), None
        m = re.search(r"O\(\s*t(?:\^\(?(-?\d+(?:/\d+)?)\)?)?\s*\)\s*$", text)
        if m:
            try:
                prec = _bounded(m.group(1), "cap exponent") if m.group(1) else Fraction(1)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {m.group(0)!r}") from None
            text = text[: m.start()].rstrip().rstrip("+").rstrip()
        terms = {}
        for sign, body in _split_terms(text):
            exp, sc = _parse_term(field, sign, body)
            terms[exp] = field.add(terms[exp], sc) if exp in terms else sc
        return PuiseuxSeries.from_terms(field, terms, prec)


def lattice_cap(prec, e: int):
    """ceil(prec * e): the least key n with n/e >= prec, so keys at or above
    it lie beyond the cap O(t^prec) on the lattice (1/e)Z; inf for no cap."""
    if prec is None:
        return math.inf
    return -(-prec.numerator * e // prec.denominator)


def expansion_prec(prec) -> Fraction:
    """The cap O(t^prec) of an exact expansion that is not a finite sum (an
    element of K with a pole, an inverse): ``prec``, or DEFAULT_PREC for none."""
    return DEFAULT_PREC if prec is None else Fraction(prec)


def min_prec(p1: Optional[Fraction], p2: Optional[Fraction]) -> Optional[Fraction]:
    """The cap of a sum; None is no cap."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return min(p1, p2)


def product_prec(p1, v1, p2, v2) -> Optional[Fraction]:
    """The cap of a product, min(p1 + v2, p2 + v1), for factors with caps p1
    and p2 (None: exact) and valuation lower bounds v1 and v2."""
    return min_prec(None if p1 is None else p1 + v2, None if p2 is None else p2 + v1)


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def square_multiply(base, n: int, one):
    """base^n for n >= 0 by repeated squaring, starting from the unit one."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def _quotient_terms(f: BaseField, xs: list, dn: int, ys: list, dd: int, nterms: int,
                    shift: int) -> dict:
    """{i + shift: q_i} for the nonzero q_i, i < nterms, of the power series
    num/den = (xs/dn)/(ys/dd), xs and ys integer images (residues over F_p), ys[0] nonzero.

    Fraction-free, with N = xs and D = ys:
    q_i = A_i dd / (dn D_0^(i+1)), A_i = N_i D_0^i - sum_j D_j D_0^(j-1) A_(i-j).
    """
    xs, ys = xs[:nterms] + [0] * (nterms - len(xs)), ys[:nterms]
    p = f.char
    if p:  # scale to D_0 = 1, so the residues need no division
        inv_d0 = pow(ys[0], -1, p)
        xs, ys = [x * inv_d0 % p for x in xs], [y * inv_d0 % p for y in ys]
    d0 = ys[0]
    ws = [y * d0**j for j, y in enumerate(ys[1:])]
    A, coeffs, d0_i, lower = [], {}, 1, f.from_integer
    for x in xs:
        acc = x * d0_i - sum(map(operator.mul, ws, reversed(A)))
        A.append(acc % p if p else acc)
        d0_i *= d0
        if A[-1]:
            coeffs[len(A) - 1 + shift] = lower(acc * dd, dn * d0_i)
    return coeffs


def invert(s: PuiseuxSeries, prec=None) -> PuiseuxSeries:
    """Multiplicative inverse with the guaranteed relative precision.

    For a series with cap p and valuation v the result carries cap p - 2v.
    Exact inputs need a target: monomials invert exactly, otherwise ``prec``
    (default O(t^64)) bounds the absolute precision of the result.
    """
    f = s.field
    v = s.val()  # raises PrecisionExhausted for unknown-zero
    if v.is_inf:
        raise ZeroDivisionError("inverse of the exact zero series")
    v0 = v.q
    if s.is_exact() and len(s.coeffs) == 1:
        n, c = next(iter(s.coeffs.items()))
        return PuiseuxSeries.from_terms(f, {-Fraction(n, s.ram): f.inv(c)})
    if s.prec is not None:
        work_prec = s.prec
        out_prec = s.prec - 2 * v0
    else:
        target = expansion_prec(prec)
        work_prec = target + 2 * v0
        out_prec = target
    e = s.ram
    # s = t^v0 * (sum of d_k t^(k/e)); divide 1 by the d_k on the lattice index,
    # always emitting the leading term 1/d_0
    shift0 = int(v0 * e)
    nterms = max(1, math.ceil((work_prec - v0) * e))
    den = [f.zero()] * min(nterms, max(s.coeffs) - shift0 + 1)
    for n, c in s.coeffs.items():
        if n - shift0 < len(den):
            den[n - shift0] = c
    ys, dd = f.as_integers(den)
    return PuiseuxSeries(f, e, _quotient_terms(f, [1], 1, ys, dd, nterms, -shift0), out_prec)


def coerce(r: RatFunc, prec) -> PuiseuxSeries:
    """Embed K into its completion: expand r to the requested precision.

    The valuation of the result equals the exact t-adic valuation of r.
    """
    f = r.field
    prec = Fraction(prec)
    if r.is_zero():
        return PuiseuxSeries.zero(f)
    (xs, dn), (ys, dd) = r.nq, r.dq
    a, b = tp_ord(xs), tp_ord(ys)
    v0 = a - b
    nterms = int(math.ceil(prec - v0))
    if nterms <= 0:
        return PuiseuxSeries.unknown_zero(f, prec)
    return PuiseuxSeries(f, 1, _quotient_terms(f, xs[a:], dn, ys[b:], dd, nterms, v0), prec)


def truncate_to_ratfunc(s: PuiseuxSeries, cutoff) -> RatFunc:
    """The polynomial part of s below ``cutoff``, as an element of K.

    Requires ram = 1 and nonnegative support; v(s - result) >= cutoff.
    """
    cutoff = Fraction(cutoff)
    if s.ram != 1:
        raise RamifiedInput(f"ramification index {s.ram} > 1")
    if s.coeffs and min(s.coeffs) < 0:
        raise NegativeSupport("support dips below 0; factor out the pole first")
    if s.prec is not None and cutoff > s.prec:
        raise PrecisionExhausted(f"cutoff {cutoff} exceeds precision {s.prec}")
    top = max((n for n in s.coeffs if n < cutoff), default=-1)
    return RatFunc(s.field, [s.coeffs.get(n, s.field.zero()) for n in range(top + 1)])

