"""Exact base fields for series coefficients: F_p (p prime) and Q.

Scalars are stored raw -- Python ints in [0, p) for F_p, ``Fraction`` for Q --
and all arithmetic goes through a :class:`BaseField` instance so that the
series and polynomial layers never branch on the characteristic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import WorkbenchError

MAX_PRIME = 2**31  # configured bound on positive characteristic


def prime_factors(n: int) -> list:
    """The prime factors of n with multiplicity, least first; [] for n < 2.  The package's
    one trial division, read for primality, roots of unity, Krasner constants and divisors."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] if n > 1 else out


class BaseField:
    """F_p for prime p (char = p) or Q (char = 0)."""

    def __init__(self, char: int = 0):
        if char != 0:
            if char >= MAX_PRIME:
                raise WorkbenchError(f"characteristic {char} exceeds the bound {MAX_PRIME}")
            if prime_factors(char) != [char]:
                raise WorkbenchError(f"characteristic {char} is not prime")
        self.char = char
        # scalars are immutable, so one zero and one one serve every caller
        self._zero = Fraction(0) if char == 0 else 0
        self._one = Fraction(1) if char == 0 else 1

    # -- element construction -----------------------------------------

    def coerce(self, x):
        """Accept int, Fraction, or exact-rational string; never a float."""
        if type(x) is Fraction and self.char == 0:
            return x
        if isinstance(x, float):
            raise WorkbenchError(f"float scalar {x!r} is not exact; pass an int, "
                                 "a Fraction or a rational string")
        if isinstance(x, str):
            x = Fraction(x)
        if self.char == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise WorkbenchError(f"denominator not invertible mod {self.char}")
            return (x.numerator * pow(x.denominator, -1, self.char)) % self.char
        return int(x) % self.char

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero scalar")
        if self.char == 0:
            return self._one / a  # exact for int input too, never a float
        return pow(a, -1, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.char == 0:
            return a**n
        return pow(a, n, self.char)

    def is_zero(self, a) -> bool:
        return not a

    # -- integer images, for convolutions ---------------------------------

    def as_integers(self, scalars) -> tuple:
        """(ints, d) with scalars[i] = ints[i] / d: d is a common denominator in
        characteristic 0 and 1 in characteristic p; sums of products of such integers
        come back exactly through :meth:`from_integer`.  Its callers map series scalars
        (and the RatFunc constructor its input); a RatFunc keeps its own integers."""
        if self.char:
            return list(scalars), 1
        pairs = [c.as_integer_ratio() for c in scalars]
        d = math.lcm(*[q for _, q in pairs])
        return [n * (d // q) for n, q in pairs], d

    def from_integer(self, n: int, d: int):
        """The scalar n / d."""
        return Fraction(n, d) if self.char == 0 else n % self.char

    # -- roots of unity --------------------------------------------------

    def root_of_unity(self, e: int):
        """A primitive e-th root of unity, or None if the field lacks one.

        F_p has one iff e | p - 1; Q only for e <= 2.
        """
        if e == 1:
            return self.one()
        if self.char == 0:
            return Fraction(-1) if e == 2 else None
        p = self.char
        if (p - 1) % e != 0:
            return None
        # z = g^((p-1)/e) has order e iff z^(e/q) != 1 for each prime q | e; a generator g gives one
        primes = set(prime_factors(e))
        for g in range(2, p):
            z = pow(g, (p - 1) // e, p)
            if all(pow(z, e // q, p) != 1 for q in primes):
                return z

    # -- text ----------------------------------------------------------

    def scalar_text(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.char == other.char

    def __hash__(self):
        return hash(("BaseField", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"F_{self.char}"


QQ = BaseField(0)


def GF(p: int) -> BaseField:
    """F_p; p = 0 is refused, since BaseField(0) would quietly be Q."""
    if p < 2:
        raise WorkbenchError(f"characteristic {p} is not prime")
    return BaseField(p)
