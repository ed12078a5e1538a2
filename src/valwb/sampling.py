"""Seeded random generators for reproducible property harnesses.

All sampling goes through a caller-supplied ``random.Random`` so that a
fixed seed reproduces every verdict bit-for-bit.  A sample whose verdict is
undecidable at working precision is redrawn, a bounded number of times, and
the harness reports the redraw count.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HorizonExceeded, PrecisionExhausted
from .field import BaseField
from .polyx import PolyX
from .series import PuiseuxSeries, RatFunc, tp_trim


def _redraw(draw, use, limit: int = 2000):
    """Run use(draw()) redrawing on undecidability; returns (result, redraws)."""
    redraws = 0
    while True:
        try:
            return use(draw()), redraws
        except (PrecisionExhausted, HorizonExceeded):
            redraws += 1
            if redraws > limit:
                raise


def random_scalar(field: BaseField, rng, nonzero: bool = False):
    if field.char > 0:
        lo = 1 if nonzero else 0
        return rng.randrange(lo, field.char) % field.char
    num = rng.randint(-6, 6)
    if nonzero and num == 0:
        num = 1 + rng.randint(0, 5)
    return Fraction(num, rng.randint(1, 4))


def random_tpoly(field: BaseField, rng, deg: int) -> list:
    coeffs = [random_scalar(field, rng) for _ in range(deg + 1)]
    coeffs[-1] = random_scalar(field, rng, nonzero=True)
    return coeffs


def random_ratfunc(field: BaseField, rng, deg: int = 3, poles: bool = False) -> RatFunc:
    num = random_tpoly(field, rng, rng.randint(0, deg))
    if not poles:  # canonical scalars over a unit denominator: nothing to normalize
        return RatFunc._polynomial(field, tp_trim(field, num))
    return RatFunc(field, num, random_tpoly(field, rng, rng.randint(0, deg)))


def random_series(field: BaseField, rng, prec, ram: int = 1, depth: int = 6,
                  min_exp: int = 0, nonzero: bool = False) -> PuiseuxSeries:
    """A random series with ``depth`` support points below the cap."""
    prec = Fraction(prec)
    terms = {}
    top = int(prec * ram) - 1
    if top < min_exp * ram:
        return PuiseuxSeries.unknown_zero(field, prec)
    for _ in range(depth):
        n = rng.randint(min_exp * ram, top)
        terms[Fraction(n, ram)] = random_scalar(field, rng)
    if nonzero and all(field.is_zero(c) for c in terms.values()):
        terms[Fraction(min_exp)] = field.one()
    return PuiseuxSeries.from_terms(field, terms, prec)


def random_polyx(field: BaseField, rng, deg: int, domain: str = "ratfunc",
                 monic: bool = False, prec=None) -> PolyX:
    """A random degree-``deg`` polynomial in X, decidably nonzero lead."""
    if domain == "ratfunc":
        coeffs = [random_ratfunc(field, rng) for _ in range(deg + 1)]
        lead = random_ratfunc(field, rng)  # nonzero, as random_tpoly's top coefficient is
        coeffs[-1] = RatFunc.one(field) if monic else lead
    else:
        p = Fraction(prec) if prec is not None else Fraction(24)
        coeffs = [random_series(field, rng, p) for _ in range(deg + 1)]
        coeffs[-1] = (PuiseuxSeries.one(field) if monic
                      else random_series(field, rng, p, nonzero=True))
    return PolyX(field, coeffs)
