"""Seeded random generators for reproducible property harnesses.

All sampling goes through a caller-supplied ``random.Random`` so that a
fixed seed reproduces every verdict bit-for-bit.  A sample whose verdict is
undecidable at working precision is redrawn, a bounded number of times, and
the harness reports the redraw count.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import BaseField
from .polyx import PolyX
from .report import UNDECIDABLE, Evidence
from .series import PuiseuxSeries, RatFunc, _lowest, _pair

REDRAW_LIMIT = 2000  # redraws of one sample before its undecidability is raised


def _redraw(draw, use):
    """Run use(draw()) redrawing on undecidability; returns (result, redraws)."""
    redraws = 0
    while True:
        try:
            return use(draw()), redraws
        except UNDECIDABLE:
            redraws += 1
            if redraws > REDRAW_LIMIT:
                raise


def _redraws(samples: int, draw, use) -> tuple:
    """(failures, Evidence) of use on ``samples`` draws, each redrawn while
    its verdict is undecidable; the redraws are the undecidable count."""
    failures = undecidable = 0
    for _ in range(samples):
        ok, redraws = _redraw(draw, use)
        failures += not ok
        undecidable += redraws
    return failures, Evidence(samples, undecidable)


def _scalar_draw(field: BaseField, rng, nonzero: bool = False) -> tuple:
    """A random scalar's draws, as (numerator, denominator)."""
    if field.char > 0:
        return rng.randrange(1 if nonzero else 0, field.char) % field.char, 1
    num = rng.randint(-6, 6)
    if nonzero and num == 0:
        num = 1 + rng.randint(0, 5)
    return num, rng.randint(1, 4)


def random_scalar(field: BaseField, rng, nonzero: bool = False):
    num, den = _scalar_draw(field, rng, nonzero)
    return Fraction(num, den) if field.char == 0 else num


def random_tpoly(field: BaseField, rng, deg: int) -> tuple:
    """A random polynomial in t of degree deg, its top scalar nonzero, as (ints, d): its
    scalars are ints[i]/d, d the lcm of the drawn denominators (1 over F_p)."""
    draws = [_scalar_draw(field, rng) for _ in range(deg + 1)]
    draws[-1] = _scalar_draw(field, rng, nonzero=True)
    nums, dens = zip(*draws)
    d = math.lcm(*dens)
    return [num * (d // den) for num, den in draws] if d > 1 else list(nums), d


def random_ratfunc(field: BaseField, rng, deg: int = 3, poles: bool = False) -> RatFunc:
    xs, dx = random_tpoly(field, rng, rng.randint(0, deg))
    if not poles:  # trimmed, and residues over F_p
        return RatFunc._of(field, (xs, 1) if dx == 1 else _pair(field.char, xs, dx))
    ys, dy = random_tpoly(field, rng, rng.randint(0, deg))
    return RatFunc._of(field, *_lowest(field.char, [x * dy for x in xs], dx, ys))


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
