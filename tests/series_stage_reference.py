"""The reference for the single recentering stage: the series stage that
polyx kept beside the packed Taylor shift for series coefficients, a Hasse sum
on dicts of integer images with the center's powers built step by step.
A helper module, not a test file: tests compare the packed shift against it."""

import functools
import math
from fractions import Fraction

from valwb.errors import WorkbenchError
from valwb.field import BaseField
from valwb.polyx import _hasse_binomials, point_images
from valwb.series import PuiseuxSeries, lattice_cap, lattice_product, min_prec, product_prec


@functools.lru_cache(maxsize=64)
def _center_powers(a: PuiseuxSeries, n: int) -> tuple:
    """(powers, da): powers[d] is (image of a^d, its cap, its valuation bound)
    for d <= n on a's lattice, over the common denominator da of a's scalars
    (residues over F_p)."""
    p, (_, ys, da, va) = a.field.char, point_images(a)
    powers = [({0: 1}, None, Fraction(0))]
    for _ in range(n):
        pw, prec, v = powers[-1]
        prec = product_prec(prec, v, a.prec, va)
        pw = lattice_product(pw, 1, list(pw.values()), a.coeffs, 1, ys, lattice_cap(prec, a.ram))
        if p:  # residues, and the keys whose terms cancel mod p dropped
            pw = {k: x % p for k, x in pw.items() if x % p}
        powers.append((pw, prec, Fraction(min(pw), a.ram) if pw else prec))
    return tuple(powers), da


def shift_stage(field: BaseField, coeffs, a: PuiseuxSeries) -> tuple:
    """C_i = sum over j of C(j, i) c_j a^(j-i), for series c_j and a, on
    integer images: (e, rows), row i (acc, d, cap) for C_i = sum of acc[k]/d
    t^(k/e) + O(t^cap), or (None, None, None) when C_i = c_i.  The caps are
    those of the series arithmetic term by term, in closed form."""
    n = len(coeffs) - 1
    e = math.lcm(a.ram, *(c.ram for c in coeffs))
    if n < 1 or a.is_exact_zero():  # every shifted term carries a power of 0
        return e, [(None, None, None)] * (n + 1)
    if a.field != field:
        raise WorkbenchError("base field mismatch")
    flat, dc = field.as_integers([x for c in coeffs for x in c.coeffs.values()])
    flat = iter(flat)  # zip stops at the last key of c before it takes a value
    images = [dict(zip(c.coeffs, flat)) for c in coeffs]
    powers, da = _center_powers(a, n)
    sa = e // a.ram
    rows = []
    for i, row in enumerate(_hasse_binomials(field, n)):
        terms = [(j, b) for j, b in row if not coeffs[j].is_exact_zero()]
        if not terms:  # adding exact zeros changes neither values nor the cap
            rows.append((None, None, None))
            continue
        prec = coeffs[i].prec
        for j, _ in terms:
            c, (_, cap, v) = coeffs[j], powers[j - i]
            prec = min_prec(prec, product_prec(c.prec, c.val_lower_bound(), cap, v))
        cap = lattice_cap(prec, e)
        m = terms[-1][0] - i  # C_i has the denominator dc * da^m
        s = e // coeffs[i].ram
        acc = {k * s: x * da**m for k, x in images[i].items() if k * s < cap}
        for j, b in terms:
            img, pw = images[j], powers[j - i][0]
            w = int(b) * da**(m - j + i)
            for k, x in lattice_product(img, e // coeffs[j].ram, [w * x for x in img.values()],
                                        pw, sa, list(pw.values()), cap).items():
                acc[k] = acc.get(k, 0) + x
        rows.append((acc, dc * da**m, prec))
    return e, rows


def shifted_values(field: BaseField, coeffs, a: PuiseuxSeries) -> tuple:
    """The value profile (e, rows) of the series stage for series c_j, the top one
    possibly an unknown zero; a key survives if its integer is nonzero (mod p)."""
    e, rows = shift_stage(field, coeffs, a)
    p, out = field.char, []
    for c, (acc, _, cap) in zip(coeffs, rows):
        if acc is None:
            k, cap = min(c.coeffs) * (e // c.ram) if c.coeffs else None, c.prec
        else:
            k = min((k for k, x in acc.items() if (x % p if p else x)), default=None)
        out.append((k, cap))
    return e, out


def recentered_series(f, a) -> list:
    """PolyX.recenter_hasse at a series point, along the series stage: each C_i
    lowered to one scalar per surviving key, or c_i itself for a row without terms."""
    poly, a = f._with_point(a)
    field, lower = f.field, f.field.from_integer
    e, rows = shift_stage(field, poly.coeffs, a)
    return [c if acc is None else
            PuiseuxSeries(field, e, {k: lower(x, d) for k, x in acc.items() if x}, cap)
            for c, (acc, d, cap) in zip(poly.coeffs, rows)]
