"""The reference for the root search in k((t)): algnum.minpoly_over_completion
and its residue equation as they were while each step built the recentered
coefficients C_i as series (PolyX.recenter_hasse at the partial sum), took the
Newton polygon of sum C_i X^i at 0 and solved the residue equation with
coeff_at.  A slope at or above the budget answers Linear only for a digit
the search would take there, as in valwb.  A helper module, not a test file:
tests compare the row-state search against it."""

import contextlib
from fractions import Fraction

from valwb.algnum import AlgElement, Linear, NoRootFound, _residue_roots
from valwb.errors import PrecisionExhausted, Uncertified
from valwb.field import BaseField
from valwb.groupval import GroupVal
from valwb.polyx import PolyX
from valwb.series import PuiseuxSeries, min_prec


def minpoly_over_completion(a: AlgElement, budget) -> object:
    """Search for a root of a's certificate inside k((t)) by digit recursion.

    At each step the Newton polygon of the certificate recentered at the
    partial sum proposes candidate next exponents; only integer exponents
    are admissible (the root must have ramification 1), and each candidate
    coefficient must solve the residue equation of its polygon segment.
    When a's own expansion has ramification 1 it guides the branch choice.
    Returns Linear(root) or NoRootFound(budget).
    """
    if a.minpoly is None:
        raise Uncertified("root search needs a polynomial certificate")
    budget = Fraction(budget)
    guide = a.expansion if a.expansion.ram == 1 else None
    f = a.field
    Q = a.minpoly.to_series(budget + 8)
    x = PuiseuxSeries.zero(f)
    last = Fraction(-1) * 10**9
    while True:
        C = Q.recenter_hasse(x)  # Q's polygon at x is that of sum C_i X^i at 0; C_i give phi
        polygon = PolyX(f, C).newton_polygon()
        if any(s.is_inf for s, _ in polygon):
            return Linear(x)  # exact root
        candidates = [s.q for s, _ in polygon if not s.is_inf and s.q > last]
        if guide is not None:
            gap = GroupVal.posinf()  # also where guide - x is 0 at its cap
            with contextlib.suppress(PrecisionExhausted):
                gap = guide.val_sub(x)  # v(guide - x), the difference not built
            if gap.is_inf:  # x matches the guide through its whole known support
                cap = min_prec(guide.prec, x.prec)
                return Linear(PuiseuxSeries(f, x.ram, x.coeffs, min_prec(budget, cap)))
            candidates = [mu for mu in candidates if mu == gap.q]
        solved = False
        for mu in sorted(candidates, reverse=True):
            if mu.denominator != 1:
                continue
            for c in _residue_roots(f, _residue_equation(f, C, mu)):
                if guide is not None and c != guide.coeff_at(mu):
                    continue
                if mu >= budget:  # a digit the search would take, at or above the budget
                    return Linear(PuiseuxSeries(f, x.ram, x.coeffs, budget))
                x = x + PuiseuxSeries.from_terms(f, {mu: c})
                last = mu
                solved = True
                break
            if solved:
                break
        if not solved:
            return NoRootFound(budget)


def _residue_equation(f: BaseField, C: list, mu: Fraction) -> list:
    """Coefficients of the residue polynomial phi(c) for slope mu, Q = sum C_i (X - x)^i.

    phi(c) = sum over the polygon points on the support line of the leading
    scalar of C_i times c^i; its nonzero roots are the admissible next
    digits.
    """
    height = None
    vals = []
    for i, ci in enumerate(C):  # series, since x is one
        if not ci.coeffs:
            vals.append(None)
            continue
        v = Fraction(min(ci.coeffs), ci.ram)
        h = v + i * mu
        vals.append((h, ci.coeff_at(v)))
        if height is None or h < height:
            height = h
    phi = [f.zero()] * len(C)
    for i, entry in enumerate(vals):
        if entry is None:
            continue
        h, lead = entry
        if h == height:
            phi[i] = lead
    while phi and f.is_zero(phi[-1]):
        phi.pop()
    return phi
