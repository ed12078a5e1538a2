"""Valuation specifications on K(X) and their evaluation.

A :class:`ValuationSpec` is one of

* ``Gauss``                      -- vf = min val(c_i), i.e. the monomial
  valuation centered at 0 with weight 0;
* ``Monomial(center, gamma)``    -- recenter at the center, weight the
  (X - center)-degree by gamma, take the minimum;
* ``KeyPoly(Q, vQ, base)``       -- expand in Q-adic digits, value the digits
  with the base spec and each Q-power by vQ;
* ``PcsLimit(gen)``              -- the limit along a pseudo-Cauchy sequence;
  evaluation delegates to the stabilized value of v f(a_m).

Universally quantified predicates (key polynomial, minimal pair) are exposed
as bounded falsifiers returning explicit verdicts, never as provers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algnum import AlgElement
from .errors import HorizonExceeded, PrecisionExhausted, WorkbenchError, ZeroPolynomial
from .field import BaseField
from .groupval import FIN0, GroupVal
from .pcs import PcsGenerator, UltimatelyConstant, values_along
from .polyx import PolyX, _polygon
from .report import Evidence, search
from .sampling import random_polyx
from .series import PuiseuxSeries, min_prec

OVER_K = "K"
OVER_KHAT = "Khat"


class ValuationSpec:
    """Immutable description of an extension of the t-adic valuation to K(X)."""

    __slots__ = ("kind", "field", "center", "gamma", "Q", "vQ", "base", "gen", "over")

    def __init__(self, kind, field, center=None, gamma=None, Q=None, vQ=None,
                 base=None, gen=None, over=OVER_K):
        self.kind = kind
        self.field = field
        self.center = center
        self.gamma = gamma
        self.Q = Q
        self.vQ = vQ
        self.base = base
        self.gen = gen
        self.over = over

    # -- constructors ------------------------------------------------------

    @staticmethod
    def gauss(field: BaseField, over=OVER_K) -> "ValuationSpec":
        return ValuationSpec("gauss", field, center=PuiseuxSeries.zero(field),
                             gamma=FIN0, over=over)

    @staticmethod
    def monomial(center, gamma: GroupVal, over=OVER_K) -> "ValuationSpec":
        _require_finite(gamma)
        center = center.to_series()
        return ValuationSpec("monomial", center.field, center=center, gamma=gamma, over=over)

    @staticmethod
    def keypoly(Q: PolyX, vQ: GroupVal, base: "ValuationSpec", over=OVER_K) -> "ValuationSpec":
        require_key_polynomial(Q)
        _require_finite(vQ)
        return ValuationSpec("keypoly", Q.field, Q=Q, vQ=vQ, base=base, over=over)

    @staticmethod
    def pcslimit(gen, over=OVER_K) -> "ValuationSpec":
        return ValuationSpec("pcslimit", gen.field, gen=gen, over=over)

    def retag(self, over) -> "ValuationSpec":
        return ValuationSpec(self.kind, self.field, self.center, self.gamma,
                             self.Q, self.vQ, self.base, self.gen, over)

    # -- text ---------------------------------------------------------------

    def to_text(self) -> str:
        if self.kind == "gauss":
            return f"gauss over={self.over}"
        if self.kind == "monomial":
            return (f"monomial center={self.center.to_text()} "
                    f"gamma={self.gamma.to_text()} over={self.over}")
        if self.kind == "keypoly":
            return (f"keypoly Q={self.Q.to_text()} vQ={self.vQ.to_text()} "
                    f"base=({self.base.to_text()}) over={self.over}")
        return f"pcslimit gen={self.gen.name} over={self.over}"

    def __repr__(self):
        return f"ValuationSpec({self.to_text()})"


def require_key_polynomial(Q: PolyX) -> None:
    """Refuse Q as a key polynomial, of a spec or of a sequence, unless monic of degree >= 1."""
    if not Q.is_monic() or Q.degree() < 1:
        raise WorkbenchError("key polynomial must be monic of degree >= 1")


def _require_finite(weight: GroupVal) -> None:
    if weight.is_inf:
        raise WorkbenchError("a valuation weight cannot be infinite")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_spec(spec: ValuationSpec, f: PolyX) -> GroupVal:
    """The value of the polynomial f under the spec; exact GroupVal."""
    if f.is_zero():
        raise ZeroPolynomial("valuation of the zero polynomial")
    if spec.kind in ("gauss", "monomial"):
        return _min_weighted(f.recentered_values(spec.center), spec.gamma)
    if spec.kind == "keypoly":
        return min(eval_spec(spec.base, digit) + i * spec.vQ  # f != 0 has a nonzero digit
                   for i, digit in enumerate(f.qadic_expand(spec.Q)) if not digit.is_zero())
    if spec.kind == "pcslimit":
        _, trend = values_along(f, spec.gen)
        if isinstance(trend, UltimatelyConstant):
            return trend.value
        raise HorizonExceeded(
            "f has no stabilized value along the sequence at this horizon")
    raise WorkbenchError(f"unknown spec kind {spec.kind!r}")


def _min_weighted(profile: tuple, gamma: GroupVal) -> GroupVal:
    """min(val C_i + i*gamma) over their value profile, with honest undecidability.

    Unknown-zero coefficients contribute only a lower bound; the minimum is
    trusted iff every such bound sits at or above it.  The weight is finite,
    as the spec constructors demand; with gamma.q = a/b, term i is the pair
    (i*gamma.z, k*b + i*a*e) over e*b, which orders as the GroupVals do.
    """
    _require_finite(gamma)
    (e, rows), gz, gq = profile, gamma.z, gamma.q
    a, b = gq.numerator, gq.denominator
    terms = [(i * gz, k * b + i * a * e) for i, (k, _) in enumerate(rows) if k is not None]
    if not terms:
        raise PrecisionExhausted("no decidable coefficient valuation survives")
    z, n = min(terms)
    best = (z, Fraction(n, e * b))
    for i, (k, cap) in enumerate(rows):
        if k is None and cap is not None:  # an unknown zero
            bound = (i * gz, Fraction(cap) + i * gq)
            if bound < best:
                raise PrecisionExhausted(
                    f"an undecidable coefficient (bound {GroupVal(*bound).to_text()}) "
                    f"may cut below the decided minimum {GroupVal(*best).to_text()}")
    return GroupVal(*best)


def eval_rational(spec: ValuationSpec, f: PolyX, g: PolyX) -> GroupVal:
    """v(f/g) = vf - vg."""
    return eval_spec(spec, f) - eval_spec(spec, g)


def delta(spec: ValuationSpec, f: PolyX) -> GroupVal:
    """max v(X - z) over roots z of f, via the Newton polygon at the center.

    Under a monomial spec, v(X - z) = min(gamma, v(center - z)), so the
    polygon slopes beta_j at the center give delta = max_j min(gamma,
    beta_j); an exact root at the center contributes gamma itself.
    """
    if spec.kind in ("gauss", "monomial"):
        if f.degree() < 1:
            raise ZeroPolynomial("delta needs a polynomial with roots")
        return _profile_delta(f.recentered_values(spec.center), spec.gamma)
    if spec.kind == "pcslimit":
        return stabilized_delta(spec.gen, f)
    raise WorkbenchError(
        "delta is defined for monomial-shaped specs; rewrite a key-polynomial "
        "spec through its defining minimal pair first")


def _profile_delta(profile: tuple, gamma: GroupVal) -> GroupVal:
    """:func:`delta` off f's value profile at the center: max_j min(gamma, beta_j)
    over the polygon's slopes, gamma itself for an exact root at the center."""
    return max(gamma if slope.is_inf else min(gamma, slope) for slope, _ in _polygon(*profile))


def stabilized_delta(gen: PcsGenerator, f: PolyX) -> GroupVal:
    """delta(f) along the sequence: the stabilized delta under the monomial
    spec at (a_m, gamma_m), read on the last ``window`` indices."""
    gammas = gen.gammas()
    elems = gen.elements()
    W = gen.window
    if len(gammas) < W:
        raise HorizonExceeded("window exceeds the materialized horizon")
    tail = [delta(ValuationSpec.monomial(elems[m], gammas[m]), f)
            for m in range(len(gammas) - W, len(gammas))]
    if all(d == tail[0] for d in tail):
        return tail[0]
    raise HorizonExceeded("delta did not stabilize within the horizon")


def is_pair_equivalent(a, b, gamma: GroupVal) -> bool:
    """True iff v(a - b) >= gamma, i.e. (b, gamma) defines the same extension."""
    a, b = a.to_series(), b.to_series()
    try:
        return a.val_sub(b) >= gamma  # PosInf on exact equality
    except PrecisionExhausted:
        prec = min_prec(a.prec, b.prec)
    if GroupVal.fin(prec) >= gamma:
        return True  # v(a-b) >= prec >= gamma even though undecidable exactly
    raise PrecisionExhausted(
        f"v(a - b) is only known to be >= {prec}, below gamma = {gamma.to_text()}")


# ---------------------------------------------------------------------------
# bounded falsifiers
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    f: PolyX


def is_key_polynomial(spec: ValuationSpec, Q: PolyX, samples: int,
                      rng, extra_pool=()) -> object:
    """Falsify "deg f < deg Q implies delta(f) < delta(Q)" on a bounded pool.

    The pool is (i) X - c for structured centers (truncations of the spec's
    center at its support breaks, plus supplied candidates) and (ii)
    ``samples`` random polynomials of each degree below deg Q.  Returns a
    Counterexample, or the Evidence of a miss: evidence, not proof, with
    samples whose delta is undecidable at working precision counted apart.
    """
    if not Q.is_monic():
        raise WorkbenchError("key polynomial candidate must be monic")
    dQ = delta(spec, Q)
    field = Q.field
    pool = []
    if Q.degree() > 1:
        pool = [PolyX.x_minus(c) for c in [*_center_truncations(spec), *extra_pool]]
    draws = (random_polyx(field, rng, d, monic=True)
             for d in range(1, Q.degree()) for _ in range(samples))
    found = search(itertools.chain(pool, draws), lambda f: delta(spec, f) >= dQ)
    return found if isinstance(found, Evidence) else Counterexample(found)


def _center_truncations(spec: ValuationSpec) -> list:
    """Truncations of the spec's center at each support break (structured pool)."""
    if spec.kind not in ("gauss", "monomial"):
        return []
    s = spec.center
    out = [PuiseuxSeries.zero(s.field)]
    for e in s.support():
        kept = {Fraction(n, s.ram): c for n, c in s.coeffs.items() if Fraction(n, s.ram) < e}
        out.append(PuiseuxSeries.from_terms(s.field, kept))
    return out


@dataclass
class Smaller:
    b: object


def minimal_pair_search(a, gamma: GroupVal, candidate_pool=()) -> object:
    """Search for a strictly lower-degree equivalent center (desk-scale).

    Pool: truncations of a's expansion at each support break, plus supplied
    candidates.  A candidate qualifies when its certified degree is smaller
    and v(a - b) >= gamma.  Returns Smaller, or the Evidence of a miss, in
    which a candidate whose v(a - b) is undecidable counts apart.
    """
    deg_a = a.degree()
    s = a.expansion
    pool = [*_center_truncations(ValuationSpec.monomial(s, gamma)), *candidate_pool]

    def smaller(b: PuiseuxSeries) -> bool:
        deg_b = _pool_degree(b)
        return deg_b is not None and deg_b < deg_a and is_pair_equivalent(s, b, gamma)

    found = search((b.expansion if isinstance(b, AlgElement) else b.to_series()
                    for b in pool), smaller)
    return found if isinstance(found, Evidence) else Smaller(found)


def _pool_degree(b: PuiseuxSeries) -> Optional[int]:
    """Degree of a finite exact Puiseux sum: its ramification index, when k
    has the matching root of unity; 1 for unramified exact sums (in K)."""
    if b.prec is not None:
        return None
    if b.ram == 1:
        return 1
    if b.field.root_of_unity(b.ram) is not None:
        return b.ram
    return None
