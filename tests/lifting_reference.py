"""The reference for reading each value profile once: lifting's same-delta and density
code as it was when each call computed the profile of one polynomial at one center anew
for its value, its weight-0 minimum, its delta and its verification.  A helper module,
not a test file: tests compare the kept code against it."""

import math
from fractions import Fraction

from valwb.errors import (DeltaTooLarge, HorizonExceeded, PrecisionExhausted, UnsupportedKind,
                          WorkbenchError, ZeroPolynomial)
from valwb.groupval import FIN0, GroupVal
from valwb.lifting import (DENSITY_KINDS, UNIQUE_PAIR_DENSITY_OBSTRUCTION, DensityResult,
                           _difference_exceeds, _gauss_value, _truncate_to_k, _value_exceeds,
                           classify_extension, roots_matching_threshold)
from valwb.polyx import RATFUNC, PolyX
from valwb.valuation import ValuationSpec, _min_weighted, delta, eval_spec


def approximate_same_delta(f: PolyX, alpha: GroupVal, spec: ValuationSpec) -> PolyX:
    """A polynomial over K with the same degree, value and delta as f.

    Requires delta(f) < alpha in the rationals; the coefficient cutoff comes
    from the continuity-of-roots threshold, and all three equalities are
    re-verified before returning.
    """
    if not alpha.is_fin:
        raise WorkbenchError("alpha must be a rational value")
    d = delta(spec, f)
    if not d < alpha:
        raise DeltaTooLarge(f"delta(f) = {d.to_text()} is not below alpha = {alpha.to_text()}")
    if f.domain == RATFUNC:
        return f
    vf = eval_spec(spec, f)
    tau = roots_matching_threshold(f, alpha) if f.degree() >= 1 else alpha
    terms = [tau.q, alpha.q, _gauss_value(f).q, f.leading().val().q]
    if vf.is_fin:
        terms.append(vf.q)
    cutoff = max(terms) + 1
    out = _truncate_to_k(f, cutoff)
    if out.degree() != f.degree():
        raise WorkbenchError("truncation dropped the leading coefficient")
    if eval_spec(spec, out) != vf:
        raise WorkbenchError("truncation failed to preserve the value")
    if delta(spec, out) != d:
        raise WorkbenchError("truncation failed to preserve delta")
    return out


def approximate_density(f: PolyX, g: PolyX, alpha: GroupVal,
                        spec: ValuationSpec) -> DensityResult:
    """Theorem-1.4-style approximation of f/g by a quotient over K.

    Selects the weight beta from the two inequality families (beta + i*gamma
    > alpha for all i <= max(deg f, deg g); beta + min(C, D) + k*gamma >
    alpha + 2 v g for all k <= deg f + deg g), truncates coefficients
    accordingly, and verifies every output condition by independent
    re-evaluation.  Raises UnsupportedKind for unique-pair and Cauchy-limit
    specs, where density provably fails.
    """
    if not alpha.is_fin:
        raise WorkbenchError("alpha must be a rational value")
    kind = classify_extension(spec)
    if kind not in DENSITY_KINDS:
        raise UnsupportedKind(
            f"density approximation is impossible for kind {kind}",
            UNIQUE_PAIR_DENSITY_OBSTRUCTION)
    if g.is_zero():
        raise ZeroPolynomial("the denominator g must be nonzero")
    if spec.kind == "pcslimit":
        return _density_via_stabilized_pair(f, g, alpha, spec)
    return _density_monomial(f, g, alpha, spec)


def _density_monomial(f: PolyX, g: PolyX, alpha: GroupVal,
                      spec: ValuationSpec) -> DensityResult:
    if f.domain == RATFUNC and g.domain == RATFUNC:
        return DensityResult(f, g, Fraction(0), Fraction(0), "already over K")
    center, gamma = spec.center, spec.gamma
    vf, vg = eval_spec(spec, f), eval_spec(spec, g)
    n, m = f.degree(), g.degree()
    cmin = _min_recentered_value(f, center)
    dmin = _min_recentered_value(g, center)
    mincd = min(cmin, dmin)
    # beta > alpha - i*gamma and beta > alpha + 2vg - min(C,D) - k*gamma
    b1 = max(alpha.q - i * gamma.q for i in range(max(m, n) + 1))
    b2 = max(alpha.q + 2 * vg.q - mincd.q - k * gamma.q for k in range(m + n + 1))
    bound = max(b1, b2)
    e = math.lcm(bound.denominator, gamma.q.denominator)
    beta = Fraction(math.floor(bound * e) + 1, e) + 1  # minimal in (1/e)Z, +1 margin
    cutoff_terms = [beta, alpha.q, _gauss_value(f).q, _gauss_value(g).q,
                    f.leading().val().q, g.leading().val().q]
    for h in (f, g):
        if h.degree() >= 1:
            try:
                dh = delta(spec, h)
                cutoff_terms.append(roots_matching_threshold(h, dh).q)
            except PrecisionExhausted:
                pass
    va = None
    if center.coeffs:
        va = center.val().q
        cutoff_terms.extend(beta - j * va for j in range(1, max(m, n) + 1))
    cutoff = max(cutoff_terms) + 1
    f1, g1 = _truncate_to_k(f, cutoff), _truncate_to_k(g, cutoff)
    _verify_density(f, g, f1, g1, alpha, spec, vf, vg)
    return DensityResult(f1, g1, beta, cutoff, "verified")


def _density_via_stabilized_pair(f: PolyX, g: PolyX, alpha: GroupVal,
                                 spec: ValuationSpec) -> DensityResult:
    """Reduce the limit-spec case to a monomial pair chosen deep enough.

    Picks the first index where the values of f and g have stabilized and
    the sequence weight exceeds a raised target alpha_0 > max(alpha, vf,
    vg); runs the monomial construction there and re-verifies under the
    original spec.
    """
    gen = spec.gen
    vf, vg = eval_spec(spec, f), eval_spec(spec, g)
    alpha0 = GroupVal.fin(max(alpha.q, vf.q, vg.q) + 1)
    gammas = gen.gammas()
    elems = gen.elements()
    chosen = None
    for i, gm in enumerate(gammas):
        if gm <= alpha0:
            continue
        pair_spec = ValuationSpec.monomial(elems[i], gm, over=spec.over)
        if eval_spec(pair_spec, f) == vf and eval_spec(pair_spec, g) == vg:
            chosen = pair_spec
            break
    if chosen is None:
        raise HorizonExceeded(
            "no sequence index stabilizes f and g above the raised alpha")
    res = _density_monomial(f, g, alpha0, chosen)
    _verify_density(f, g, res.f_prime, res.g_prime, alpha, spec, vf, vg)
    return res


def _min_recentered_value(h: PolyX, center) -> GroupVal:
    return _min_weighted(h.recentered_values(center), FIN0)


def _verify_density(f, g, f1, g1, alpha, spec, vf, vg):
    checks = [
        (f.degree() == f1.degree(), "deg f preserved"),
        (g.degree() == g1.degree(), "deg g preserved"),
        (eval_spec(spec, f1) == vf, "v f preserved"),
        (eval_spec(spec, g1) == vg, "v g preserved"),
        (_difference_exceeds(spec, f, f1, alpha), "v(f - f') > alpha"),
        (_difference_exceeds(spec, g, g1, alpha), "v(g - g') > alpha"),
        (_quotient_gap_exceeds(spec, f, g, f1, g1, vg, alpha),
         "v(f/g - f'/g') > alpha"),
    ]
    for ok, label in checks:
        if not ok:
            raise WorkbenchError(f"density verification failed: {label}")


def _quotient_gap_exceeds(spec, f, g, f1, g1, vg, alpha) -> bool:
    num = f * g1 - f1 * g
    if num.is_zero():
        return True
    target = alpha + vg + eval_spec(spec, g1)
    return _value_exceeds(spec, num, target)
