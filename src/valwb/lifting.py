"""Classification and lifting of valuation extensions to the completion.

The five extension kinds, the induced extension on K-hat(X), completeness
checks for key-polynomial sequences and their lifting, the continuity-of-
roots threshold, and the two approximation algorithms (same-delta
approximation over K; density of K(X) in K-hat(X)).  Every approximation
output is re-verified by independent evaluation before it is returned.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

from .algnum import AlgElement, NoRootFound, galois_twist, minpoly_over_completion
from .errors import (
    DeltaTooLarge,
    HorizonExceeded,
    PrecisionExhausted,
    Uncertified,
    UnsupportedKind,
    WorkbenchError,
    ZeroPolynomial,
)
from .groupval import FIN0, GroupVal
from .pcs import (
    CauchyWithLimit,
    UltimatelyConstant,
    classify_generator,
    values_along,
)
from .polyx import RATFUNC, PolyX, _packed_values
from .report import Evidence, search
from .series import DEFAULT_PREC, PuiseuxSeries, RatFunc, min_prec, truncate_to_ratfunc
from .valuation import (OVER_KHAT, ValuationSpec, _min_weighted, _profile_delta, delta, eval_spec,
                        is_pair_equivalent, require_key_polynomial)

# extension kinds
RESIDUE_TRANSCENDENTAL = "ResidueTranscendental"
VALUE_TRANSCENDENTAL_COFINAL = "ValueTranscendentalCofinal"
VALUE_TRANSCENDENTAL_UNIQUE_PAIR = "ValueTranscendentalUniquePair"
VALUATION_ALGEBRAIC_TYPE_I = "ValuationAlgebraicTypeI"
VALUATION_ALGEBRAIC_TYPE_II = "ValuationAlgebraicTypeII"

DENSITY_KINDS = (RESIDUE_TRANSCENDENTAL, VALUE_TRANSCENDENTAL_COFINAL,
                 VALUATION_ALGEBRAIC_TYPE_I)


def _kind(spec: ValuationSpec) -> tuple:
    """(extension kind, the generator's Cauchy verdict or None); the kind is decided only here.

    Monomial weights in the embedded rationals give residue-transcendental
    extensions; a weight with nonzero lex component exceeds every rational,
    so the pair of definition is unique.  Limit specs split by the
    generator's Cauchy/transcendental-type dichotomy.
    """
    if spec.kind in ("gauss", "monomial"):
        if spec.gamma.is_torsion_mod_base():
            return RESIDUE_TRANSCENDENTAL, None
        return VALUE_TRANSCENDENTAL_UNIQUE_PAIR, None
    if spec.kind == "pcslimit":
        verdict = classify_generator(spec.gen)
        if isinstance(verdict, CauchyWithLimit):
            return VALUATION_ALGEBRAIC_TYPE_II, verdict
        return VALUATION_ALGEBRAIC_TYPE_I, None
    raise WorkbenchError(f"cannot classify a spec of kind {spec.kind!r}")


def classify_extension(spec: ValuationSpec) -> str:
    """Map a spec to its extension kind."""
    return _kind(spec)[0]


def induce(spec: ValuationSpec):
    """The induced extension on K-hat(X), with a provenance note.

    Monomial data carries over unchanged (the induced extension is uniquely
    determined by any pair of definition).  A limit spec with a Cauchy
    generator becomes the monomial spec at the limit with the lex weight
    (1, 0); a transcendental-type generator stays a limit spec.
    """
    kind, cauchy = _kind(spec)
    if cauchy is not None:
        ind = ValuationSpec.monomial(cauchy.limit, GroupVal.lex(1, 0), over=OVER_KHAT)
        return ind, "Cauchy generator: unique-pair monomial spec at the limit"
    if kind == VALUATION_ALGEBRAIC_TYPE_I:
        return spec.retag(OVER_KHAT), ("transcendental-type generator: immediate "
                                       "extension, limit spec retagged")
    return spec.retag(OVER_KHAT), "same pair of definition, retagged over the completion"


# ---------------------------------------------------------------------------
# key-polynomial sequences
# ---------------------------------------------------------------------------

class CskpSeq(tuple):
    """An ordered sequence of (key polynomial, delta) with monic key polynomials of
    degree >= 1 and distinct, increasing deltas."""

    def __new__(cls, entries):
        entries = tuple(entries)
        for q, _ in entries:
            require_key_polynomial(q)
        for (_, d1), (_, d2) in zip(entries, entries[1:]):
            if not d1 < d2:
                raise WorkbenchError(
                    f"sequence deltas must strictly increase: {d1.to_text()} "
                    f"then {d2.to_text()}")
        return super().__new__(cls, entries)

    def to_text(self) -> str:
        return "; ".join(f"{q.to_text()} @ {d.to_text()}" for q, d in self)


@dataclass
class Witness:
    index: int
    value: GroupVal


def cskp_check(seq: CskpSeq, f: PolyX, spec: ValuationSpec) -> object:
    """First sequence entry computing v f through its digit expansion.

    Returns Witness(index) for the first Q with deg Q <= deg f and v_Q f = v f,
    or the Evidence of a miss, which with every entry decided shows the sequence
    incomplete for f at desk scale (an undecidable entry's note: ``entry i: why``).
    """
    vf = eval_spec(spec, f)

    def computes_vf(idx: int) -> bool:
        Q = seq[idx][0]
        kp = ValuationSpec.keypoly(Q, eval_spec(spec, Q), base=spec, over=spec.over)
        return eval_spec(kp, f) == vf

    admissible = (idx for idx, (Q, _) in enumerate(seq) if Q.degree() <= max(f.degree(), 0))
    found = search(admissible, computes_vf, label=lambda idx: f"entry {idx}")
    return found if isinstance(found, Evidence) else Witness(found, vf)


def lift_cskp(seq: CskpSeq, spec: ValuationSpec, center: Optional[AlgElement] = None,
              budget=DEFAULT_PREC):
    """Lift a complete sequence over K to one over the completion.

    Cofinal and transcendental-type cases pass through unchanged.  Otherwise the
    linear entries stay and X - c becomes the final center: c is the center's ram-1
    root for a unique pair (with no root found, the sequence stays) or the Cauchy limit.
    Returns (lifted sequence, note).
    """
    kind, cauchy = _kind(spec)
    if kind in (RESIDUE_TRANSCENDENTAL, VALUE_TRANSCENDENTAL_COFINAL,
                VALUATION_ALGEBRAIC_TYPE_I):
        return seq, f"{kind}: sequence lifts unchanged"
    if cauchy is None:  # unique pair: the center's root in the completion
        if center is None:
            raise Uncertified("unique-pair lifting needs the certified center")
        res = minpoly_over_completion(center, budget)
        if isinstance(res, NoRootFound):
            return seq, (f"inconclusive at budget {res.budget}: no ram-1 root; "
                         "final certificate left in place")
        root, gamma, note = res.root, spec.gamma, "unique pair: root found in the completion"
    else:  # type II: the limit is the new final center
        root, gamma = cauchy.limit, GroupVal.lex(1, 0)
        note = "Cauchy limit appended as final center"
    qhat = PolyX.from_series(root.field, [-root, PuiseuxSeries.one(root.field)])
    kept = [(q, d) for q, d in seq if q.degree() <= 1]
    return CskpSeq(kept + [(qhat, gamma)]), note


# ---------------------------------------------------------------------------
# continuity of roots
# ---------------------------------------------------------------------------

def roots_matching_threshold(f: PolyX, alpha: GroupVal) -> GroupVal:
    """The perturbation bound n^n a - 3 n^n (v00 f - v c_n) + v c_n.

    Perturbing f by anything of Gauss value above this bound keeps a root
    pairing with differences of value above alpha.
    """
    if not alpha.is_fin:
        raise WorkbenchError("the threshold needs a rational alpha")
    if f.degree() < 1:
        raise ZeroPolynomial("threshold needs a polynomial of positive degree")
    return _threshold(f, alpha, _gauss_value(f))


def _threshold(f: PolyX, alpha: GroupVal, v00: GroupVal) -> GroupVal:
    """The bound of :func:`roots_matching_threshold` for f of Gauss value v00."""
    n, vcn = f.degree(), f.leading().val()
    nn = n**n
    return GroupVal.fin(nn * alpha.q - 3 * nn * (v00.q - vcn.q) + vcn.q)


def _gauss_value(f: PolyX) -> GroupVal:
    return eval_spec(ValuationSpec.gauss(f.field), f)


def verify_root_matching(f: PolyX, f2: PolyX, alpha: GroupVal, paired_roots=None) -> bool:
    """Check the threshold's promise on concrete data.

    The Newton polygons of f and f2 at 0 must agree; when pre-factored roots
    are supplied, they must pair off with differences of value above alpha.
    A pair that agrees up to a cap at or below alpha decides nothing, and
    raises PrecisionExhausted.
    """
    if f.newton_polygon() != f2.newton_polygon():
        return False
    for z1, z2 in paired_roots or ():
        try:
            if not z1.val_sub(z2) > alpha:
                return False
        except PrecisionExhausted:  # agreement up to a cap above alpha keeps the promise
            if not GroupVal.fin(min_prec(z1.prec, z2.prec)) > alpha:
                raise
    return True


# ---------------------------------------------------------------------------
# approximation over K
# ---------------------------------------------------------------------------

def _truncate_to_k(h: PolyX, cutoff: Fraction) -> PolyX:
    """h itself when it is over K, else h with every coefficient cut below
    cutoff, as an element of K."""
    if h.domain == RATFUNC:
        return h
    return PolyX.from_ratfuncs(h.field, [truncate_to_ratfunc(c, cutoff) for c in h.coeffs])


def _read(spec: ValuationSpec, h: PolyX, profile=None) -> tuple:
    """(profile, v h): off h's value profile, given or computed, at a gauss or monomial center."""
    if profile is None and spec.kind in ("gauss", "monomial") and not h.is_zero():
        profile = h.recentered_values(spec.center)
    return profile, (eval_spec(spec, h) if profile is None else
                     _min_weighted(profile, spec.gamma))


def _delta(spec: ValuationSpec, h: PolyX, profile) -> GroupVal:
    return delta(spec, h) if profile is None else _profile_delta(profile, spec.gamma)


def approximate_same_delta(f: PolyX, alpha: GroupVal, spec: ValuationSpec) -> PolyX:
    """A polynomial over K with the same degree, value and delta as f.

    Requires delta(f) < alpha in the rationals; the coefficient cutoff comes
    from the continuity-of-roots threshold, and all three equalities are
    re-verified before returning.  Under a gauss or monomial spec, f's and
    the output's value and delta are read off one value profile each.
    """
    if not alpha.is_fin:
        raise WorkbenchError("alpha must be a rational value")
    shaped = spec.kind in ("gauss", "monomial") and f.degree() >= 1  # delta refuses a constant
    profile = f.recentered_values(spec.center) if shaped else None
    d = _delta(spec, f, profile)
    if not d < alpha:
        raise DeltaTooLarge(f"delta(f) = {d.to_text()} is not below alpha = {alpha.to_text()}")
    if f.domain == RATFUNC:
        return f
    _, vf = _read(spec, f, profile)
    v00 = vf if spec.kind == "gauss" else _gauss_value(f)
    terms = [_threshold(f, alpha, v00).q, alpha.q, v00.q, f.leading().val().q]
    if vf.is_fin:
        terms.append(vf.q)
    cutoff = max(terms) + 1
    out = _truncate_to_k(f, cutoff)
    if out.degree() != f.degree():
        raise WorkbenchError("truncation dropped the leading coefficient")
    out_profile, v_out = _read(spec, out)
    if v_out != vf:
        raise WorkbenchError("truncation failed to preserve the value")
    if _delta(spec, out, out_profile) != d:
        raise WorkbenchError("truncation failed to preserve delta")
    return out


# ---------------------------------------------------------------------------
# density of K(X) in the completion's function field
# ---------------------------------------------------------------------------

UNIQUE_PAIR_DENSITY_OBSTRUCTION = (
    "no element of K(X) approximates f/g beyond the rationals: with a unique "
    "pair of definition the completion's function field contains elements at "
    "infinite distance from K(X)")


@dataclass
class DensityResult:
    f_prime: PolyX
    g_prime: PolyX
    beta: Fraction
    cutoff: Fraction
    note: str


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
    if kind == VALUATION_ALGEBRAIC_TYPE_I:
        return _density_via_stabilized_pair(f, g, alpha, spec)
    return _density_monomial(f, g, alpha, spec)


def _density_monomial(f: PolyX, g: PolyX, alpha: GroupVal,
                      spec: ValuationSpec, profiles=(None, None)) -> DensityResult:
    """At a gauss or monomial spec, off one profile each of f and g (passed or computed)."""
    if f.domain == RATFUNC and g.domain == RATFUNC:
        return DensityResult(f, g, Fraction(0), Fraction(0), "already over K")
    center, gamma = spec.center, spec.gamma
    pf, vf = _read(spec, f, profiles[0])
    pg, vg = _read(spec, g, profiles[1])
    n, m = f.degree(), g.degree()
    cmin = _min_weighted(pf, FIN0)
    dmin = _min_weighted(pg, FIN0)
    mincd = min(cmin, dmin)
    # beta > alpha - i*gamma and beta > alpha + 2vg - min(C,D) - k*gamma
    b1 = max(alpha.q - i * gamma.q for i in range(max(m, n) + 1))
    b2 = max(alpha.q + 2 * vg.q - mincd.q - k * gamma.q for k in range(m + n + 1))
    bound = max(b1, b2)
    e = math.lcm(bound.denominator, gamma.q.denominator)
    beta = Fraction(math.floor(bound * e) + 1, e) + 1  # minimal in (1/e)Z, +1 margin
    v00s = (cmin, dmin) if spec.kind == "gauss" else (_gauss_value(f), _gauss_value(g))
    cutoff_terms = [beta, alpha.q, v00s[0].q, v00s[1].q,
                    f.leading().val().q, g.leading().val().q]
    for h, ph, v00 in zip((f, g), (pf, pg), v00s):
        if h.degree() >= 1:
            with contextlib.suppress(PrecisionExhausted):  # an undecidable delta: no guess
                cutoff_terms.append(_threshold(h, _profile_delta(ph, gamma), v00).q)
    if center.coeffs:
        va = center.val().q
        cutoff_terms.extend(beta - j * va for j in range(1, max(m, n) + 1))
    cutoff = max(cutoff_terms) + 1
    f1, g1 = _truncate_to_k(f, cutoff), _truncate_to_k(g, cutoff)
    _verify_density(f, g, f1, g1, alpha, spec, vf, vg, (pf, pg))
    return DensityResult(f1, g1, beta, cutoff, "verified")


def _density_via_stabilized_pair(f: PolyX, g: PolyX, alpha: GroupVal,
                                 spec: ValuationSpec) -> DensityResult:
    """Reduce the limit-spec case to a monomial pair chosen deep enough.

    Picks the first index where the values of f and g have stabilized and
    the sequence weight exceeds a raised target alpha_0 > max(alpha, vf,
    vg); runs the monomial construction there, on the profiles of f and g
    that chose the index, and re-verifies under the original spec.
    """
    vf, vg = eval_spec(spec, f), eval_spec(spec, g)
    alpha0 = GroupVal.fin(max(alpha.q, vf.q, vg.q) + 1)
    for a, gm in zip(spec.gen.elements(), spec.gen.gammas()):
        if gm <= alpha0:
            continue
        chosen = ValuationSpec.monomial(a, gm, over=spec.over)
        pf, vf_i = _read(chosen, f)
        if vf_i == vf:
            pg, vg_i = _read(chosen, g)
            if vg_i == vg:
                break
    else:
        raise HorizonExceeded(
            "no sequence index stabilizes f and g above the raised alpha")
    res = _density_monomial(f, g, alpha0, chosen, (pf, pg))
    _verify_density(f, g, res.f_prime, res.g_prime, alpha, spec, vf, vg)
    return res


def _verify_density(f, g, f1, g1, alpha, spec, vf, vg, profiles=(None, None)):
    """Check every output condition; a truncation that kept f or g reads its passed profile."""
    _, vf1 = _read(spec, f1, profiles[0] if f1 is f else None)
    _, vg1 = _read(spec, g1, profiles[1] if g1 is g else None)
    checks = [
        (f.degree() == f1.degree(), "deg f preserved"),
        (g.degree() == g1.degree(), "deg g preserved"),
        (vf1 == vf, "v f preserved"),
        (vg1 == vg, "v g preserved"),
        (_difference_exceeds(spec, f, f1, alpha), "v(f - f') > alpha"),
        (_difference_exceeds(spec, g, g1, alpha), "v(g - g') > alpha"),
        (_quotient_gap_exceeds(spec, f, g, f1, g1, vg, vg1, alpha),
         "v(f/g - f'/g') > alpha"),
    ]
    for ok, label in checks:
        if not ok:
            raise WorkbenchError(f"density verification failed: {label}")


def _value_exceeds(spec: ValuationSpec, h: PolyX, bound: GroupVal) -> bool:
    """True iff v h > bound, accepting PosInf and horizon-capped evidence (one trend)."""
    if h.is_zero():
        return True
    if spec.kind != "pcslimit":
        return eval_spec(spec, h) > bound
    _, trend = values_along(h, spec.gen)
    if isinstance(trend, UltimatelyConstant):
        return trend.value > bound
    return trend.last >= bound


def _difference_exceeds(spec: ValuationSpec, h: PolyX, h1: PolyX, bound: GroupVal) -> bool:
    """True iff v(h - h1) > bound, PrecisionExhausted where undecided.  A series
    difference (a cut that kept every term leaves no decidable lead) is read
    off its value profile: all decided and cap terms above the bound prove it."""
    if spec.kind == "pcslimit" or h.domain == h1.domain == RATFUNC:
        return _value_exceeds(spec, h - h1, bound)
    d = [x.to_series() - y.to_series()
         for x, y in zip_longest(h.coeffs, h1.coeffs, fillvalue=RatFunc.zero(h.field))]
    e, rows = profile = _packed_values(h.field, d, spec.center)
    gz, gq = spec.gamma.z, spec.gamma.q
    if all(GroupVal(i * gz, (cap if k is None else Fraction(k, e)) + i * gq) > bound
           for i, (k, cap) in enumerate(rows) if (k, cap) != (None, None)):
        return True
    return _min_weighted(profile, spec.gamma) > bound


def _quotient_gap_exceeds(spec, f, g, f1, g1, vg, vg1, alpha) -> bool:
    num = f * g1 - f1 * g
    if num.is_zero():
        return True
    return _value_exceeds(spec, num, alpha + vg + vg1)


# ---------------------------------------------------------------------------
# uniqueness and conjugacy checks
# ---------------------------------------------------------------------------

def uniqueness_check(a, b, gamma: GroupVal, samples) -> tuple:
    """Equal evaluation under equivalent pairs (a, gamma) and (b, gamma) over K̂.

    ``samples`` is an iterable of polynomials.  Returns (Evidence, discrepancies):
    any discrepancy would falsify the implementation, not the theorem, and is
    reported verbatim.
    """
    if not is_pair_equivalent(a, b, gamma):
        raise WorkbenchError("centers are not equivalent at this gamma")
    sa = ValuationSpec.monomial(a, gamma, over=OVER_KHAT)
    sb = ValuationSpec.monomial(b, gamma, over=OVER_KHAT)
    discrepancies = []

    def differs(f: PolyX) -> bool:
        va, vb = eval_spec(sa, f), eval_spec(sb, f)
        if va != vb:
            discrepancies.append((f.to_text(), va.to_text(), vb.to_text()))
        return False  # every sample is evaluated

    return search(samples, differs), discrepancies


def conjugacy_check(a: AlgElement, gamma: GroupVal, m: int) -> dict:
    """Twist the center and compare certificates and classifications.

    The twisted center must satisfy the same minimal polynomial, and the
    monomial specs at the two centers must classify identically.
    """
    a1 = galois_twist(a, m)
    shared = True
    if a.minpoly is not None:
        images = a.minpoly.horner_images(a1.expansion.prec)  # a lost leading coefficient raises
        with contextlib.suppress(PrecisionExhausted):  # 0 at the twist's precision: shared
            shared = a.minpoly.value_at(a1.expansion, images).is_inf
    k0 = classify_extension(ValuationSpec.monomial(a.expansion, gamma))
    k1 = classify_extension(ValuationSpec.monomial(a1.expansion, gamma))
    return {"twisted_center": a1.expansion.to_text(),
            "shared_minpoly": bool(shared),
            "kind": k0, "twisted_kind": k1,
            "kinds_match": k0 == k1}
