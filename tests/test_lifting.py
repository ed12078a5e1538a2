import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import lifting_reference as reference
from valwb.algnum import attach_minpoly
from valwb import lifting, polyx, selftest, valuation
from valwb.errors import (DeltaTooLarge, HorizonExceeded, PrecisionExhausted, UnsupportedKind,
                          WorkbenchError)
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb.lifting import (
    DENSITY_KINDS,
    RESIDUE_TRANSCENDENTAL,
    VALUATION_ALGEBRAIC_TYPE_I,
    VALUATION_ALGEBRAIC_TYPE_II,
    VALUE_TRANSCENDENTAL_UNIQUE_PAIR,
    CskpSeq,
    Witness,
    _difference_exceeds,
    _value_exceeds,
    approximate_density,
    approximate_same_delta,
    classify_extension,
    conjugacy_check,
    cskp_check,
    induce,
    lift_cskp,
    roots_matching_threshold,
    uniqueness_check,
    verify_root_matching,
)
from valwb.pcs import (
    PcsGenerator,
    StrictlyIncreasingAtHorizon,
    artin_schreier_generator,
    classify_generator,
    exponential_generator,
    mixed_radix_generator,
    values_along,
)
from valwb.polyx import PolyX, polyx_from_text
from valwb.report import Evidence, Report
from valwb.sampling import random_polyx, random_scalar, random_series
from valwb.selftest import check_density
from valwb.series import PuiseuxSeries, RatFunc
from valwb.valuation import ValuationSpec, delta, eval_spec

F2 = GF(2)
GAMMA_TOP = GroupVal.lex(1, 0)


def x_minus(field, c):
    return PolyX.from_series(field, [-c, PuiseuxSeries.one(field)])


def tower_data():
    a = PuiseuxSeries.from_terms(F2, {Fraction(2**n): 1 for n in range(7)},
                                 Fraction(100))
    Q = polyx_from_text(F2, "X^2 + X + t")
    a_alg = attach_minpoly(a, Q, irreducible=True)
    spec = ValuationSpec.monomial(a, GAMMA_TOP)
    entries = []
    for m in range(3):
        am = PuiseuxSeries.from_terms(F2, {Fraction(2**n): 1 for n in range(m + 1)})
        entries.append((x_minus(F2, am), GroupVal.fin(2**(m + 1))))
    entries.append((Q, GAMMA_TOP))
    return a_alg, spec, CskpSeq(entries)


def test_classify_extension():
    assert classify_extension(ValuationSpec.gauss(QQ)) == RESIDUE_TRANSCENDENTAL
    zero = PuiseuxSeries.zero(QQ)
    assert classify_extension(
        ValuationSpec.monomial(zero, GroupVal.fin(Fraction(1, 3)))) == \
        RESIDUE_TRANSCENDENTAL
    half = PuiseuxSeries.t_power(QQ, Fraction(1, 2))
    assert classify_extension(ValuationSpec.monomial(half, GAMMA_TOP)) == \
        VALUE_TRANSCENDENTAL_UNIQUE_PAIR
    # a rational weight is residue-transcendental: no declaration makes it cofinal
    assert classify_extension(ValuationSpec.monomial(zero, GroupVal.fin(1))) == \
        RESIDUE_TRANSCENDENTAL
    assert "declared_cofinal" not in ValuationSpec.__slots__
    with pytest.raises(TypeError):
        ValuationSpec("monomial", QQ, center=zero, gamma=GroupVal.fin(1), declared_cofinal=True)
    assert classify_extension(
        ValuationSpec.pcslimit(exponential_generator(12))) == \
        VALUATION_ALGEBRAIC_TYPE_II
    assert classify_extension(
        ValuationSpec.pcslimit(mixed_radix_generator(2, 3, 8))) == \
        VALUATION_ALGEBRAIC_TYPE_I
    assert VALUATION_ALGEBRAIC_TYPE_II not in DENSITY_KINDS
    assert RESIDUE_TRANSCENDENTAL in DENSITY_KINDS


def test_induce():
    s62 = ValuationSpec.pcslimit(exponential_generator(12))
    ind, note = induce(s62)
    assert ind.kind == "monomial" and ind.gamma == GAMMA_TOP and ind.over == "Khat"
    assert note
    s63 = ValuationSpec.pcslimit(mixed_radix_generator(2, 3, 8))
    ind3, _ = induce(s63)
    assert ind3.kind == "pcslimit" and ind3.over == "Khat"
    indg, _ = induce(ValuationSpec.gauss(QQ))
    assert indg.over == "Khat" and indg.kind == "gauss"


def test_cskp_seq_container():
    _, _, seq = tower_data()
    assert len(seq) == 4
    assert seq[0][1] == GroupVal.fin(2)
    assert list(seq)[-1][1] == GAMMA_TOP
    assert seq == CskpSeq(list(seq))
    assert "X" in seq.to_text()


def test_cskp_seq_refuses_an_entry_that_is_no_key_polynomial():
    # the keypoly spec's own refusal: a zero, constant or non-monic entry has no digits
    for text in ("0", "1", "t", "2*X", "X^2 + [1 / t]*X^3"):
        with pytest.raises(WorkbenchError, match="^key polynomial must be monic of degree >= 1$"):
            CskpSeq([(polyx_from_text(QQ, "X"), GroupVal.fin(0)),
                     (polyx_from_text(QQ, text), GroupVal.fin(1))])
    assert len(CskpSeq([(polyx_from_text(QQ, "X + [1 / t]"), GroupVal.fin(1))])) == 1


def test_cskp_check_witness():
    _, spec, seq = tower_data()
    fX = polyx_from_text(F2, "X")
    w = cskp_check(seq, fX, spec)
    assert isinstance(w, Witness)
    assert w.value == eval_spec(spec, fX)
    # degree-2 polynomial prime to the sequence also gets a witness
    f2 = polyx_from_text(F2, "X^2 + t")
    assert isinstance(cskp_check(seq, f2, spec), Witness)


def test_lift_cskp_unique_pair():
    a_alg, spec, seq = tower_data()
    lifted, note = lift_cskp(seq, spec, center=a_alg, budget=Fraction(64))
    qhat, dhat = lifted[-1]
    assert qhat.degree() == 1 and dhat == GAMMA_TOP
    assert len(lifted) == len(seq)
    root = -qhat.coeff(0)
    assert root.support()[:4] == [Fraction(1), Fraction(2), Fraction(4), Fraction(8)]


def test_lift_cskp_leaves_the_sequence_when_no_root_of_ramification_one_is_found():
    # X^2 - t has no root in k((t)): the final certificate stays, and the note says so
    sqrt_t = PuiseuxSeries.t_power(QQ, Fraction(1, 2))
    Q = polyx_from_text(QQ, "X^2 - t")
    seq = CskpSeq([(polyx_from_text(QQ, "X"), GroupVal.fin(Fraction(1, 2))), (Q, GAMMA_TOP)])
    spec = ValuationSpec.monomial(sqrt_t, GAMMA_TOP)
    lifted, note = lift_cskp(seq, spec, center=attach_minpoly(sqrt_t, Q, irreducible=True),
                             budget=Fraction(8))
    assert lifted is seq
    assert note == "inconclusive at budget 8: no ram-1 root; final certificate left in place"


def test_lift_cskp_type_ii_appends_limit():
    gen = exponential_generator(12)
    spec = ValuationSpec.pcslimit(gen)
    entries = [(x_minus(QQ, gen.element(m)), GroupVal.fin(m + 1))
               for m in range(4)]
    seq = CskpSeq(entries)
    lifted, _ = lift_cskp(seq, spec)
    assert len(lifted) == len(seq) + 1
    qhat, dhat = lifted[-1]
    assert dhat == GAMMA_TOP
    limit = classify_generator(gen).limit
    assert not (-qhat.coeff(0) - limit).coeffs


def test_lift_cskp_identity_kinds():
    gen = mixed_radix_generator(2, 3, 8)
    spec = ValuationSpec.pcslimit(gen)
    entries = [(x_minus(QQ, gen.element(m)),
                GroupVal.fin(Fraction(3**(m + 1), 2**(m + 1))))
               for m in range(3)]
    seq = CskpSeq(entries)
    lifted, _ = lift_cskp(seq, spec)
    assert lifted == seq
    # residue-transcendental: also the identity
    g = ValuationSpec.gauss(QQ)
    seq_g = CskpSeq([(polyx_from_text(QQ, "X"), GroupVal.fin(0))])
    assert lift_cskp(seq_g, g)[0] == seq_g


def test_roots_matching_threshold():
    # linear monic: tau = alpha (n = 1, v00 = vcn = 0)
    f1 = polyx_from_text(QQ, "X + t^2")
    assert roots_matching_threshold(f1, GroupVal.fin(5)) == GroupVal.fin(5)
    # quadratic monic: tau = 4 alpha
    f2 = polyx_from_text(QQ, "X^2 + t")
    assert roots_matching_threshold(f2, GroupVal.fin(3)) == GroupVal.fin(12)


def test_verify_root_matching():
    f2 = polyx_from_text(QQ, "X^2 + t")
    f2p = polyx_from_text(QQ, "X^2 + t + t^20")
    assert verify_root_matching(f2, f2p, GroupVal.fin(3))
    # a large perturbation changes the root valuations outright
    f2bad = polyx_from_text(QQ, "X^2 + t^2")
    assert not verify_root_matching(f2, f2bad, GroupVal.fin(3))


@pytest.mark.parametrize("z1, z2, want", [
    ("t", "t + t^7", True),
    ("t", "t + t^3", False),
    ("t + t^2", "t + t^2", True),
    ("t + O(t^8)", "t + O(t^9)", True),
    ("t + O(t^3)", "t + O(t^3)", PrecisionExhausted),
    ("t + O(t^5)", "t + t^6", PrecisionExhausted),
], ids=["decided-above", "decided-below", "exact-coincidence", "capped-above",
        "capped-below", "capped-at"])
def test_verify_root_matching_reads_paired_roots_to_their_caps(z1, z2, want):
    # at alpha = 5, a pair agreeing up to a cap at or below alpha decides nothing
    f = polyx_from_text(QQ, "X^2 + t")
    pairs = [(PuiseuxSeries.from_text(QQ, z1), PuiseuxSeries.from_text(QQ, z2))]
    if want is PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            verify_root_matching(f, f, GroupVal.fin(5), paired_roots=pairs)
    else:
        assert verify_root_matching(f, f, GroupVal.fin(5), paired_roots=pairs) is want


def test_approximate_same_delta():
    spec = ValuationSpec.monomial(PuiseuxSeries.zero(QQ), GroupVal.fin(10))
    c0 = PuiseuxSeries.from_terms(
        QQ, {Fraction(1): 1, Fraction(30): Fraction(1, 3)}, Fraction(64))
    f = PolyX.from_series(QQ, [c0, PuiseuxSeries.zero(QQ), PuiseuxSeries.one(QQ)])
    d = delta(spec, f)
    out = approximate_same_delta(f, GroupVal.fin(1), spec)
    assert out.domain == "ratfunc" and out.degree() == 2
    assert delta(spec, out) == d
    assert eval_spec(spec, out) == eval_spec(spec, f)
    # ratfunc input passes through unchanged
    g = polyx_from_text(QQ, "X^2 + t")
    assert approximate_same_delta(g, GroupVal.fin(1), spec) is g
    # alpha below delta: refuse
    with pytest.raises(DeltaTooLarge):
        approximate_same_delta(f, GroupVal.fin(Fraction(1, 4)), spec)


def density_inputs():
    cf = PuiseuxSeries.from_terms(
        QQ, {Fraction(0): 2, Fraction(7): Fraction(1, 2), Fraction(40): 3},
        Fraction(64))
    f = PolyX.from_series(QQ, [cf, PuiseuxSeries.one(QQ)])
    g = PolyX.from_series(
        QQ, [PuiseuxSeries.from_terms(QQ, {Fraction(1): 1, Fraction(33): 5},
                                      Fraction(64)),
             PuiseuxSeries.zero(QQ), PuiseuxSeries.one(QQ)])
    return f, g


def test_approximate_density_gauss():
    f, g = density_inputs()
    spec = ValuationSpec.gauss(QQ)
    res = approximate_density(f, g, GroupVal.fin(6), spec)
    assert res.f_prime.domain == "ratfunc" and res.g_prime.domain == "ratfunc"
    # the replacement quotient agrees with the original past alpha:
    # v(f g' - f' g) - v(g g') > alpha
    num = f * res.g_prime - res.f_prime * g
    gap = eval_spec(spec, num) - (eval_spec(spec, g) + eval_spec(spec, res.g_prime))
    assert gap > GroupVal.fin(6)


def test_approximate_density_monomial_center():
    f, g = density_inputs()
    ctr = PuiseuxSeries.from_terms(QQ, {Fraction(1): 1})
    spec = ValuationSpec.monomial(ctr, GroupVal.fin(3))
    res = approximate_density(f, g, GroupVal.fin(5), spec)
    assert res.beta is not None and res.cutoff is not None


def test_approximate_density_type_i():
    f, g = density_inputs()
    spec = ValuationSpec.pcslimit(mixed_radix_generator(2, 3, 8))
    res = approximate_density(f, g, GroupVal.fin(2), spec)
    assert res.f_prime.domain == "ratfunc"


def test_density_obstruction():
    f, g = density_inputs()
    half = PuiseuxSeries.t_power(QQ, Fraction(1, 2))
    with pytest.raises(UnsupportedKind):
        approximate_density(f, g, GroupVal.fin(3),
                            ValuationSpec.monomial(half, GAMMA_TOP))
    with pytest.raises(UnsupportedKind):
        approximate_density(f, g, GroupVal.fin(3),
                            ValuationSpec.pcslimit(exponential_generator(12)))


def test_uniqueness_check():
    a = PuiseuxSeries.from_terms(F2, {Fraction(2**n): 1 for n in range(7)},
                                 Fraction(100))
    b = a + PuiseuxSeries.from_terms(F2, {Fraction(90): 1})
    samples = [polyx_from_text(F2, "X"), polyx_from_text(F2, "X + t")]
    evidence, discrepancies = uniqueness_check(a, b, GroupVal.fin(80), samples)
    assert discrepancies == [] and evidence == Evidence(tested=2, undecidable=0, notes=())
    # a sample known only to t^50 has an undecidable value at gamma = 80: counted apart
    vague = PolyX.from_series(F2, [PuiseuxSeries.from_text(
        F2, "t + t^2 + t^4 + t^8 + t^16 + t^32 + O(t^50)"), PuiseuxSeries.one(F2)])
    evidence, discrepancies = uniqueness_check(a, b, GroupVal.fin(80), [vague, *samples])
    assert discrepancies == [] and evidence == Evidence(
        tested=2, undecidable=1,
        notes=("an undecidable coefficient (bound 50) may cut below the decided minimum 80",))
    # a center differing below gamma is refused outright
    from valwb.errors import WorkbenchError
    b2 = a + PuiseuxSeries.from_terms(F2, {Fraction(3): 1})
    with pytest.raises(WorkbenchError):
        uniqueness_check(a, b2, GroupVal.fin(80), samples)


def test_conjugacy_check():
    root = attach_minpoly(PuiseuxSeries.t_power(QQ, Fraction(1, 2)),
                          polyx_from_text(QQ, "X^2 - t"), irreducible=True)
    rep = conjugacy_check(root, GroupVal.fin(1), 1)
    assert rep["shared_minpoly"] and rep["kinds_match"]
    assert rep["kind"] == rep["twisted_kind"]


# -- density verification of a truncation that kept every term ------------------
#
# Both samples drew f and g whose every term lies below the cutoff, so each
# coefficient of f - f' or g - g' is O(t^64): the difference has no decidable
# lead, yet v(h - h') >= 64 > alpha is proven coefficient by coefficient.

FULL_CUT_SAMPLES = [  # run_selftest(648), sample 92; run_selftest(661), sample 32
    ("X + [4/3*t^3 + t^6 + O(t^64)]",
     "X + [-5/4*t^19 - 2/3*t^30 - 1/2*t^33 + 5/2*t^43 + 5*t^53 + t^56 + O(t^64)]"),
    ("X + [-1 + 3/4*t^10 + 3/2*t^35 + 2*t^43 + 1/3*t^57 + 3*t^62 + O(t^64)]",
     "X^2 + [-1/2*t^3 + 3/4*t^6 + O(t^64)]*X + [-5/3*t^21 - 5*t^24 - 1/2*t^25"
     " - 2*t^37 - 1/3*t^53 - 3/2*t^55 + O(t^64)]"),
]


def test_density_verifies_a_truncation_that_kept_every_term():
    spec = ValuationSpec.monomial(PuiseuxSeries.t_power(QQ, Fraction(1, 2)),
                                  GroupVal.fin(Fraction(3, 4)))
    for ftext, gtext in FULL_CUT_SAMPLES:
        f, g = (polyx_from_text(QQ, text, "series") for text in (ftext, gtext))
        res = approximate_density(f, g, GroupVal.fin(3), spec)
        assert res.note == "verified"
        with pytest.raises(PrecisionExhausted):  # the difference as a polynomial
            (f - res.f_prime, g - res.g_prime)
    rep = Report("density")
    check_density(rep, 661)
    assert [(v.outcome.startswith("ok"), v.caveats) for v in rep.verdicts] == [(True, ())] * 4


def test_difference_is_judged_by_its_value_profile():
    gauss = ValuationSpec.gauss(QQ)
    x = polyx_from_text(QQ, "X")
    cut = polyx_from_text(QQ, "X + [O(t^2)]", "series")  # x - cut: O(t^2), no lead
    assert _difference_exceeds(gauss, cut, x, GroupVal.fin(1))  # cap 2 > 1
    with pytest.raises(PrecisionExhausted):  # cap 2 below 3, nothing decided
        _difference_exceeds(gauss, cut, x, GroupVal.fin(3))
    near = polyx_from_text(QQ, "X + [t + O(t^5)]", "series")
    assert _difference_exceeds(gauss, near, x, GroupVal.fin(0))
    assert not _difference_exceeds(gauss, near, x, GroupVal.fin(3))  # v = 1, decided
    assert _difference_exceeds(gauss, x, x, GroupVal.fin(100))
    limit = ValuationSpec.pcslimit(mixed_radix_generator(2, 3, 8))
    with pytest.raises(PrecisionExhausted):  # a limit spec values the polynomial
        _difference_exceeds(limit, cut, x, GroupVal.fin(1))


def test_check_density_counts_undecidable_samples_apart(monkeypatch):
    def fake(f, g, alpha, spec, **kw):
        if classify_extension(spec) not in DENSITY_KINDS:
            return approximate_density(f, g, alpha, spec)  # the refusals
        if spec.kind == "monomial":
            raise WorkbenchError("density verification failed: v(f - f') > alpha")
        raise PrecisionExhausted("undecided")
    monkeypatch.setattr(selftest, "approximate_density", fake)
    rep = Report("density")
    selftest.check_density(rep, 0)
    assert [(v.outcome, v.caveats) for v in rep.verdicts] == [
        ("ok: gauss: 100 samples, 0 failures", ("100 undecidable samples",)),
        ("FAIL: monomial t^(1/2) @ 3/4: 100 samples, 100 failures", ()),
        ("ok: mixed-radix limit: 25 samples, 0 failures", ("25 undecidable samples",)),
        ("ok: 2/2 unsupported kinds refused", ())]


def test_check_same_delta_counts_undecidable_samples_apart(monkeypatch):
    calls = []

    def undecided_on_odd_calls(f, alpha, spec):
        calls.append(f)
        if len(calls) % 2:
            raise PrecisionExhausted("undecided")
        return approximate_same_delta(f, alpha, spec)

    monkeypatch.setattr(selftest, "approximate_same_delta", undecided_on_odd_calls)
    rep = Report("same-delta")
    selftest.check_same_delta(rep, 0)
    assert [(v.outcome, v.caveats) for v in rep.verdicts] == [
        ("ok: 100 samples, 0 failures", ("50 undecidable samples",))]

    def refused(f, alpha, spec):
        raise WorkbenchError("no truncation keeps delta")

    monkeypatch.setattr(selftest, "approximate_same_delta", refused)
    rep = Report("same-delta")
    selftest.check_same_delta(rep, 0)
    assert [(v.outcome, v.caveats) for v in rep.verdicts] == [
        ("FAIL: 100 samples, 100 failures", ())]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))


def old_value_exceeds(spec, h, bound):
    """_value_exceeds as it was: eval_spec, and on HorizonExceeded the trend again."""
    if h.is_zero():
        return True
    try:
        return eval_spec(spec, h) > bound
    except HorizonExceeded:
        if spec.kind == "pcslimit":
            _, trend = lifting.values_along(h, spec.gen)
            if isinstance(trend, StrictlyIncreasingAtHorizon):
                return trend.last >= bound
        raise


def test_value_exceeds_reads_one_trend_per_call(monkeypatch):
    calls = []

    def counting(f, gen):
        calls.append(f)
        return values_along(f, gen)

    monkeypatch.setattr(lifting, "values_along", counting)
    monkeypatch.setattr(valuation, "values_along", counting)
    exp = exponential_generator(12)
    a20 = PuiseuxSeries.from_terms(QQ, {Fraction(n): Fraction(1, math.factorial(n))
                                        for n in range(21)})
    specs = [ValuationSpec.pcslimit(exp), ValuationSpec.pcslimit(mixed_radix_generator(2, 3, 8)),
             ValuationSpec.pcslimit(artin_schreier_generator(2, 6))]
    polys = [x_minus(QQ, a20),  # v f(a_m) = m + 1: increasing to 13 at the horizon
             x_minus(QQ, a20) * x_minus(QQ, exp.elements()[3]),  # 5, 6, ... increasing
             polyx_from_text(QQ, "X^2 + [1 + t]"),  # constant 0
             x_minus(QQ, PuiseuxSeries.from_terms(QQ, {0: 1, 1: 1, 2: 1})),  # constant 2
             x_minus(QQ, a20.truncate(9)),  # the cap stops it after 9 increasing values
             x_minus(QQ, a20.truncate(2)),  # ... after 2 values: PrecisionExhausted
             x_minus(QQ, a20 + PuiseuxSeries.t_power(QQ, 12)),  # 11, 12, 12: HorizonExceeded
             PolyX.zero(QQ)]
    seen = {"increasing": 0, "raised": 0}
    for spec in specs:
        field = spec.field
        for f in polys if field == QQ else [x_minus(field, spec.gen.elements()[-1]),
                                            polyx_from_text(field, "X + [t]")]:
            for bound in (GroupVal.fin(0), GroupVal.fin(2), GroupVal.fin(12), GroupVal.fin(13),
                          GroupVal.fin(14), GroupVal.lex(1, 0)):
                del calls[:]
                want = outcome(old_value_exceeds, spec, f, bound)
                increasing = len(calls) == 2
                del calls[:]
                assert outcome(_value_exceeds, spec, f, bound) == want, (spec, f, bound)
                assert len(calls) == (0 if f.is_zero() else 1)
                seen["increasing"] += increasing
                seen["raised"] += isinstance(want, tuple)
    assert seen["increasing"] >= 20 and seen["raised"] >= 6, seen


# -- one value profile per polynomial and center -------------------------------------
#
# approximate_same_delta and approximate_density read each polynomial's value profile
# at a center once per call: its value, its weight-0 minimum and its delta come off it.
# The reference is the code that computed it again for each (tests/lifting_reference.py).

def answer(fn, *args):
    """The output's text, a DensityResult's fields, or the exception's class and text."""
    try:
        res = fn(*args)
    except Exception as exc:  # the exception itself is part of the answer
        return ("raised", type(exc), str(exc))
    if isinstance(res, PolyX):
        return (res.domain, res.to_text())
    return (res.f_prime.domain, res.f_prime.to_text(), res.g_prime.domain,
            res.g_prime.to_text(), res.beta, res.cutoff, res.note)


def near_roots(field, rng, c, degree, prec):
    """A monic series polynomial prod (X - c - s t^e (1 + t^2 r)) of roots near c, each
    term capped at prec: delta and the value under a monomial spec at c in closed form."""
    f = PolyX.x_power(field, 0, domain="series")
    for _ in range(degree):
        e = Fraction(rng.randint(0, 8), rng.choice((1, 2)))
        shift = PuiseuxSeries.from_terms(field, {e: random_scalar(field, rng, nonzero=True),
                                                 e + 2: random_scalar(field, rng)}, prec)
        f = f * x_minus(field, c + shift)
    return f


def profile_case(rng, field):
    """(f, g, spec) over field: f over the series or over K, the spec a gauss spec or a
    monomial one at an exact, capped or ramified center, of value -1 or more, caps from 3
    (undecidable values) to none."""
    prec = rng.choice((None, Fraction(3), Fraction(6), Fraction(16), Fraction(40)))
    ram = rng.choice((1, 1, 2, 3))
    c = random_series(field, rng, rng.choice((4, 12, 30)), ram=ram, depth=rng.randint(1, 3),
                      min_exp=rng.choice((0, 0, -1)))
    if rng.random() < 0.3:
        c = PuiseuxSeries(field, c.ram, c.coeffs, None)
    spec = (ValuationSpec.gauss(field) if rng.random() < 0.3 else ValuationSpec.monomial(
        c, GroupVal.fin(Fraction(rng.randint(1, 8), rng.choice((1, 2, 3))))))
    center = spec.center if rng.random() < 0.7 else PuiseuxSeries.zero(field)
    shape = rng.random()
    if shape < 0.5:
        f = near_roots(field, rng, center, rng.randint(1, 3), prec)
    elif shape < 0.8:
        f = random_polyx(field, rng, rng.randint(0, 3), "series", prec=prec or 24)
    else:
        f = random_polyx(field, rng, rng.randint(1, 3))
    g = (random_polyx(field, rng, rng.randint(0, 2)) if rng.random() < 0.25 else
         near_roots(field, rng, center, rng.randint(0, 2), prec))
    return f, g, spec


def mixed_radix_over(field, horizon):
    """a_m = sum of t^(3^n / 2^n) for n <= m over field: transcendental type over F_p too."""
    def items(m):
        return PuiseuxSeries(field, 2**m, {3**n * 2**(m - n): field.one() for n in range(m + 1)},
                             None)

    return PcsGenerator(f"mixed-radix(2,3) over F_{field.char}", field, items, horizon)


def test_profiles_read_once_answer_as_the_parent_did():
    rng = random.Random(2222)
    fields = (QQ, GF(3), GF(5))
    seen = Counter()
    for i in range(600):
        field = fields[i % 3]
        f, g, spec = profile_case(rng, field)
        alpha = GroupVal.fin(Fraction(rng.randint(0, 12), rng.choice((1, 2))))
        got = answer(approximate_same_delta, f, alpha, spec)
        assert got == answer(reference.approximate_same_delta, f, alpha, spec), (i, f, spec)
        seen["same-delta " + (got[1].__name__ if got[0] == "raised" else
                              "kept" if f.domain == "ratfunc" else "cut")] += 1
        if rng.random() < 0.25:
            gen = (artin_schreier_generator(field.char, 5) if field.char and rng.random() < 0.2
                   else mixed_radix_over(field, rng.choice((7, 8))))
            spec = ValuationSpec.pcslimit(gen)
            f, g = (random_polyx(field, rng, rng.randint(0, 2), "series", prec=48)
                    if rng.random() < 0.7 else h for h in (f, g))
        got = answer(approximate_density, f, g, alpha, spec)
        assert got == answer(reference.approximate_density, f, g, alpha, spec), (i, f, g, spec)
        seen[f"density {spec.kind} " + (got[1].__name__ if got[0] == "raised" else "ok")] += 1
    assert all(seen[k] >= 10 for k in (
        "same-delta kept", "same-delta cut", "same-delta DeltaTooLarge",
        "same-delta PrecisionExhausted", "same-delta ZeroPolynomial", "density gauss ok",
        "density monomial ok", "density pcslimit ok", "density monomial PrecisionExhausted",
        "density gauss PrecisionExhausted", "density pcslimit PrecisionExhausted",
        "density pcslimit UnsupportedKind")), seen


def test_each_profile_is_computed_once_per_call(monkeypatch):
    packed, calls, kept = polyx._packed_values, [], []

    def counting(field, coeffs, a, *args):
        kept.append((coeffs, a))  # alive to the end, so that no id is reused
        calls.append((tuple(map(id, coeffs)), id(a)))
        return packed(field, coeffs, a, *args)

    monkeypatch.setattr(polyx, "_packed_values", counting)
    monkeypatch.setattr(lifting, "_packed_values", counting)
    f, g = density_inputs()
    ctr = PuiseuxSeries.from_terms(QQ, {Fraction(1): 1, Fraction(5, 2): 3}, Fraction(30))
    monomial = ValuationSpec.monomial(ctr, GroupVal.fin(3))
    same = ValuationSpec.monomial(PuiseuxSeries.zero(QQ), GroupVal.fin(10))
    c0 = PuiseuxSeries.from_terms(QQ, {Fraction(1): 1, Fraction(30): Fraction(1, 3)},
                                  Fraction(64))
    series_f = PolyX.from_series(QQ, [c0, PuiseuxSeries.zero(QQ), PuiseuxSeries.one(QQ)])
    over_k = polyx_from_text(QQ, "X^2 + [1 + t]*X + [t^3]")
    cases = [
        (approximate_same_delta, series_f, GroupVal.fin(1), same),
        (approximate_density, f, g, GroupVal.fin(6), ValuationSpec.gauss(QQ)),
        (approximate_density, f, g, GroupVal.fin(5), monomial),
        (approximate_density, over_k, g, GroupVal.fin(5), monomial),  # f' is f
        (approximate_density, f, g, GroupVal.fin(2),
         ValuationSpec.pcslimit(mixed_radix_generator(2, 3, 8))),
    ]
    counts = []
    for fn, *args in cases:
        for _ in range(2):
            del calls[:]
            fn(*args)
            assert len(calls) == len(set(calls)), (fn.__name__, args[-1], calls)
            counts.append(len(calls))
    assert counts[0] == 3  # f at the center and at 0 for its Gauss value, the output
    assert counts[::2] == counts[1::2]  # nothing kept: the second call computes them again
    assert min(counts) >= 3, counts
