import math
import random
from fractions import Fraction

import pytest

from valwb.algnum import AlgElement, attach_minpoly
from valwb.errors import PrecisionExhausted, WorkbenchError, ZeroPolynomial
from valwb.field import GF, QQ
from valwb.groupval import FIN0, GroupVal
from valwb.pcs import builtin_generator, exponential_generator
from valwb.polyx import PolyX, polyx_from_text
from valwb.report import Evidence
from valwb.series import PuiseuxSeries, RatFunc
from valwb.valuation import (
    Counterexample,
    Smaller,
    ValuationSpec,
    _min_weighted,
    _pool_degree,
    delta,
    eval_rational,
    eval_spec,
    is_key_polynomial,
    is_pair_equivalent,
    minimal_pair_search,
)

F2 = GF(2)


def tower_series(n, prec=None):
    return PuiseuxSeries.from_terms(
        F2, {Fraction(2**k): 1 for k in range(n + 1)},
        Fraction(2**(n + 1)) if prec is None else Fraction(prec))


def tower_spec():
    a = tower_series(6)
    return ValuationSpec.monomial(a, GroupVal.lex(1, 0))


def x_minus(field, c):
    return PolyX.from_series(field, [-c, PuiseuxSeries.one(field)])


def test_eval_gauss():
    # v(tX^2 + X + t^3) = min(1, 0, 3) = 0
    f = polyx_from_text(QQ, "t*X^2 + X + t^3")
    assert eval_spec(ValuationSpec.gauss(QQ), f) == FIN0
    assert eval_spec(ValuationSpec.gauss(QQ), polyx_from_text(QQ, "t*X + t^2")) == \
        GroupVal.fin(1)


def test_eval_monomial():
    # weight 1/3 at center 0: v(X^2 - t) = min(2/3, 1) = 2/3
    spec = ValuationSpec.monomial(PuiseuxSeries.zero(QQ), GroupVal.fin(Fraction(1, 3)))
    f = polyx_from_text(QQ, "X^2 - t")
    assert eval_spec(spec, f) == GroupVal.fin(Fraction(2, 3))
    # weight 1/2: both terms tie at 1
    spec2 = ValuationSpec.monomial(PuiseuxSeries.zero(QQ), GroupVal.fin(Fraction(1, 2)))
    assert eval_spec(spec2, f) == GroupVal.fin(1)


def test_eval_tower_monomial():
    # v(X - a_2) = v(a - a_2) = 8 under the weight-(1,0) spec at the tower
    spec = tower_spec()
    a2 = PuiseuxSeries.from_terms(F2, {Fraction(1): 1, Fraction(2): 1, Fraction(4): 1})
    assert eval_spec(spec, x_minus(F2, a2)) == GroupVal.fin(8)
    # v(X - a) at the exact center is the full weight
    exact = PuiseuxSeries.from_terms(F2, {Fraction(2**k): 1 for k in range(7)})
    spec_exact = ValuationSpec.monomial(exact, GroupVal.lex(1, 0))
    assert eval_spec(spec_exact, x_minus(F2, exact)) == GroupVal.lex(1, 0)
    # at a finite-precision center the same question is honestly undecidable
    with pytest.raises(PrecisionExhausted):
        eval_spec(spec, x_minus(F2, spec.center))


def test_eval_keypoly():
    # v_Q with Q = X^2 - t, vQ = 1 over the monomial base at t^(1/2):
    # v(X^3) = 3 * v(X) = 3/2 comes out of the digit expansion (tX, X)
    base = ValuationSpec.monomial(PuiseuxSeries.t_power(QQ, Fraction(1, 2)),
                                  GroupVal.fin(Fraction(1, 2)))
    spec = ValuationSpec.keypoly(polyx_from_text(QQ, "X^2 - t"),
                                 GroupVal.fin(1), base)
    assert eval_spec(spec, PolyX.x_power(QQ, 3)) == GroupVal.fin(Fraction(3, 2))
    assert eval_spec(spec, polyx_from_text(QQ, "X^2 - t")) == GroupVal.fin(1)
    assert eval_spec(spec, PolyX.x_power(QQ, 1)) == GroupVal.fin(Fraction(1, 2))
    # multiplicativity on the defining polynomial's factor shape
    f = polyx_from_text(QQ, "X^2 - t") * PolyX.x_power(QQ, 1)
    assert eval_spec(spec, f) == GroupVal.fin(1) + GroupVal.fin(Fraction(1, 2))


def test_eval_pcslimit():
    gen = exponential_generator(12)
    spec = ValuationSpec.pcslimit(gen)
    # v(X - a_1) stabilizes at v(a - a_1) = 2
    f = x_minus(QQ, gen.element(1))
    assert eval_spec(spec, f) == GroupVal.fin(2)


def test_eval_errors():
    with pytest.raises(ZeroPolynomial):
        eval_spec(ValuationSpec.gauss(QQ), PolyX.zero(QQ))


def test_eval_rational():
    spec = ValuationSpec.gauss(QQ)
    f = polyx_from_text(QQ, "t^3*X")
    g = polyx_from_text(QQ, "t*X^2 + 1")
    assert eval_rational(spec, f, g) == GroupVal.fin(3)


def test_delta_monomial():
    # delta(X^2 - t) at gauss = min(0, 1/2) over each root = 0
    g = ValuationSpec.gauss(QQ)
    assert delta(g, polyx_from_text(QQ, "X^2 - t")) == FIN0
    # weight 1 at center 0: slopes are 1/2, so delta = 1/2
    spec = ValuationSpec.monomial(PuiseuxSeries.zero(QQ), GroupVal.fin(1))
    assert delta(spec, polyx_from_text(QQ, "X^2 - t")) == GroupVal.fin(Fraction(1, 2))
    # a root at the center contributes the full weight
    assert delta(spec, polyx_from_text(QQ, "X^2 - t*X")) == GroupVal.fin(1)


def test_delta_tower():
    spec = tower_spec()
    for m in range(4):
        am = PuiseuxSeries.from_terms(F2, {Fraction(2**k): 1 for k in range(m + 1)})
        assert delta(spec, x_minus(F2, am)) == GroupVal.fin(2**(m + 1))


def test_delta_keypoly_unsupported():
    base = ValuationSpec.gauss(QQ)
    spec = ValuationSpec.keypoly(polyx_from_text(QQ, "X - t"), GroupVal.fin(2), base)
    with pytest.raises(WorkbenchError):
        delta(spec, polyx_from_text(QQ, "X"))


def test_is_pair_equivalent():
    a = tower_series(6)
    a1 = PuiseuxSeries.from_terms(F2, {Fraction(1): 1, Fraction(2): 1})
    a0 = PuiseuxSeries.from_terms(F2, {Fraction(1): 1})
    g4 = GroupVal.fin(4)
    assert is_pair_equivalent(a, a1, g4)       # v(a - a_1) = 4 >= 4
    assert not is_pair_equivalent(a, a0, g4)   # v(a - a_0) = 2 < 4
    assert is_pair_equivalent(a, a, g4)
    # precision short of gamma: refuse rather than guess
    short = tower_series(1, prec=3)
    trunc = PuiseuxSeries.from_terms(F2, {Fraction(1): 1, Fraction(2): 1},
                                     Fraction(3))
    with pytest.raises(PrecisionExhausted):
        is_pair_equivalent(short, trunc, g4)


def test_is_key_polynomial():
    rng = random.Random(2)
    # X^2 - t is NOT a key polynomial for the weight-1/3 monomial spec at 0:
    # X has delta(X) = 1/3 >= delta(X^2 - t) = 1/3
    spec = ValuationSpec.monomial(PuiseuxSeries.zero(QQ), GroupVal.fin(Fraction(1, 3)))
    verdict = is_key_polynomial(spec, polyx_from_text(QQ, "X^2 - t"), 20, rng)
    assert isinstance(verdict, Counterexample)
    assert verdict.f.degree() == 1
    # linear polynomials are vacuously key
    v2 = is_key_polynomial(spec, polyx_from_text(QQ, "X"), 20, rng)
    assert v2 == Evidence(tested=0, undecidable=0, notes=())
    # X under gauss: no lower degree exists
    v3 = is_key_polynomial(ValuationSpec.gauss(QQ), polyx_from_text(QQ, "X"), 20, rng)
    assert v3 == Evidence(tested=0, undecidable=0, notes=())


def test_is_key_polynomial_counts_undecidable_samples_apart():
    # X - O(t^(1/4)) has an undecidable delta at this spec: no evidence
    spec = ValuationSpec.monomial(PuiseuxSeries.t_power(QQ, Fraction(1, 2)),
                                  GroupVal.fin(Fraction(3, 4)))
    Q = polyx_from_text(QQ, "X^2 - t")
    vague = PuiseuxSeries.from_text(QQ, "O(t^(1/4))")
    base = is_key_polynomial(spec, Q, 5, random.Random(4))
    verdict = is_key_polynomial(spec, Q, 5, random.Random(4), extra_pool=[vague])
    assert isinstance(verdict, Evidence)
    assert (verdict.tested, verdict.undecidable) == (base.tested, 1)
    assert verdict.notes == ("coefficient 0 of the recentered polynomial is undecidable",)
    assert (base.undecidable, base.notes) == (0, ())


def test_is_key_polynomial_counts_a_horizon_refusal_apart():
    # along the exponential sequence, delta(X - a_5) has not stabilized by horizon 6, so
    # that candidate is undecidable; X - a_1 is decided, below delta((X - a_2)^2) = 3
    gen = builtin_generator("exponential", 6)
    a = gen.elements()
    x_a2 = PolyX.from_series(QQ, [-a[2], PuiseuxSeries.one(QQ)])
    verdict = is_key_polynomial(ValuationSpec.pcslimit(gen), x_a2 * x_a2, 0,
                                random.Random(1), extra_pool=[a[5], a[1]])
    assert verdict == Evidence(tested=1, undecidable=1,
                               notes=("delta did not stabilize within the horizon",))


def test_is_key_polynomial_positive_evidence():
    # weight 1/2 at center t^(1/2): X^2 - t reaches delta = 1/2 but linear
    # polynomials over K peak strictly below it
    spec = ValuationSpec.monomial(PuiseuxSeries.t_power(QQ, Fraction(1, 2)),
                                  GroupVal.fin(Fraction(3, 4)))
    rng = random.Random(4)
    verdict = is_key_polynomial(spec, polyx_from_text(QQ, "X^2 - t"), 50, rng)
    assert isinstance(verdict, Evidence)
    assert verdict.tested > 50
    assert (verdict.undecidable, verdict.notes) == (0, ())


def test_minimal_pair_search():
    # sqrt(t) with gamma = 1/4: the zero truncation is an equivalent center
    # of smaller degree, because v(sqrt(t) - 0) = 1/2 >= 1/4
    Q = polyx_from_text(QQ, "X^2 - t")
    a = attach_minpoly(PuiseuxSeries.t_power(QQ, Fraction(1, 2)), Q,
                       irreducible=True)
    res = minimal_pair_search(a, GroupVal.fin(Fraction(1, 4)))
    assert isinstance(res, Smaller)
    assert res.b.is_exact_zero()
    # gamma = 3/4 exceeds every v(sqrt(t) - b) for b in K, so nothing smaller
    res2 = minimal_pair_search(a, GroupVal.fin(Fraction(3, 4)),
                               candidate_pool=[RatFunc.t_power(QQ, 1)])
    assert isinstance(res2, Evidence)
    assert res2.tested >= 2
    assert (res2.undecidable, res2.notes) == (0, ())


def test_pool_degree_is_certified_only_for_exact_sums_with_their_roots_of_unity():
    # an exact sum of ramification e has degree e where k holds the e-th roots of unity;
    # a capped candidate, or one whose conjugates k cannot reach, has no certified degree
    assert _pool_degree(PuiseuxSeries.from_text(QQ, "1 + t")) == 1
    assert _pool_degree(PuiseuxSeries.from_text(QQ, "1 + t + O(t^5)")) is None
    assert _pool_degree(PuiseuxSeries.from_text(QQ, "t^(1/2) + t")) == 2
    assert _pool_degree(PuiseuxSeries.from_text(QQ, "t^(1/3)")) is None
    assert _pool_degree(PuiseuxSeries.from_text(GF(7), "t^(1/3)")) == 3


def test_spec_text():
    assert "gauss" in ValuationSpec.gauss(QQ).to_text()
    spec = ValuationSpec.monomial(PuiseuxSeries.zero(QQ), GroupVal.fin(1))
    assert "monomial" in spec.to_text() and "1" in spec.to_text()


def test_spec_constructors_refuse_an_infinite_weight():
    zero, inf = PuiseuxSeries.zero(QQ), GroupVal.posinf()
    with pytest.raises(WorkbenchError, match="weight cannot be infinite"):
        ValuationSpec.monomial(zero, inf)
    with pytest.raises(WorkbenchError, match="weight cannot be infinite"):
        ValuationSpec.keypoly(polyx_from_text(QQ, "X - t"), inf, ValuationSpec.gauss(QQ))


# -- the weighted minimum on (z, q) pairs ------------------------------------
#
# The reference is the GroupVal loop over built coefficients that the integer
# reduction of the value profile replaced; values (with the types of their
# parts) or exception types and messages must match it.

def ref_min_weighted(C, gamma):
    best = None
    pending = []
    for i, c in enumerate(C):
        if c.is_exact_zero():
            continue
        if c.is_unknown_zero():
            pending.append(GroupVal.fin(Fraction(c.prec)) + i * gamma)
            continue
        term = c.val() + i * gamma
        if best is None or term < best:
            best = term
    if best is None:
        raise PrecisionExhausted("no decidable coefficient valuation survives")
    for lb in pending:
        if lb < best:
            raise PrecisionExhausted(
                f"an undecidable coefficient (bound {lb.to_text()}) may cut "
                f"below the decided minimum {best.to_text()}")
    return best


def value_profile(C):
    """The value profile (e, [(k, cap)]) of built coefficients, exact or series."""
    rows = [(None if c.is_zero() else int(c.val().q), None, 1) if isinstance(c, RatFunc)
            else (min(c.coeffs) if c.coeffs else None, c.prec, c.ram) for c in C]
    e = math.lcm(*(r for _, _, r in rows))
    return e, [(k if k is None else k * (e // r), cap) for k, cap, r in rows]


def weighted_outcome(fn, C, gamma):
    try:
        v = fn(C, gamma)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    return (v.inf, type(v.z), v.z, type(v.q), v.q)


def random_coefficient(field, rng):
    shape = rng.random()
    if shape < 0.15:
        return PuiseuxSeries.zero(field)
    if shape < 0.3:
        prec = Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3)))
        return PuiseuxSeries.unknown_zero(field, prec)
    if shape < 0.4:  # exact, with a pole or a zero at t = 0, or the zero element
        num = [field.zero()] * rng.randint(0, 3) + [field.one()]
        den = [field.zero()] * rng.randint(0, 3) + [field.one()]
        return RatFunc(field, [] if rng.random() < 0.2 else num, den)
    ram = rng.choice((1, 2, 3, 6))
    keys = {rng.randint(-12 * ram // 2, 10 * ram) for _ in range(rng.randint(1, 4))}
    prec = None if rng.random() < 0.4 else Fraction(max(keys) + rng.randint(1, 4), ram)
    return PuiseuxSeries(field, ram, {n: field.one() for n in keys}, prec)


def test_min_weighted_matches_the_groupval_loop():
    rng = random.Random(11)
    seen = {"value": 0, "lex": 0, "none decided": 0, "cut below": 0}
    for i in range(500):
        field = (QQ, F2, GF(3))[i % 3]
        C = [random_coefficient(field, rng) for _ in range(rng.randint(1, 7))]
        q = Fraction(rng.randint(-6, 9), rng.choice((1, 2, 3, 4)))
        gamma = GroupVal.lex(rng.choice((-1, 1, 2)), q) if rng.random() < 0.3 else GroupVal.fin(q)
        got = weighted_outcome(lambda C, g: _min_weighted(value_profile(C), g), C, gamma)
        assert got == weighted_outcome(ref_min_weighted, C, gamma), i
        if got[0] == "raised":
            seen["none decided" if "survives" in got[2] else "cut below"] += 1
        else:
            seen["lex" if got[2] else "value"] += 1
    assert min(seen.values()) >= 30, seen


def test_minimal_pair_search_counts_undecidable_candidates_apart():
    # v(a - 1) is only known to be >= 2, below gamma = 3: no evidence either way
    a = AlgElement(PuiseuxSeries.from_text(QQ, "1 + O(t^2)"),
                   polyx_from_text(QQ, "X^3 - 2"), True)
    res = minimal_pair_search(a, GroupVal.fin(3), [PuiseuxSeries.one(QQ)])
    assert res == Evidence(tested=2, undecidable=1,
                           notes=("v(a - b) is only known to be >= 2, below gamma = 3",))
