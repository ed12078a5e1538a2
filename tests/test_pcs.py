from fractions import Fraction

import pytest

from valwb.errors import HorizonExceeded, NotPcs, WorkbenchError
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb.pcs import (
    CauchyWithLimit,
    StrictlyIncreasingAtHorizon,
    TranscendentalTypeEvidence,
    UltimatelyConstant,
    artin_schreier_generator,
    builtin_generator,
    classify_generator,
    exponential_generator,
    is_limit,
    mixed_radix_generator,
    stabilized_delta,
    validate_prefix,
    values_along,
)
from valwb.polyx import PolyX, polyx_from_text
from valwb.series import PuiseuxSeries


def x_minus(field, c):
    return PolyX.from_series(field, [-c, PuiseuxSeries.one(field)])


def test_validate_prefix():
    gen = artin_schreier_generator(2, horizon=6)
    gammas = validate_prefix(gen.elements())
    assert gammas == [GroupVal.fin(2**(m + 1)) for m in range(6)]


def test_validate_prefix_rejects_non_increasing():
    # constant gaps: v(z_m - z_{m+1}) = 1 for every m
    elems = [PuiseuxSeries.from_terms(QQ, {Fraction(1): m}) for m in range(4)]
    with pytest.raises(NotPcs):
        validate_prefix(elems)
    # coinciding consecutive elements
    z = PuiseuxSeries.t_power(QQ, 1)
    with pytest.raises(NotPcs):
        validate_prefix([z, z, z])
    with pytest.raises(WorkbenchError):
        validate_prefix([z, z + PuiseuxSeries.one(QQ)])


def test_gammas_closed_forms():
    assert exponential_generator(8).gammas() == \
        [GroupVal.fin(m + 1) for m in range(8)]
    assert mixed_radix_generator(2, 3, 8).gammas() == \
        [GroupVal.fin(Fraction(3**(m + 1), 2**(m + 1))) for m in range(8)]


def test_is_limit():
    from math import factorial
    gen = exponential_generator(8)
    y = PuiseuxSeries.from_terms(
        QQ, {Fraction(n): Fraction(1, factorial(n)) for n in range(12)},
        Fraction(12))
    assert is_limit(y, gen)
    # a_0 itself is not the limit
    assert not is_limit(gen.element(0), gen)


def test_values_along_trends():
    gen = exponential_generator(10)
    # X - a_1 stabilizes at gamma_1 = 2 from index 2 on
    vals, trend = values_along(x_minus(QQ, gen.element(1)), gen)
    assert isinstance(trend, UltimatelyConstant)
    assert trend.value == GroupVal.fin(2)
    assert vals[0] == GroupVal.fin(1)
    # X - a_horizon keeps increasing: the vanishing-at-the-limit signature
    vals2, trend2 = values_along(x_minus(QQ, gen.element(10)), gen)
    assert isinstance(trend2, StrictlyIncreasingAtHorizon)
    assert vals2[:10] == [GroupVal.fin(m + 1) for m in range(10)]
    assert vals2[-1].is_inf  # exact root at the final element


def test_stabilized_delta():
    gen = exponential_generator(10)
    f = x_minus(QQ, gen.element(2))
    assert stabilized_delta(gen, f) == GroupVal.fin(3)
    with pytest.raises(HorizonExceeded):
        stabilized_delta(gen, x_minus(QQ, gen.element(10)))


def test_classify_generator_all_three():
    c = classify_generator(exponential_generator(10))
    assert isinstance(c, CauchyWithLimit)
    assert c.limit.prec == Fraction(10)  # known through the last gamma
    c2 = classify_generator(mixed_radix_generator(2, 3, 10), ram_cap=64)
    assert isinstance(c2, TranscendentalTypeEvidence)
    assert c2.criterion == "unbounded ramification denominators"
    c3 = classify_generator(artin_schreier_generator(3, horizon=5))
    assert isinstance(c3, CauchyWithLimit)
    assert c3.limit.coeffs  # the tower itself, materialized


def test_growing_denominators_within_the_cap_are_not_cauchy():
    # mixed-radix(2,3) has support denominators 2^m: below horizon 7 they stay
    # within the cap 64 but still grow, which proves neither verdict
    for horizon in (3, 4, 5, 6):
        with pytest.raises(HorizonExceeded):
            classify_generator(mixed_radix_generator(2, 3, horizon), ram_cap=64)
    for horizon in (7, 8):
        verdict = classify_generator(mixed_radix_generator(2, 3, horizon), ram_cap=64)
        assert isinstance(verdict, TranscendentalTypeEvidence)


def test_bounded_gamma_evidence():
    from valwb.pcs import PcsGenerator
    # gamma_m = 1 - 1/(m+1) stays below the declared bound 1
    def items(m):
        return PuiseuxSeries.from_terms(
            QQ, {Fraction(n, n + 1): 1 for n in range(1, m + 2)})
    gen = PcsGenerator("bounded", QQ, items, horizon=6,
                       value_group_bound=GroupVal.fin(1), window=3)
    verdict = classify_generator(gen, ram_cap=10**6)
    assert isinstance(verdict, TranscendentalTypeEvidence)
    assert verdict.criterion == "gamma bounded below the declared cofinality bound"


def test_builtin_generator_parsing():
    assert builtin_generator("exponential", 8).name == "exponential"
    g = builtin_generator("artin-schreier(2)", 8)
    assert g.field.char == 2 and g.horizon == 8
    g2 = builtin_generator("mixed-radix(2,3)", 8)
    assert g2.gammas()[0] == GroupVal.fin(Fraction(3, 2))
    with pytest.raises(WorkbenchError):
        builtin_generator("fibonacci")
    with pytest.raises(WorkbenchError):
        mixed_radix_generator(3, 2)


def test_horizon_guard():
    gen = exponential_generator(5)
    with pytest.raises(HorizonExceeded):
        gen.element(6)
    assert gen.raised(9).element(9) is not None


def test_artin_schreier_refuses_characteristic_zero():
    # GF(0) used to be Q, so the sequence was built over Q and failed later
    # with "consecutive elements 1, 2 coincide"
    with pytest.raises(WorkbenchError, match="characteristic 0"):
        builtin_generator("artin-schreier(0)")
    with pytest.raises(WorkbenchError, match="characteristic 1"):
        artin_schreier_generator(1)
    assert builtin_generator("artin-schreier(3)").field == GF(3)
