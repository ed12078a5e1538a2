import random
from fractions import Fraction
from math import factorial

import pytest

from valwb.config import parse_config
from valwb.errors import HorizonExceeded, NotPcs, PrecisionExhausted, WorkbenchError
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb.pcs import (
    CauchyWithLimit,
    PcsGenerator,
    StrictlyIncreasingAtHorizon,
    TranscendentalTypeEvidence,
    UltimatelyConstant,
    artin_schreier_generator,
    builtin_generator,
    classify_generator,
    exponential_generator,
    is_limit,
    mixed_radix_generator,
    validate_prefix,
    values_along,
)
from valwb.polyx import PolyX, polyx_from_text
from valwb.series import PuiseuxSeries
from valwb.valuation import stabilized_delta


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
    gen = exponential_generator(8)
    y = PuiseuxSeries.from_terms(
        QQ, {Fraction(n): Fraction(1, factorial(n)) for n in range(12)},
        Fraction(12))
    assert is_limit(y, gen)
    # a_0 itself is not the limit
    assert not is_limit(gen.element(0), gen)


def test_is_limit_reads_an_undecided_difference_against_the_cap():
    # y = a_3 + O(t^cap): v(y - a_m) is undecided for m >= 3, which is consistent with a
    # limit where gamma_m = m + 1 lies at or beyond the cap, and refutes it where it lies below
    gen = exponential_generator(8)
    a3 = gen.element(3)
    assert is_limit(a3.truncate(4), gen)  # gamma_3 at the cap
    assert is_limit(a3.truncate(Fraction(7, 2)), gen)  # gamma_3 above the cap
    assert not is_limit(a3.truncate(5), gen)  # gamma_3 below it: y lacks t^4/4!


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


def test_values_along_reads_a_window_of_values_before_the_cap():
    # f(a_m) = a_m - y runs out of y's precision at m = 2, after two values
    y = PuiseuxSeries(QQ, 1, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2)}, Fraction(3))
    f = x_minus(QQ, y)
    gen = exponential_generator(12)
    for window in (3, 6):
        gen.window = window
        with pytest.raises(PrecisionExhausted, match=f"after 2 values, fewer than the {window} "
                                                     f"a window of {window} reads"):
            values_along(f, gen)
    gen.window = 2
    vals, trend = values_along(f, gen)
    assert vals == [GroupVal.fin(1), GroupVal.fin(2)]
    assert trend == StrictlyIncreasingAtHorizon(GroupVal.fin(2))


def test_values_along_names_the_values_read_when_the_cap_stops_it():
    # f(a_m) = a_m + O(t^5) is undecidable once v(a_m) reaches 5; the refusal
    # names the values read against the window, and tells a run too short for
    # the window from one whose last values do not increase
    f = x_minus(QQ, PuiseuxSeries.unknown_zero(QQ, 5))

    def along(*exps, window=3):
        items = [PuiseuxSeries.t_power(QQ, k) for k in exps]
        return values_along(f, PcsGenerator("explicit", QQ, items, len(items) - 1, window=window))

    with pytest.raises(PrecisionExhausted, match="after 2 values, fewer than the 3 a window of 3"):
        along(1, 2, 6, 7)
    with pytest.raises(PrecisionExhausted, match="after 0 values, fewer than the 2 a window of 1"):
        along(6, 7, 8, 9, window=1)
    with pytest.raises(PrecisionExhausted, match="after 3 values, the last 3 not strictly increas"):
        along(1, 3, 2, 6)
    assert along(1, 2, 3, 6) == ([GroupVal.fin(1), GroupVal.fin(2), GroupVal.fin(3)],
                                 StrictlyIncreasingAtHorizon(GroupVal.fin(3)))


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
    c2 = classify_generator(mixed_radix_generator(2, 3, 10, ram_cap=64))
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
            classify_generator(mixed_radix_generator(2, 3, horizon, ram_cap=64))
    for horizon in (7, 8):
        verdict = classify_generator(mixed_radix_generator(2, 3, horizon, ram_cap=64))
        assert isinstance(verdict, TranscendentalTypeEvidence)


def test_bounded_gamma_evidence():
    from valwb.pcs import PcsGenerator
    # gamma_m = 1 - 1/(m+3) stays below 1, so the support denominators grow
    # (to lcm(2, ..., 8) = 840 at horizon 6): the elements carry the evidence,
    # and no bound is declared
    def items(m):
        return PuiseuxSeries.from_terms(
            QQ, {Fraction(n, n + 1): 1 for n in range(1, m + 2)})
    with pytest.raises(TypeError):
        PcsGenerator("bounded", QQ, items, horizon=6, value_group_bound=GroupVal.fin(1))
    verdict = classify_generator(PcsGenerator("bounded", QQ, items, horizon=6, ram_cap=64))
    assert isinstance(verdict, TranscendentalTypeEvidence)
    assert verdict.criterion == "unbounded ramification denominators"
    with pytest.raises(HorizonExceeded):
        classify_generator(PcsGenerator("bounded", QQ, items, horizon=6, ram_cap=10**6))


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
    assert gen.element(5) is not None


def test_artin_schreier_refuses_characteristic_zero():
    # GF(0) used to be Q, so the sequence was built over Q and failed later
    # with "consecutive elements 1, 2 coincide"
    with pytest.raises(WorkbenchError, match="characteristic 0"):
        builtin_generator("artin-schreier(0)")
    with pytest.raises(WorkbenchError, match="characteristic 1"):
        artin_schreier_generator(1)
    assert builtin_generator("artin-schreier(3)").field == GF(3)


def test_the_generator_refuses_its_bounds_with_the_config_messages():
    # a window of 0 used to pass the generator: stabilized_delta on exponential_generator(6)
    # then read tail[0] of an empty tail (IndexError), and values_along read every value
    items = [PuiseuxSeries.t_power(QQ, k) for k in range(1, 5)]
    for key, bad, message in (("horizon", 2, "horizon must be at least 3"),
                              ("window", 0, "window must be at least 1"),
                              ("ram_cap", 0, "ram_cap must be at least 1")):
        with pytest.raises(WorkbenchError, match=f"^{message}$"):
            PcsGenerator("explicit", QQ, items, **{"horizon": 3, key: bad})
        with pytest.raises(WorkbenchError, match=f"^{message}$"):
            parse_config(f"{key} = {bad}\n")
    message = "horizon 1413 materializes 1000405 terms, above the dense-size bound 1000000"
    with pytest.raises(WorkbenchError, match=f"^{message}$"):
        PcsGenerator("explicit", QQ, items, horizon=1413)  # (h+1)(h+2)/2 prefix terms
    with pytest.raises(WorkbenchError, match=f"^{message}$"):
        parse_config("horizon = 1413\n")
    assert parse_config("horizon = 1412\n").generator("exponential").horizon == 1412
    message = "an explicit sequence of 4 elements is shorter than the 13 that horizon 12 " \
              "materializes"
    with pytest.raises(WorkbenchError, match=f"^{message}$"):  # was an IndexError in gammas()
        PcsGenerator("short", QQ, items)
    assert PcsGenerator("explicit", QQ, items[:4], horizon=3).gammas()[-1] == GroupVal.fin(3)
    with pytest.raises(WorkbenchError, match="^window must be at least 1$"):
        exponential_generator(6, window=0)  # refused before stabilized_delta can read it
    with pytest.raises(WorkbenchError, match="^ram_cap must be at least 1$"):
        builtin_generator("mixed-radix(2,3)", 8, window=3, ram_cap=0)


def test_stabilized_delta_refuses_a_window_wider_than_the_horizon():
    # horizon 3 gives 3 deltas and 4 values: both readers need `window` of them
    gen = exponential_generator(3)
    gen.window = 6
    f = polyx_from_text(QQ, "X + 1")
    with pytest.raises(HorizonExceeded, match="window exceeds the materialized horizon"):
        stabilized_delta(gen, f)
    with pytest.raises(HorizonExceeded, match="window exceeds the materialized horizon"):
        values_along(f, gen)
    # horizon 5: six values suffice for values_along, five deltas do not
    gen = exponential_generator(5)
    gen.window = 6
    values_along(f, gen)
    with pytest.raises(HorizonExceeded, match="window exceeds the materialized horizon"):
        stabilized_delta(gen, f)
    gen.window = 5
    assert stabilized_delta(gen, f) == GroupVal.fin(0)


def ref_validate_prefix(prefix):
    """The former check: consecutive gaps, then v(z_m - z_r) = gamma_m for
    every m < r by full subtraction."""
    if len(prefix) < 3:
        raise WorkbenchError("a pseudo-Cauchy prefix needs at least 3 elements")
    gammas = []
    for m in range(len(prefix) - 1):
        g = (prefix[m] - prefix[m + 1]).val()
        if g.is_inf:
            raise NotPcs(m, f"consecutive elements {m}, {m + 1} coincide")
        if gammas and g <= gammas[-1]:
            raise NotPcs(m, f"gamma_{m} = {g.to_text()} does not exceed gamma_{m - 1}")
        gammas.append(g)
    for m in range(len(prefix) - 1):
        for r in range(m + 2, len(prefix)):
            if (prefix[m] - prefix[r]).val() != gammas[m]:
                raise NotPcs(m, f"v(z_{m} - z_{r}) differs from gamma_{m}")
    return gammas


def random_increment(field, rng, lo):
    """A series of valuation about lo: exact or capped, ramification 1 to 4."""
    ram = rng.randint(1, 4)
    n0 = lo * ram + rng.randint(-1, 1)
    keys = {n0} | {n0 + rng.randint(1, 12) for _ in range(rng.randint(0, 4))}
    coeffs = {n: field.coerce(rng.randint(1, 9)) for n in keys}
    # caps often far above the support, sometimes at or below its top key
    top = max(keys) + (rng.randint(-2, 4) if rng.random() < 0.2 else rng.randint(20, 120))
    prec = None if rng.random() < 0.5 else Fraction(top, ram)
    return PuiseuxSeries(field, ram, coeffs, prec)


def test_consecutive_gaps_decide_every_later_difference():
    # the triangle loop validate_prefix used to run checked a theorem: on
    # running sums of random exact and capped series it never fires
    rng = random.Random(1313)
    valid = 0
    for i in range(1500):
        field = (QQ, GF(2), GF(5))[i % 3]
        z = random_increment(field, rng, rng.randint(-3, 3))
        prefix, lo = [z], rng.randint(-4, 2)
        for _ in range(rng.randint(2, 7)):
            lo += rng.choice((0, 1, 1, 2, 2, 3, 3, 4, 5, 6))
            z = z + random_increment(field, rng, lo)
            prefix.append(z)
        try:
            gammas = validate_prefix(prefix)
        except (NotPcs, PrecisionExhausted) as exc:
            with pytest.raises(type(exc)):
                ref_validate_prefix(prefix)
            continue
        assert ref_validate_prefix(prefix) == gammas, (i, prefix)
        for m in range(len(prefix) - 1):
            for r in range(m + 1, len(prefix)):
                assert (prefix[m] - prefix[r]).val() == gammas[m], (i, m, r)
        valid += 1
    assert valid >= 400, valid


@pytest.mark.parametrize("name, reference", [
    ("artin-schreier(2)", lambda m: PuiseuxSeries.from_terms(
        GF(2), {Fraction(2**n): 1 for n in range(m + 1)})),
    ("artin-schreier(3)", lambda m: PuiseuxSeries.from_terms(
        GF(3), {Fraction(3**n): 1 for n in range(m + 1)})),
    ("artin-schreier(5)", lambda m: PuiseuxSeries.from_terms(
        GF(5), {Fraction(5**n): 1 for n in range(m + 1)})),
    ("exponential", lambda m: PuiseuxSeries.from_terms(
        QQ, {Fraction(n): Fraction(1, factorial(n)) for n in range(m + 1)})),
    ("mixed-radix(2,3)", lambda m: PuiseuxSeries.from_terms(
        QQ, {Fraction(3**n, 2**n): 1 for n in range(m + 1)})),
    ("mixed-radix(3,5)", lambda m: PuiseuxSeries.from_terms(
        QQ, {Fraction(5**n, 3**n): 1 for n in range(m + 1)})),
])
def test_builtin_generators_build_what_from_terms_builds(name, reference):
    gen = builtin_generator(name, 15)
    for m in range(16):
        got, want = gen.element(m), reference(m)
        assert got.ram == want.ram and got.prec is want.prec is None, (name, m)
        assert list(got.coeffs.items()) == list(want.coeffs.items()), (name, m)
        assert [type(c) for c in got.coeffs.values()] == \
            [type(c) for c in want.coeffs.values()], (name, m)
