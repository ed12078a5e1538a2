import math
import random
from fractions import Fraction

import pytest

from valwb.algnum import attach_minpoly
from valwb.errors import NotARoot, PrecisionExhausted, WorkbenchError, ZeroPolynomial
from valwb.field import GF, QQ, BaseField
from valwb.groupval import FIN0, GroupVal
from valwb.lifting import conjugacy_check
from valwb import polyx, series
from valwb.pcs import (artin_schreier_generator, exponential_generator, mixed_radix_generator,
                       values_along)
from valwb.polyx import RATFUNC, SERIES, PolyX, _hull_height, _lower_hull, polyx_from_text
from valwb.sampling import random_polyx, random_ratfunc
from valwb.series import DEFAULT_PREC, PuiseuxSeries, RatFunc, coerce
from valwb.valuation import ValuationSpec, delta, eval_spec

from fraction_ratfunc import FractionRatFunc
from lifting_reference import _min_recentered_value
from packed_reference import old_packed_values
from series_stage_reference import recentered_series, shifted_values

F2 = GF(2)


def P(field, *coeffs):
    return PolyX.from_ratfuncs(field, [RatFunc.constant(field, c)
                                       if not isinstance(c, RatFunc) else c
                                       for c in coeffs])


def X_minus_series(field, terms, prec=None):
    c = PuiseuxSeries.from_terms(field, {Fraction(k): v for k, v in terms.items()},
                                 None if prec is None else Fraction(prec))
    return PolyX.from_series(field, [-c, PuiseuxSeries.one(field)])


def test_recenter_hasse_at_t():
    # f = X^2 + X + 1 recentered at a = t: C = (t^2 + t + 1, 2t + 1, 1)
    f = P(QQ, 1, 1, 1)
    a = RatFunc.t_power(QQ, 1)
    C = f.recenter_hasse(a)
    assert C[0] == RatFunc(QQ, [1, 1, 1])
    assert C[1] == RatFunc(QQ, [1, 2])
    assert C[2] == RatFunc.one(QQ)


def test_recenter_hasse_at_zero_is_identity():
    f = P(QQ, 3, 0, -2, 1)
    C = f.recenter_hasse(RatFunc.zero(QQ))
    assert C == list(f.coeffs)


def test_recenter_hasse_ramified_center():
    # f = X^2 - t at a = t^(1/2): C_0 = 0 exactly, C_1 = 2 t^(1/2), C_2 = 1
    f = P(QQ, RatFunc(QQ, [0, -1]), 0, 1)
    a = PuiseuxSeries.t_power(QQ, Fraction(1, 2))
    C = f.recenter_hasse(a)
    assert C[0].is_exact_zero()
    assert C[1].support() == [Fraction(1, 2)] and C[1].coeff_at(Fraction(1, 2)) == 2
    assert C[2].coeff_at(Fraction(0)) == 1


def test_recenter_reconstruction_random():
    rng = random.Random(5)
    for _ in range(30):
        field = QQ if rng.random() < 0.5 else F2
        f = P(field, *[rng.randint(0, 4) for _ in range(rng.randint(1, 5))])
        if f.is_zero():
            continue
        a = RatFunc(field, [rng.randint(0, 3), rng.randint(0, 3)])
        C = f.recenter_hasse(a)
        xma = PolyX.from_ratfuncs(field, [-a, RatFunc.one(field)])
        acc = PolyX.zero(field)
        power = PolyX.from_ratfuncs(field, [RatFunc.one(field)])
        for ci in C:
            acc = acc + power.scale(ci)
            power = power * xma
        assert acc == f


def test_qadic_expand():
    # f = X^3, Q = X^2 - t: digits (f_0, f_1) = (tX, X)
    f = PolyX.x_power(QQ, 3)
    Q = P(QQ, RatFunc(QQ, [0, -1]), 0, 1)
    digits = f.qadic_expand(Q)
    assert digits[0] == P(QQ, 0, RatFunc(QQ, [0, 1]))
    assert digits[1] == P(QQ, 0, 1)
    # deg f < deg Q: a single digit, f itself
    g = P(QQ, 2, 1)
    assert g.qadic_expand(Q) == [g]
    # f = Q: digits (0, 1)
    dQ = Q.qadic_expand(Q)
    assert dQ[0].is_zero() and dQ[1] == P(QQ, 1)


def test_qadic_reconstruction_random():
    rng = random.Random(9)
    Q = P(QQ, RatFunc(QQ, [0, -1]), 0, 1)
    for _ in range(20):
        f = P(QQ, *[rng.randint(-3, 3) for _ in range(rng.randint(1, 7))])
        if f.is_zero():
            continue
        digits = f.qadic_expand(Q)
        acc = PolyX.zero(QQ)
        power = P(QQ, 1)
        for d in digits:
            assert d.degree() < Q.degree()
            acc = acc + d * power
            power = power * Q
        assert acc == f


def test_divmod_monic():
    f = P(QQ, 1, 0, 0, 1)  # X^3 + 1
    Q = P(QQ, 1, 1)        # X + 1
    q, r = f.divmod_monic(Q)
    assert q == P(QQ, 1, -1, 1) and r.is_zero()
    q2, r2 = P(QQ, 1, 1).divmod_monic(P(QQ, 0, 0, 1))
    assert q2.is_zero() and r2 == P(QQ, 1, 1)


def test_newton_polygon():
    # X^2 - t at 0: single slope 1/2 with multiplicity 2
    f = P(QQ, RatFunc(QQ, [0, -1]), 0, 1)
    assert f.newton_polygon() == [(GroupVal.fin(Fraction(1, 2)), 2)]
    # (X - t)^2 = X^2 - 2tX + t^2: slope 1 with multiplicity 2
    g = P(QQ, RatFunc(QQ, [0, 0, 1]), RatFunc(QQ, [0, -2]), 1)
    assert g.newton_polygon() == [(GroupVal.fin(1), 2)]
    # X * (X - t): exact root at the center plus slope 1
    h = P(QQ, 0, RatFunc(QQ, [0, -1]), 1)
    assert h.newton_polygon() == [(GroupVal.posinf(), 1), (GroupVal.fin(1), 1)]


def test_newton_polygon_recentered():
    # X^2 - t recentered at t^(1/2): exact root plus v(t^(1/2) - (-t^(1/2))) = 1/2
    f = P(QQ, RatFunc(QQ, [0, -1]), 0, 1)
    a = PuiseuxSeries.t_power(QQ, Fraction(1, 2))
    assert f.newton_polygon(a) == [(GroupVal.posinf(), 1),
                                   (GroupVal.fin(Fraction(1, 2)), 1)]


def test_newton_polygon_errors():
    with pytest.raises(ZeroPolynomial):
        PolyX.zero(QQ).newton_polygon()
    # constant recentering with an undecidable C_0: X - a with a unknown-zero
    a = PuiseuxSeries.unknown_zero(QQ, Fraction(3))
    f = PolyX.from_series(QQ, [-a, PuiseuxSeries.one(QQ)])
    with pytest.raises(PrecisionExhausted):
        f.newton_polygon()


def test_evaluate():
    f = P(QQ, RatFunc(QQ, [0, -1]), 0, 1)  # X^2 - t
    root = PuiseuxSeries.t_power(QQ, Fraction(1, 2))
    assert f.evaluate(root).is_exact_zero()
    # char 2: (X - a)^2 = X^2 - a^2
    a1 = PuiseuxSeries.from_terms(F2, {Fraction(1): 1, Fraction(2): 1})
    sq = X_minus_series(F2, {1: 1, 2: 1}) * X_minus_series(F2, {1: 1, 2: 1})
    val = sq.evaluate(PuiseuxSeries.zero(F2))
    assert val == a1 * a1


def test_text_round_trip():
    for f in (P(QQ, RatFunc(QQ, [0, -1]), 0, 1),
              P(QQ, 1, 1, 1),
              PolyX.x_power(F2, 2) + P(F2, 0, 1),
              PolyX.zero(QQ)):
        assert polyx_from_text(f.field, f.to_text()) == f


def test_from_text_forms():
    f = polyx_from_text(QQ, "X^2 - t")
    assert f == P(QQ, RatFunc(QQ, [0, -1]), 0, 1)
    g = polyx_from_text(GF(3), "X^3 - X + t")
    assert g.degree() == 3 and g.coeff(1) == -RatFunc.one(GF(3))
    # the domain follows the leading coefficient; the zero polynomial is exact
    s = polyx_from_text(QQ, "X^2 - t", SERIES)
    assert (f.domain, s.domain) == (RATFUNC, SERIES) and s == f.to_series()
    assert (s + f).domain == (f * s).domain == (f + s * f).domain == SERIES
    assert s - f == PolyX.zero(QQ) and (s - f).domain == RATFUNC
    zero = PolyX.from_series(QQ, [PuiseuxSeries.zero(QQ)])
    assert zero == PolyX.from_series(QQ, []) == PolyX.zero(QQ) and zero.domain == RATFUNC
    assert hash(zero) == hash(PolyX.zero(QQ)) and polyx_from_text(QQ, "0", SERIES) == zero
    assert (zero + s) == s and (zero * s).is_zero() and (f + zero) == f


def test_sign_only_text_reads_as_the_zero_polynomial():
    # as RatFunc.from_text and PuiseuxSeries.from_text read it; a bare max() raised before
    for field in (QQ, F2):
        for domain in (RATFUNC, SERIES):
            for text in ("+", "-", " - + ", ""):
                assert polyx_from_text(field, text, domain) == PolyX.zero(field)


# term soups of a fixed atom list: signs, scalars, t-powers, brackets, caps, " / " and X^k
SOUP_FACTORS = ["0", "1", "2", "-3", "3/4", "1/2", "5/3", "t", "t^2", "t^(1/2)", "t^(-1)",
                "t^(2/3)", "t^-2", "[1 + t]", "[t^(1/3) - 2]", "[O(t^2)]", "[1 / t]",
                "[t + O(t^(7/2))]", "(t + 1)", "(", ")", "O(t^3)", "O(t)", "O(t^(5/2))", "X",
                "X^2", "X^3", "[", "]", "", " "]
SOUP_JOINS = ["+", "-", " + ", " - ", "", " / ", "- -", "+ -"]
TEXT_READERS = [RatFunc.from_text, PuiseuxSeries.from_text,
                lambda field, text: polyx_from_text(field, text, RATFUNC),
                lambda field, text: polyx_from_text(field, text, SERIES)]


def term_soup(rng) -> str:
    terms = ["*".join(rng.choice(SOUP_FACTORS) for _ in range(rng.randint(0, 3)))
             for _ in range(rng.randint(0, 4))]
    text = rng.choice(["", "-", "+", " "])
    for i, term in enumerate(terms):
        text += (rng.choice(SOUP_JOINS) if i else "") + term
    return text


def test_text_readers_return_an_element_or_a_workbench_error():
    rng = random.Random(32)
    read = 0
    for _ in range(500):
        text = term_soup(rng)
        for field in (QQ, F2, GF(3), GF(7)):
            for reader in TEXT_READERS:
                try:
                    x = reader(field, text)
                except WorkbenchError:
                    continue
                assert isinstance(x.to_text(), str), (text, field)
                read += 1
    assert read > 2000, read  # the soups are not all refused


def test_mixed_coefficients_are_refused():
    t, one = RatFunc.t_power(QQ, 1), PuiseuxSeries.one(QQ)
    s = PolyX(QQ, [PuiseuxSeries.t_power(QQ, 1), one])
    with pytest.raises(WorkbenchError, match="all RatFunc or all PuiseuxSeries"):
        PolyX(QQ, [t, one]) + s  # a bare AttributeError from + before
    with pytest.raises(WorkbenchError, match="all RatFunc or all PuiseuxSeries"):
        PolyX(QQ, [t, one]).recenter_hasse(one)  # and from recenter_hasse
    with pytest.raises(WorkbenchError, match="all RatFunc or all PuiseuxSeries"):
        PolyX(QQ, [one, RatFunc.one(QQ)])
    # exact zeros above the lead are trimmed before the check
    assert PolyX(QQ, [t, RatFunc.one(QQ), PuiseuxSeries.zero(QQ)]).domain == RATFUNC


def test_recenter_at_the_exact_zero_series_returns_the_coefficients():
    rng = random.Random(5)
    for field in (QQ, F2, GF(5)):
        for deg in range(5):
            f = random_polyx(field, rng, deg, domain="series", prec=Fraction(17, 2))
            assert f.recenter_hasse(PuiseuxSeries.zero(field)) == list(f.coeffs)
            g = random_polyx(field, rng, deg)
            assert g.recenter_hasse(PuiseuxSeries.zero(field)) == list(g.to_series().coeffs)


def test_to_series_of_a_polynomial_matches_from_terms():
    rng = random.Random(9)
    for field in (QQ, F2, GF(7)):
        for _ in range(30):
            r = random_ratfunc(field, rng, deg=5)
            want = PuiseuxSeries.from_terms(field, {i: x for i, x in enumerate(r.num)})
            got = r.to_series()
            assert got == want and got.is_exact() and got.to_series() is got
            assert list(got.coeffs.items()) == list(want.coeffs.items())
    # a pole is expanded by coerce: to O(t^DEFAULT_PREC) unless a cap is given
    for field in (QQ, F2, GF(7)):
        for r in (RatFunc(field, [1], [1, 1]), RatFunc(field, [0, 0, 1], [0, 2, 0, 1])):
            assert r.to_series() == coerce(r, DEFAULT_PREC) and r.to_series().prec == DEFAULT_PREC
            got = r.to_series(Fraction(7, 2))
            assert got == coerce(r, Fraction(7, 2)) and got.prec == Fraction(7, 2)
            assert got.val() == r.val()


# -- recentering on integer images -------------------------------------------
#
# The reference is the term-by-term Hasse loop over PuiseuxSeries that the
# integer kernel replaced; every value, scalar type, ram, cap and exception
# of the kernel must match it.

FIELDS = [QQ, F2, GF(3), GF(7), GF(2**31 - 1)]


def ref_recenter(f, a):
    a = a.to_series()
    poly = f.to_series(a.prec)
    n = poly.degree()
    if n < 0:
        return []
    if a.is_exact_zero():
        return list(poly.coeffs)
    powers = [PuiseuxSeries.one(f.field)]
    for _ in range(n):
        powers.append(powers[-1] * a)
    one = f.field.one()
    out = []
    for i in range(n + 1):
        acc = poly.coeffs[i]
        for j in range(i + 1, n + 1):
            b = f.field.coerce(math.comb(j, i))
            if b:
                term = poly.coeffs[j] * powers[j - i]
                acc = acc + (term if b == one else term.scalar_mul(b))
        out.append(acc)
    return out


def recentered(fn, f, a):
    """Everything a caller can observe: values with their types, ram, cap."""
    try:
        C = fn(f, a)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    return [(c.ram, type(c.prec), c.prec, sorted((n, type(x), x) for n, x in c.coeffs.items()))
            for c in C]


def nonzero_scalar(field, rng):
    if field.char:
        return rng.randrange(1, field.char)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**rng.choice((3, 3, 70))),
                    rng.choice((1, 1, 2, 3, 12)))


def series_with_keys(field, rng, ram, keys, capped):
    prec = Fraction(max(keys) + rng.randint(-2, 4), ram) if capped else None
    return PuiseuxSeries(field, ram, {k: nonzero_scalar(field, rng) for k in keys}, prec)


def random_center(field, rng, kind):
    ram, capped = rng.choice((1, 2, 3, 6)), rng.random() < 0.5
    if kind == "unknown zero":
        return PuiseuxSeries.unknown_zero(field, Fraction(rng.randint(-4, 12), ram))
    if kind == "pole":  # a RatFunc center, expanded at the default cap
        return RatFunc(field, [nonzero_scalar(field, rng) for _ in range(rng.randint(1, 3))],
                       [field.coerce(rng.choice((1, -2, 3))), field.one()])
    lo = rng.randint(-4, -1) if kind == "negative" else rng.randint(0, 4)
    width = 1 if kind == "one term" else rng.randint(2, 16)
    return series_with_keys(field, rng, ram, range(lo, lo + width), capped)


def random_coefficient(field, rng):
    shape, ram = rng.random(), rng.choice((1, 2, 3, 6))
    if shape < 0.12:
        return PuiseuxSeries.zero(field)
    if shape < 0.22:
        return PuiseuxSeries.unknown_zero(field, Fraction(rng.randint(-6, 14), ram))
    lo = rng.randint(-8, 6)  # negative keys about a third of the time
    if shape < 0.6:
        keys = range(lo, lo + rng.randint(1, 14))
    else:
        keys = sorted({rng.randint(lo, lo + 30) for _ in range(rng.randint(1, 5))})
    return series_with_keys(field, rng, ram, keys, rng.random() < 0.6)


def random_ratfunc_with_pole(field, rng):
    num = [nonzero_scalar(field, rng) if rng.random() < 0.7 else field.zero()
           for _ in range(rng.randint(1, 4))]
    den = [field.zero()] * rng.randint(0, 2) + [nonzero_scalar(field, rng), field.one()]
    return RatFunc(field, num, den)


def test_recenter_kernel_matches_the_hasse_series_loop():
    rng = random.Random(12)
    kinds = ("one term", "dense", "negative", "unknown zero", "pole")
    seen = {"raised": 0, "unknown-zero outputs": 0, "ratfunc": 0}
    for i in range(325):
        field = FIELDS[i % len(FIELDS)]
        kind = kinds[i // len(FIELDS) % len(kinds)]
        a = random_center(field, rng, kind)
        deg = rng.randint(1, 8)
        # a RatFunc polynomial at a RatFunc center would stay exact
        if kind != "pole" and rng.random() < 0.3:
            coeffs = [random_ratfunc_with_pole(field, rng) for _ in range(deg + 1)]
            if coeffs[-1].is_zero():
                coeffs[-1] = RatFunc.constant(field, nonzero_scalar(field, rng))
            f = PolyX.from_ratfuncs(field, coeffs)
            seen["ratfunc"] += 1
        else:
            k = rng.randint(-3, 3)
            ram = rng.choice((1, 2, 3, 6))
            lead = PuiseuxSeries(field, ram, {k: nonzero_scalar(field, rng)},
                                 rng.choice((None, Fraction(k + rng.randint(1, 9), ram))))
            coeffs = [random_coefficient(field, rng) for _ in range(deg)]
            f = PolyX.from_series(field, coeffs + [lead])
        if rng.random() < 0.03:
            a = random_center(FIELDS[(i + 1) % len(FIELDS)], rng, kind)  # field mismatch
        got = recentered(PolyX.recenter_hasse, f, a)
        assert got == recentered(ref_recenter, f, a), (i, kind, f, a)
        if got[0] == "raised":
            seen["raised"] += 1
        else:
            seen["unknown-zero outputs"] += sum(1 for _, _, prec, c in got
                                                if prec is not None and not c)
    assert seen["raised"] >= 5 and seen["unknown-zero outputs"] >= 30, seen
    assert seen["ratfunc"] >= 60, seen



# -- the value profile ----------------------------------------------------------
#
# eval_spec, delta and the density check read valuations off the shift's
# integer rows (PolyX.recentered_values).  The references are the readers of
# built coefficients they replaced: the weighted minimum and the Newton polygon
# over recenter_hasse's series.  Values, with the types of their parts, or the
# exception class and message must match.

def ref_min_weighted(C, gamma):
    gz, gq = gamma.z, gamma.q
    best = None
    pending = []
    for i, c in enumerate(C):
        if isinstance(c, PuiseuxSeries):
            if not c.coeffs:
                if c.prec is not None:
                    pending.append(i)
                continue
            term = (i * gz, Fraction(min(c.coeffs), c.ram) + i * gq)
        else:
            if c.is_exact_zero():
                continue
            v = c.val()
            term = (v.z + i * gz, v.q + i * gq)
        if best is None or term < best:
            best = term
    if best is None:
        raise PrecisionExhausted("no decidable coefficient valuation survives")
    for i in pending:
        bound = (i * gz, Fraction(C[i].prec) + i * gq)
        if bound < best:
            raise PrecisionExhausted(
                f"an undecidable coefficient (bound {GroupVal(*bound).to_text()}) "
                f"may cut below the decided minimum {GroupVal(*best).to_text()}")
    return GroupVal(*best)


def ref_newton_polygon(f, center=None):
    if f.is_zero():
        raise ZeroPolynomial("Newton polygon of the zero polynomial")
    C = list(f.coeffs) if center is None else f.recenter_hasse(center)
    n = len(C) - 1
    if n == 0:
        return []
    k = 0
    while k < n and C[k].is_exact_zero():
        k += 1
    if C[k].is_unknown_zero():
        raise PrecisionExhausted(f"coefficient {k} of the recentered polynomial is undecidable")
    known, unknown = [], []
    for i in range(k, n + 1):
        c = C[i]
        if c.is_exact_zero():
            continue
        if c.is_unknown_zero():
            unknown.append((i, Fraction(c.prec)))
        else:
            known.append((i, c.val().q))
    hull = _lower_hull(known)
    for i, lb in unknown:
        if lb < _hull_height(hull, i):
            raise PrecisionExhausted(
                f"coefficient {i} (known only to O(t^{lb})) may cut the Newton polygon")
    out = [(GroupVal.posinf(), k)] if k > 0 else []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        out.append((GroupVal.fin(Fraction(v1 - v2, i2 - i1)), i2 - i1))
    return out


def ref_delta(spec, f):
    best = None
    for slope, _ in ref_newton_polygon(f, spec.center):
        term = spec.gamma if slope.is_inf else min(spec.gamma, slope)
        if best is None or term > best:
            best = term
    return best


def outcome(fn, *args):
    """A value with the types of its parts, a polygon, or the exception."""
    try:
        v = fn(*args)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    if isinstance(v, list):
        return [(s.inf, s.z, type(s.q), s.q, m) for s, m in v]
    return (v.inf, type(v.z), v.z, type(v.q), v.q)


def test_value_profile_matches_the_readers_of_built_series():
    rng = random.Random(13)
    kinds = ("one term", "dense", "negative", "unknown zero", "pole", "zero", "exact")
    seen = {"value": 0, "raised": 0, "exact Hasse": 0, "polygon": 0, "unknown zero": 0}
    for i in range(350):
        field = FIELDS[i % len(FIELDS)]
        kind = kinds[i // len(FIELDS) % len(kinds)]
        deg = rng.randint(1, 5)
        if kind in ("pole", "exact") or rng.random() < 0.25:
            # small scalars: poles expanded to O(t^64) stay cheap; at an exact
            # center the Hasse sum over K stays polynomial, as gcds are dear
            poles = kind != "exact" and rng.random() < 0.5
            coeffs = [random_ratfunc(field, rng, poles=poles) for _ in range(deg)]
            f = PolyX.from_ratfuncs(field, coeffs + [random_ratfunc(field, rng)])
        else:
            coeffs = [random_coefficient(field, rng) for _ in range(deg)]
            k, ram = rng.randint(-3, 3), rng.choice((1, 2, 3, 6))
            lead = PuiseuxSeries(field, ram, {k: nonzero_scalar(field, rng)},
                                 rng.choice((None, Fraction(k + rng.randint(1, 9), ram))))
            f = PolyX.from_series(field, coeffs + [lead])
        if kind == "zero":
            a = PuiseuxSeries.zero(field)
        elif kind == "exact":  # an exact center of K keeps a RatFunc polynomial exact
            a = RatFunc(field, [nonzero_scalar(field, rng) for _ in range(rng.randint(1, 3))])
        else:
            a = random_center(field, rng, kind)
        q = Fraction(rng.randint(-4, 8), rng.choice((1, 2, 3, 4)))
        gamma = GroupVal.lex(rng.choice((-1, 1)), q) if rng.random() < 0.2 else GroupVal.fin(q)
        spec = ValuationSpec.gauss(field) if kind == "zero" else ValuationSpec.monomial(a, gamma)
        got = [outcome(eval_spec, spec, f), outcome(delta, spec, f),
               outcome(_min_recentered_value, f, a),
               outcome(f.newton_polygon, None), outcome(f.newton_polygon, a)]
        want = [outcome(lambda: ref_min_weighted(f.recenter_hasse(spec.center), spec.gamma)),
                outcome(ref_delta, spec, f),
                outcome(lambda: ref_min_weighted(f.recenter_hasse(a), FIN0)),
                outcome(ref_newton_polygon, f, None), outcome(ref_newton_polygon, f, a)]
        assert got == want, (i, kind, f, a, gamma)
        seen["value"] += got[0][0] != "raised"
        seen["raised"] += sum(x[0] == "raised" for x in got)
        seen["polygon"] += isinstance(got[4], list)
        seen["exact Hasse"] += f.domain == RATFUNC and kind == "exact"
        try:
            C = f.recenter_hasse(spec.center)
        except PrecisionExhausted:
            C = []
        seen["unknown zero"] += any(c.is_unknown_zero() for c in C)
    assert min(seen.values()) >= 30, seen


# -- the packed value profile --------------------------------------------------
#
# Polynomials over K, coefficients with a pole included, at a Puiseux series
# or polynomial center take one Taylor shift on packed integers.  The
# reference is the path they took before: shifted_values on the to_series
# copy, or the exact Hasse sum over K and c.val() at a RatFunc center.
# Profiles, with the types of their caps, or the exception class and message
# must match.

def ref_profile(f, a):
    if isinstance(a, RatFunc):
        return 1, [(None if c.is_exact_zero() else int(c.val().q), None)
                   for c in f.recenter_hasse(a)]
    return shifted_values(f.field, f.to_series(a.prec).coeffs, a)


def profile(fn, f, a):
    try:
        e, rows = fn(f, a)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    return e, [(k, type(cap), cap) for k, cap in rows]


def random_kt_poly(field, rng, deg):
    """X-degree deg, t-degree 0-6, exact zeros between nonzero coefficients."""
    coeffs = [RatFunc(field, [nonzero_scalar(field, rng) if rng.random() < 0.7
                              else field.zero() for _ in range(rng.randint(0, 6))]
                      + [nonzero_scalar(field, rng)])
              if i == deg or rng.random() < 0.75 else RatFunc.zero(field)
              for i in range(deg + 1)]
    return PolyX.from_ratfuncs(field, coeffs)


def small_scalar(field, rng):
    return field.coerce(rng.choice((1, -1, 2, -2, 3)))


def random_pole_kt_poly(field, rng, deg):
    """Like random_kt_poly, but the coefficients share one denominator or take
    products of up to three factors (t^k, a pole at t = 0, among them), and
    half the time half of them have t-orders 58-70, about the expansion cap 64."""
    one, zero = field.one(), field.zero()
    factors = [[zero] * rng.randint(1, 3) + [one], [small_scalar(field, rng), one],
               [small_scalar(field, rng), small_scalar(field, rng), one]]

    def product(k):
        d = RatFunc.one(field)
        for factor in rng.sample(factors, k):
            d = d * RatFunc(field, factor)
        return d.num

    dens = [product(rng.randint(1, 2))] if rng.random() < 0.5 else \
        [product(rng.randint(0, 3)) for _ in range(3)]
    deep, coeffs = rng.random() < 0.5, []
    for i in range(deg + 1):
        if i < deg and rng.random() < 0.25:
            coeffs.append(RatFunc.zero(field))
            continue
        order = rng.randint(58, 70) if deep and rng.random() < 0.5 else rng.randint(0, 6)
        num = [zero] * order + [nonzero_scalar(field, rng)] + [
            nonzero_scalar(field, rng) if rng.random() < 0.5 else zero
            for _ in range(rng.randint(0, 3))]
        coeffs.append(RatFunc(field, num, rng.choice(dens)))
    return PolyX.from_ratfuncs(field, coeffs)


def random_kt_center(field, rng, kind):
    """A center of the kind; for "root" also the factor X - a (or X^e - a^e for a
    ramified monomial), which has coefficients in k[t] and a for a root."""
    ram, capped = rng.choice((1, 2, 3, 6)), rng.random() < 0.5
    if kind in ("exact", "capped", "negative"):
        lo = rng.randint(-4, -1) if kind == "negative" else rng.randint(0, 6)
        keys = range(lo, lo + rng.randint(1, 12)) if rng.random() < 0.5 else \
            sorted({rng.randint(lo, lo + 30) for _ in range(rng.randint(1, 4))} | {lo})
        return series_with_keys(field, rng, ram, keys, kind == "capped" or
                                (kind == "negative" and capped)), None
    if kind == "zero":
        return rng.choice((PuiseuxSeries.zero(field), RatFunc.zero(field))), None
    if kind == "unknown zero":
        return PuiseuxSeries.unknown_zero(field, Fraction(rng.randint(-4, 12), ram)), None
    if kind == "inverse":  # 1/(1+t) expanded to O(t^64), scaled and shifted
        s = coerce(RatFunc(field, [field.one()], [field.one(), field.one()]), 64)
        return s.scalar_mul(nonzero_scalar(field, rng)).shift(Fraction(rng.randint(0, 3), ram)), None
    if kind == "ratfunc":
        return random_ratfunc(field, rng, deg=rng.randint(0, 5)), None
    one, c = RatFunc.one(field), nonzero_scalar(field, rng)
    if rng.random() < 0.3:  # a ramified monomial c t^(k/e), a root of X^e - c^e t^k
        k = rng.randint(1, 5)
        a = PuiseuxSeries.from_terms(field, {Fraction(k, ram): c})
        factor = PolyX.from_ratfuncs(field, [-RatFunc(
            field, [field.zero()] * k + [field.pow(c, ram)])] + [RatFunc.zero(field)] * (ram - 1)
            + [one])
    else:
        r = random_ratfunc(field, rng, deg=rng.randint(0, 4))
        factor = PolyX.from_ratfuncs(field, [-r, one])
        a = rng.choice((r, r.to_series()))
    if capped and isinstance(a, PuiseuxSeries):  # the root known only below a cap
        a = a.truncate(Fraction(rng.randint(0, 12), ram))
    return a, factor


def test_packed_profile_matches_the_series_and_exact_paths():
    rng = random.Random(23)
    kinds = ("exact", "capped", "zero", "unknown zero", "negative", "inverse", "ratfunc",
             "root", "root")
    seen = {"raised": 0, "exact zero rows": 0, "capped rows": 0, "undecided rows": 0,
            "pole rows": 0, "leading refusals": 0}
    for i in range(2250):
        field = FIELDS[i % len(FIELDS)]
        kind = kinds[i // len(FIELDS) % len(kinds)]
        a, factor = random_kt_center(field, rng, kind)
        draw = random_pole_kt_poly if i % 3 == 0 else random_kt_poly
        f = draw(field, rng, rng.randint(0, 8))
        if factor is not None:
            f = factor * draw(field, rng, rng.randint(0, 8 - factor.degree()))
        if rng.random() < 0.02:
            a = random_kt_center(FIELDS[(i + 1) % len(FIELDS)], rng, "exact")[0]  # field mismatch
        got = profile(PolyX.recentered_values, f, a)
        assert got == profile(ref_profile, f, a), (i, kind, f, a)
        if got[0] == "raised":
            seen["raised"] += 1
            seen["leading refusals"] += got[1:] == (PrecisionExhausted, polyx.LEAD_UNDECIDED)
            continue
        seen["pole rows"] += sum(len(c.den) > 1 for c in f.coeffs)
        seen["exact zero rows"] += sum(1 for k, t, _ in got[1] if k is None and t is type(None))
        seen["capped rows"] += sum(1 for k, t, _ in got[1] if k is not None and t is Fraction)
        seen["undecided rows"] += sum(1 for k, t, _ in got[1] if k is None and t is Fraction)
    assert min(seen.values()) >= 30, seen


def test_pole_coefficients_are_never_expanded_by_eval_or_delta(monkeypatch):
    # eval_spec and delta read K-coefficients with a pole off the packed shift
    # at gauss, exact and capped centers; expanding one into the completion
    # (series.coerce, behind RatFunc.to_series) fails the call
    rng = random.Random(26)
    cases = []
    for field in (QQ, GF(3), GF(7)):
        exact = series_with_keys(field, rng, rng.choice((1, 2)), range(0, 3), False)
        capped = series_with_keys(field, rng, 1, range(0, 4), True)
        specs = [ValuationSpec.gauss(field)] + [
            ValuationSpec.monomial(a, GroupVal.fin(Fraction(rng.randint(1, 8), 2)))
            for a in (exact, capped)]
        cases += [(spec, random_pole_kt_poly(field, rng, rng.randint(1, 6)))
                  for spec in specs for _ in range(8)]
    want = [(outcome(eval_spec, spec, f), outcome(delta, spec, f)) for spec, f in cases]

    def expand(r, prec):
        raise AssertionError("a coefficient with a pole was expanded")

    monkeypatch.setattr(series, "coerce", expand)
    assert [(outcome(eval_spec, spec, f), outcome(delta, spec, f)) for spec, f in cases] == want
    assert sum(v[0] != "raised" for pair in want for v in pair) >= 30
    assert sum(v[0] == "raised" for pair in want for v in pair) >= 5


def test_packed_profile_windows_a_sparse_center():
    # packed densely, t^(1/3) + t^(10^6) would span 3 * 10^6 slots per power,
    # exact or known to O(t^(10^6 + 1))
    rng = random.Random(24)
    for field in (QQ, GF(7)):
        for prec in (None, 10**6 + 1):
            a = PuiseuxSeries.from_terms(field, {Fraction(1, 3): 1, 10**6: 1}, prec)
            for _ in range(3):
                f = random_kt_poly(field, rng, 8)
                got = profile(PolyX.recentered_values, f, a)
                assert got == profile(ref_profile, f, a) and got[0] == 3


# -- series coefficients on the one stage ----------------------------------------
#
# Series coefficients take the packed shift too, each with its own cap.  The
# reference is the series stage it replaced (tests/series_stage_reference.py):
# value profiles with the types of their caps, recenter_hasse's series (ram, keys,
# scalar types, caps) and the exception class and message must match.

def random_series_list(field, rng, kind):
    """Series c_j at ram 1, 2, 3 and 6, exact, capped, unknown zeros and 0, negative keys
    among them; the top one as _difference_exceeds may pass it: decidably nonzero, capped,
    an unknown zero or 0.  For "cancel" over F_p, X^p - b^p at a center near b."""
    if kind == "cancel" and field.char and field.char < 10:
        b = series_with_keys(field, rng, rng.choice((1, 2)), range(0, rng.randint(1, 4)), False)
        c0 = -(b ** field.char)
        return [c0] + [PuiseuxSeries.zero(field)] * (field.char - 1) + [PuiseuxSeries.one(field)], b
    deg = rng.randint(1, 6)
    coeffs = [random_coefficient(field, rng) for _ in range(deg)]
    top = rng.random()
    k, ram = rng.randint(-3, 3), rng.choice((1, 2, 3, 6))
    if top < 0.6:
        lead = PuiseuxSeries(field, ram, {k: nonzero_scalar(field, rng)},
                             rng.choice((None, Fraction(k + rng.randint(1, 9), ram))))
    elif top < 0.8:
        lead = PuiseuxSeries.unknown_zero(field, Fraction(rng.randint(-2, 12), ram))
    else:
        lead = rng.choice((PuiseuxSeries.zero(field), random_coefficient(field, rng)))
    return coeffs + [lead], None


def list_profile(coeffs, a, values):
    try:
        e, rows = values(coeffs[0].field, coeffs, a)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    return e, [(k, type(cap), cap) for k, cap in rows]


def series_list_cases():
    """(i, kind, field, coeffs, a): 700 seeded lists of series coefficients and centers, kind
    "near" for X^p - b^p at a center near b."""
    rng = random.Random(44)
    kinds = ("exact", "capped", "zero", "unknown zero", "negative", "pole", "cancel")
    for i in range(700):
        field = FIELDS[i % len(FIELDS)]
        kind = kinds[i // len(FIELDS) % len(kinds)]
        coeffs, near = random_series_list(field, rng, kind)
        if near is not None:  # b itself, or b + t^k: C_0 is 0 or t^(kp), the rest 0 mod p
            a = near if rng.random() < 0.5 else near + PuiseuxSeries.t_power(field, rng.randint(1, 4))
            kind = "near"
        elif kind in ("exact", "capped", "negative"):
            lo = rng.randint(-4, -1) if kind == "negative" else rng.randint(0, 4)
            a = series_with_keys(field, rng, rng.choice((1, 2, 3, 6)),
                                 range(lo, lo + rng.randint(1, 8)), kind == "capped")
        elif kind == "zero":
            a = PuiseuxSeries.zero(field)
        else:  # an unknown zero, or the expansion of 1/(1 + t) and the like, which keeps p/q
            a = random_center(field, rng, kind).to_series()
        if rng.random() < 0.02:
            a = random_center(FIELDS[(i + 1) % len(FIELDS)], rng, "dense")  # field mismatch
        yield i, kind, field, coeffs, a


def test_series_coefficients_take_the_packed_shift_as_the_series_stage_did():
    seen = {"raised": 0, "hasse": 0, "exact zero rows": 0, "capped rows": 0, "undecided rows": 0,
            "unknown-zero top": 0, "cancel": 0, "ram > 1": 0}
    for i, kind, field, coeffs, a in series_list_cases():
        seen["cancel"] += kind == "near"
        got = list_profile(coeffs, a, polyx._packed_values)
        assert got == list_profile(coeffs, a, shifted_values), (i, kind, coeffs, a)
        if coeffs[-1].is_exact_zero() or coeffs[-1].is_unknown_zero():
            seen["unknown-zero top"] += coeffs[-1].is_unknown_zero()
        else:  # a polynomial: its series C_i as the series stage lowered them
            f = PolyX.from_series(field, coeffs)
            assert recentered(PolyX.recenter_hasse, f, a) == recentered(recentered_series, f, a), \
                (i, kind, f, a)
            seen["hasse"] += 1
        if got[0] == "raised":
            seen["raised"] += 1
            continue
        seen["ram > 1"] += got[0] > 1
        seen["exact zero rows"] += sum(1 for k, t, _ in got[1] if k is None and t is type(None))
        seen["capped rows"] += sum(1 for k, t, _ in got[1] if k is not None and t is Fraction)
        seen["undecided rows"] += sum(1 for k, t, _ in got[1] if k is None and t is Fraction)
    assert min(seen.values()) >= 12, seen


def lead_rows(field, coeffs, a, steps=None):
    """The rows of polyx.ShiftRows at the exact ram-1 center a, its terms shifted in one at a time
    from the least, each row's value k/e, cap and lead scalar (at every partial sum into
    ``steps``), or the exception."""
    def read(state):
        return [(None if k is None else Fraction(k, state.e), type(cap), cap, type(x), x)
                for k, cap, x in state.rows]
    try:
        state, x = polyx.ShiftRows(field, coeffs), {}
        for k in [None] + sorted(a.coeffs):
            if k is not None:
                state.shift(a.coeffs[k], k)
                x[k] = a.coeffs[k]
            if steps is not None:
                steps.append((PuiseuxSeries(field, 1, dict(x), None), read(state)))
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    return read(state)


def test_lead_rows_carry_the_least_coefficient_of_each_recentered_series():
    # at every partial sum of an exact center, each row's (key, cap, scalar) is the least
    # key, the cap and the coefficient there of the series stage's C_i; keys and caps are
    # those of the plain profile.  The row state grows an exact x in k((t)) over the
    # coefficients' field, as the root search does, so a capped center, one over another
    # field or one of ramification above 1 is not one of its inputs
    seen = {"rows": 0, "scalars": 0, "steps": 0, "live scalars": 0, "not an input": 0}
    for i, kind, field, coeffs, a in series_list_cases():
        if a.prec is not None or a.field != field or a.ram > 1:
            seen["not an input"] += 1
            continue
        steps = []
        got = lead_rows(field, coeffs, a, steps)
        assert got == steps[-1][1], (i, kind, coeffs, a)
        for x, got in steps:
            plain = list_profile(coeffs, x, polyx._packed_values)
            assert [(k, t, cap) for k, t, cap, _, _ in got] == \
                [(None if k is None else Fraction(k, plain[0]), t, cap) for k, t, cap in plain[1]]
            seen["rows"] += len(got)
            seen["steps"] += 1
            if coeffs[-1].is_exact_zero() or coeffs[-1].is_unknown_zero():
                continue
            C = recentered_series(PolyX.from_series(field, coeffs), x)
            want = [(Fraction(min(c.coeffs), c.ram), type(c.prec), c.prec,
                     type(c.coeffs[min(c.coeffs)]), c.coeffs[min(c.coeffs)]) if c.coeffs
                    else (None, type(c.prec), c.prec, type(None), None) for c in C]
            assert got == want, (i, kind, coeffs, x)
            seen["scalars"] += sum(x is not None for *_, x in got)
            seen["live scalars"] += sum(x is not None and c is not d for (*_, x), c, d
                                        in zip(got, C, coeffs))
    assert min(seen.values()) >= 10, seen


def random_series_poly(field, rng, deg):
    """X-degree deg over the completion, coefficients at ram 1, 2, 3 and 6."""
    k, ram = rng.randint(-3, 3), rng.choice((1, 2, 3, 6))
    lead = PuiseuxSeries(field, ram, {k: nonzero_scalar(field, rng)},
                         rng.choice((None, Fraction(k + rng.randint(1, 9), ram))))
    return PolyX.from_series(field, [random_coefficient(field, rng) for _ in range(deg)] + [lead])


def test_a_zero_center_builds_no_shift_plan(monkeypatch):
    # at None, RatFunc.zero and PuiseuxSeries.zero the profile is the coefficients' own:
    # the same as the references' and built without a shift plan of the zero
    def fail(a):
        raise AssertionError("a shift plan was built at the zero center")

    rng, seen = random.Random(46), {"raised": 0, "polygon": 0, "pole": 0}
    monkeypatch.setattr(polyx, "_shift_plan", fail)
    for field in (QQ, F2, GF(3), GF(7)):
        for deg in range(5):
            for f in (random_polyx(field, rng, deg, domain="series", prec=Fraction(17, 2)),
                      random_series_poly(field, rng, deg), random_kt_poly(field, rng, deg),
                      random_pole_kt_poly(field, rng, deg)):
                for zero in (RatFunc.zero(field), PuiseuxSeries.zero(field)):
                    want = profile(ref_profile, f, zero) if f.domain == RATFUNC else \
                        profile(lambda f, a: shifted_values(field, f.coeffs, a.to_series()), f,
                                zero)
                    assert profile(PolyX.recentered_values, f, zero) == want, (f, zero)
                    seen["raised"] += want[0] == "raised"
                for center in (None, RatFunc.zero(field), PuiseuxSeries.zero(field)):
                    got = outcome(f.newton_polygon, center)
                    assert got == outcome(ref_newton_polygon, f, center), (f, center)
                    seen["polygon"] += isinstance(got, list) and got != []
                    seen["raised"] += isinstance(got, tuple)
                seen["pole"] += any(not c.is_polynomial() for c in f.coeffs
                                    if isinstance(c, RatFunc))
    assert min(seen.values()) >= 5, seen


def test_the_sparse_guard_weighs_the_slot_width(monkeypatch):
    # at a = t + t^3 + t^9 + t^27 + t^81 over F_3 the exact zero row spans 82 slots of
    # 16 bits, fewer bits than a digit per term pair of the sparse sum: the window reads
    # it; at t + t^2000 the span is far wider, and the row is read off the sparse sum
    sparse, real = [], PolyX.value_at

    def counting(self, a, images=None):
        sparse.append(a)
        return real(self, a, images)

    monkeypatch.setattr(PolyX, "value_at", counting)
    F3 = GF(3)
    tower = PuiseuxSeries.from_terms(F3, {3**k: 1 for k in range(5)})
    factors = [PolyX.from_series(F3, [-PuiseuxSeries.from_terms(F3, {3**k: 1 for k in range(m)}),
                                      PuiseuxSeries.one(F3)]) for m in (5, 3, 2)]
    for f in (factors[0], factors[0] * factors[1], factors[1] * factors[0] * factors[2]):
        got = profile(PolyX.recentered_values, f, tower)
        assert got == profile(ref_profile, f, tower) and got[1][0] == (None, type(None), None)
        assert not sparse, f
    rng = random.Random(47)
    for field in (QQ, F3):
        a = PuiseuxSeries.from_terms(field, {1: 1, 2000: 1})
        g = PolyX.from_series(field, [series_with_keys(field, rng, 1, range(0, 4), False)
                                      for _ in range(3)])
        f = PolyX.from_series(field, [-a, PuiseuxSeries.one(field)]) * g
        sparse.clear()
        got = profile(PolyX.recentered_values, f, a)
        assert got == profile(ref_profile, f, a) and got[1][0] == (None, type(None), None)
        assert len(sparse) == 1, field
        # the root search's row state needs each row's scalar, which value_at does not give
        rows = lead_rows(field, f.coeffs, a)
        assert [r[:3] for r in rows] == [(None if k is None else Fraction(k, got[0]), t, cap)
                                         for k, t, cap in got[1]]
        assert rows[0] == (None, type(None), None, type(None), None) and len(sparse) == 1


def test_an_exact_zero_row_at_a_sparse_center_is_read_sparse(monkeypatch):
    # f = (X - a) g at a = t + t^2000: C_0 = f(a) is exactly 0, and the full span of the
    # rows is 2000 deg f slots; the window stops once it is far wider than the terms, and
    # the row is read off a sparse evaluation of f at a.  Capped rows over a sparse span
    # keep the window too
    slots, real = [], polyx._least_key

    def counting(v, b, p, lo, cap):
        slots.append(v.bit_length() // b + 1)
        return real(v, b, p, lo, cap)

    monkeypatch.setattr(polyx, "_least_key", counting)
    for field in (QQ, GF(3)):
        rng = random.Random(45)
        a, ak = PuiseuxSeries.from_terms(field, {1: 1, 2000: 1}), RatFunc.t_power(field, 2000)
        g = [series_with_keys(field, rng, 1, range(rng.randint(0, 3), 9), False) for _ in range(8)]
        cases = [PolyX.from_series(field, [-a, PuiseuxSeries.one(field)]) * PolyX(field, g),
                 PolyX(field, [-(RatFunc.t_power(field, 1) + ak), RatFunc.one(field)])
                 * random_kt_poly(field, rng, 7)]
        for f in cases:
            slots.clear()
            got = profile(PolyX.recentered_values, f, a)
            assert got == profile(ref_profile, f, a), (field, f.domain)
            assert got[1][0] == (None, type(None), None)
            assert sum(k is not None for k, _, _ in got[1]) == f.degree()
            terms = sum(len(c.coeffs) for c in f.to_series().coeffs)
            assert slots and max(slots) <= 4 * (f.degree() + 1) * len(a.coeffs) * terms, \
                (field, f.domain, max(slots, default=None))
        # capped rows over a sparse span keep the window: t^(1/3) + t^(10^6) known to
        # O(t^(10^6 + 1)) caps every row near 3 (10^6 + 1) n slots, read from the lead key
        a = PuiseuxSeries.from_terms(field, {Fraction(1, 3): 1, 10**6: 1}, 10**6 + 1)
        f = random_kt_poly(field, rng, 7)
        slots.clear()
        got = profile(PolyX.recentered_values, f, a)
        assert got == profile(ref_profile, f, a) and got[0] == 3
        assert any(cap is not None for _, _, cap in got[1])
        terms = sum(len(c.coeffs) for c in f.to_series().coeffs)
        assert slots and max(slots) <= 4 * (f.degree() + 1) * len(a.coeffs) * terms, \
            (field, max(slots, default=None))


# -- the center p/q of K --------------------------------------------------------
#
# An element a = p/q of K with a pole, and its expansion a.to_series(), which
# keeps a as its source, are shifted by p after the M_j are multiplied by
# q^(n-j).  The references are the exact Hasse sum over K at a (ref_profile)
# and the same expansion with its source removed, the truncated center the
# packed shift read before.  Profiles, with the types of their caps, or the
# exception class and message must match.

def random_pq_center(field, rng):
    """alpha/beta with a pole: beta of degree 1-3, with beta(0) = 0 a third of
    the time; small scalars, so that the exact Hasse sum stays cheap."""
    zero = field.zero()
    while True:
        beta = [zero] * rng.choice((0, 0, 0, 0, 1, 2)) + [
            small_scalar(field, rng) for _ in range(rng.randint(1, 3))] + [field.one()]
        alpha = [zero] * rng.choice((0, 0, 1, 2)) + [
            small_scalar(field, rng) for _ in range(rng.randint(1, 4))]
        if any(alpha):
            a = RatFunc(field, alpha, beta)
            if len(a.den) > 1:
                return a


def without_source(s):
    out = PuiseuxSeries(s.field, s.ram, dict(s.coeffs), s.prec)
    assert out == s and out.source is None
    return out


def random_pq_case(field, rng):
    """(a, f): f of X-degree 0-8 over K, with a pole every third time, and a
    root at a (f = (X - a) g) every fourth."""
    a = random_pq_center(field, rng)
    draw = random_pole_kt_poly if rng.random() < 0.35 else random_kt_poly
    if rng.random() < 0.25:
        g = draw(field, rng, rng.randint(0, 7))
        return a, PolyX.from_ratfuncs(field, [-a, RatFunc.one(field)]) * g
    return a, draw(field, rng, rng.randint(0, 8))


def test_pq_center_matches_the_truncated_center_and_the_exact_sum():
    rng = random.Random(27)
    seen = {"raised": 0, "leading refusals": 0, "exact zero rows": 0, "undecided rows": 0,
            "pole rows": 0, "pole at 0": 0, "unknown-zero centers": 0, "exact sums": 0}
    for i in range(450):
        field = FIELDS[i % len(FIELDS)]
        a, f = random_pq_case(field, rng)
        expansion = a.to_series() if rng.random() < 0.7 else a.to_series(rng.randint(-2, 12))
        assert expansion.source is a
        got = profile(PolyX.recentered_values, f, expansion)
        assert got == profile(PolyX.recentered_values, f, without_source(expansion)), (i, f, a)
        exact = profile(PolyX.recentered_values, f, a)
        assert exact[0] != "raised" and all(cap is None for _, _, cap in exact[1])
        if f.degree() <= (5 if field.char else 3):  # the Hasse sum runs a gcd per term
            assert exact == profile(ref_profile, f, a), (i, f, a)
            seen["exact sums"] += 1
        seen["exact zero rows"] += sum(1 for k, _, _ in exact[1] if k is None)
        seen["pole at 0"] += a.den[0] == 0
        seen["unknown-zero centers"] += expansion.is_unknown_zero()
        if got[0] == "raised":
            seen["raised"] += 1
            seen["leading refusals"] += got[1:] == (PrecisionExhausted, polyx.LEAD_UNDECIDED)
            continue
        seen["pole rows"] += sum(len(c.den) > 1 for c in f.coeffs)
        seen["undecided rows"] += sum(1 for k, t, _ in got[1] if k is None and t is Fraction)
    assert min(seen.values()) >= 20, seen


def old_over_lcm(field, coeffs):
    """polyx._over_lcm before it moved to integers: the lcm and its cofactors
    divided out on field scalars, then lowered to integers at one scale."""
    from itertools import islice
    from fraction_ratfunc import tp_divmod, tp_gcd, tp_mul
    one = field.one()
    dens = sorted({tuple(c.den) for c in coeffs if len(c.den) > 1}, key=len, reverse=True)
    L, cofactor = list(dens[0]), {dens[0]: [one]}
    for d in map(list, dens[1:]):
        q, r = tp_divmod(field, L, d)
        if r:
            g = tp_gcd(field, L, d)
            grow = tp_divmod(field, d, g)[0]
            L, q = tp_mul(field, L, grow), tp_divmod(field, L, g)[0]
            cofactor = {k: tp_mul(field, v, grow) for k, v in cofactor.items()}
        cofactor[tuple(d)] = q
    cofactor[(one,)] = L
    ys, _ = field.as_integers([y for v in cofactor.values() for y in v])
    ys = iter(ys)
    ys = {k: list(islice(ys, len(v))) for k, v in cofactor.items()}
    return [ys[tuple(c.den)] for c in coeffs], L


def test_integer_lcm_gives_the_profiles_of_the_scalar_lcm(monkeypatch):
    rng = random.Random(28)
    cases, grown = [], 0
    for i in range(400):
        field = FIELDS[i % len(FIELDS)]
        f = random_pole_kt_poly(field, rng, rng.randint(1, 8))
        if all(len(c.den) == 1 for c in f.coeffs):
            continue
        a = random_kt_center(field, rng, rng.choice(("exact", "capped", "negative")))[0]
        if rng.random() < 0.3:
            a = random_pq_center(field, rng)
        cases.append((f, a))
        L, want_L = polyx._over_lcm(field, f.coeffs)[1], old_over_lcm(field, f.coeffs)[1]
        assert len(L) == len(want_L) and series.tp_ord(L) == series.tp_ord(want_L)
        grown += len({tuple(c.den) for c in f.coeffs if len(c.den) > 1}) > 1 and \
            len(L) > max(len(c.den) for c in f.coeffs)
    got = [profile(PolyX.recentered_values, f, a) for f, a in cases]
    monkeypatch.setattr(polyx, "_over_lcm", old_over_lcm)
    assert got == [profile(PolyX.recentered_values, f, a) for f, a in cases]
    assert len(cases) >= 200 and grown >= 30, (len(cases), grown)


# -- integer coefficients against the Fraction-stored RatFunc -------------------
#
# The reference (tests/fraction_ratfunc.py) is RatFunc as it was stored before:
# field scalars, normalised by the scalar gcd.  Products, Q-adic digits, value
# profiles and the lcm of the denominators must come out as they do along that
# route, values and scalar types alike.

def fraction_twin(f):
    return PolyX(f.field, [FractionRatFunc(f.field, c.num, c.den) for c in f.coeffs])


def coefficient_views(f):
    return [([(type(x), x) for x in c.num], [(type(x), x) for x in c.den]) for c in f.coeffs]


def fraction_profile(f, a):
    """recentered_values along the Fraction route: the exact Hasse sum at a in K, the
    series stage on the Fraction expansions at a series a."""
    field, cs = f.field, fraction_twin(f).coeffs
    if isinstance(a, PuiseuxSeries):
        return shifted_values(field, PolyX(field, [c.to_series(a.prec) for c in cs]).coeffs, a)
    a, n = FractionRatFunc(field, a.num, a.den), len(cs) - 1
    powers = [FractionRatFunc.one(field)]
    for _ in range(n):
        powers.append(powers[-1] * a)
    rows = []
    for i in range(n + 1):
        acc = cs[i]
        for j in range(i + 1, n + 1):
            acc = acc + cs[j] * powers[j - i] * FractionRatFunc(field, [math.comb(j, i)])
        rows.append((None if acc.is_zero() else int(acc.val().q), None))
    return 1, rows


def test_integer_coefficients_give_the_results_of_the_fraction_route():
    rng = random.Random(32)
    kinds = ("exact", "capped", "negative", "inverse", "ratfunc", "root", "pq")
    seen = {"kronecker": 0, "pole products": 0, "pole digits": 0, "pole rows": 0,
            "K centers": 0, "series centers": 0, "grown lcm": 0, "raised": 0, "roots": 0}
    for i in range(350):
        field = FIELDS[i % len(FIELDS)]
        f = (random_pole_kt_poly if i % 2 else random_kt_poly)(field, rng, rng.randint(0, 5))
        g = random_kx_operand(field, rng, poles=rng.random() < 0.3)
        ff, fg = fraction_twin(f), fraction_twin(g)
        want = [FractionRatFunc.zero(field)] * (len(f.coeffs) + len(g.coeffs) - 1)
        for j, x in enumerate(ff.coeffs):
            for k, y in enumerate(fg.coeffs):
                want[j + k] = want[j + k] + x * y
        assert coefficient_views(f * g) == coefficient_views(PolyX(field, want)), i
        pole = not all(c.is_polynomial() for c in f.coeffs + g.coeffs)
        seen["pole products" if pole else "kronecker"] += 1
        Q = PolyX.from_ratfuncs(field, g.coeffs + [RatFunc.one(field)])
        got = [coefficient_views(d) for d in f.qadic_expand(Q)]
        assert got == [coefficient_views(d) for d in ff.qadic_expand(fraction_twin(Q))], i
        seen["pole digits"] += pole
        kind = kinds[i % len(kinds)]
        a, factor = (random_pq_center(field, rng), None) if kind == "pq" else \
            random_kt_center(field, rng, kind)
        if factor is not None:  # a root at a: v f(a) is read off images of one scale
            f = factor * f
            ff, s = fraction_twin(f), a.to_series() if isinstance(a, RatFunc) else a
            want = outcome(lambda: PolyX(field, [c.to_series(s.prec) for c in ff.coeffs]
                                         ).evaluate(s).val())
            assert outcome(f.value_at, s) == want, (i, f, a)
            seen["roots"] += 1
        if kind == "pq" and i % 2:  # rational scalars, a non-monic denominator, a root at a
            a = RatFunc.one(field)
            while a.is_polynomial():
                a = RatFunc(field, *([nonzero_scalar(field, rng) if field.char else
                                      Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 3)))
                                      for _ in range(rng.randint(1, 3))] for _ in range(2)))
            f = PolyX.from_ratfuncs(field, [-a, RatFunc.one(field)]) * f
            ff = fraction_twin(f)
        got = profile(PolyX.recentered_values, f, a)
        assert got == profile(fraction_profile, f, a), (i, kind, f, a)
        seen["raised"] += got[0] == "raised"
        seen["K centers" if isinstance(a, RatFunc) else "series centers"] += 1
        if all(c.is_polynomial() for c in f.coeffs):
            continue
        seen["pole rows"] += sum(not c.is_polynomial() for c in f.coeffs)
        cofs, L = polyx._over_lcm(field, f.coeffs)
        old_cofs, old_L = old_over_lcm(field, ff.coeffs)
        assert len(L) == len(old_L) and series.tp_ord(L) == series.tp_ord(old_L)
        # the cofactors agree up to one scale for all of them: x * y0 == y * x0
        x0, y0 = cofs[-1][-1], old_cofs[-1][-1]
        for c, old in zip(cofs, old_cofs):
            assert len(c) == len(old), i
            assert all(field.mul(x, y0) == field.mul(y, x0) for x, y in zip(c, old)), i
        seen["grown lcm"] += len(L) > max(len(c.den) for c in f.coeffs)
    assert min(seen.values()) >= 5, seen


def test_ratfunc_hot_paths_lower_no_scalar(monkeypatch):
    # stored elements are read as integers: no image is built from scalars and
    # none is lowered back, on the paths that replaced those round trips
    rng = random.Random(33)
    cases = []
    for i in range(60):
        field = FIELDS[i % len(FIELDS)]
        f = (random_pole_kt_poly if i % 2 else random_kt_poly)(field, rng, rng.randint(1, 5))
        g = random_kx_operand(field, rng, poles=i % 3 == 0)
        a = random_pq_center(field, rng) if i % 4 == 0 else random_ratfunc(field, rng, deg=4)
        cases.append((f, g, a, random_ratfunc(field, rng, poles=i % 2 == 0)))
    def read(f, g, a, r):
        # an expansion is lowered to scalars, a polynomial is not
        images = None if any(not c.is_polynomial() for c in f.coeffs) else f.horner_images(None)[1]
        return f * g, profile(PolyX.recentered_values, f, a), f.coeffs[-1] / r + r * r - a, images

    want = [read(*case) for case in cases]
    assert sum(w[-1] is not None for w in want) >= 20

    def fail(*args):
        raise AssertionError("a RatFunc went through field scalars")

    monkeypatch.setattr(BaseField, "as_integers", fail)
    monkeypatch.setattr(BaseField, "from_integer", fail)
    assert want == [read(*case) for case in cases]


def test_pq_center_takes_one_window_pass_and_no_series_stage(monkeypatch):
    # eval_spec and delta at a spec built from an element of K with a pole read
    # p/q off the expansion in one pass of the packed shift (each live row read
    # once), the only recentering stage; at the truncated center too wherever the
    # sparse guard calls the span dense
    rng = random.Random(29)
    cases = []
    for i in range(60):
        field = FIELDS[i % len(FIELDS)]
        a, f = random_pq_case(field, rng)
        if f.degree() < 1:
            continue
        spec = ValuationSpec.monomial(a, GroupVal.fin(Fraction(rng.randint(1, 8), 2)))
        assert spec.center.source is a
        cases.append((spec, f))
    want = [(outcome(eval_spec, spec, f), outcome(delta, spec, f)) for spec, f in cases]
    real_values, real_key, real_sparse = polyx._packed_values, polyx._least_key, polyx._sparse
    reads, sparse = [], []

    def counting(field, coeffs, a):
        reads.append(0)
        sparse.append(None)
        out = real_values(field, coeffs, a)
        n = len(coeffs) - 1
        live = sum(1 for row in polyx._hasse_binomials(field, n)
                   if any(not coeffs[j].is_exact_zero() for j, _ in row))
        reads[-1] -= live
        return out

    def key(*args):
        reads[-1] += 1
        return real_key(*args)

    def guard(*args):
        sparse[-1] = real_sparse(*args)
        return sparse[-1]

    monkeypatch.setattr(polyx, "_packed_values", counting)
    monkeypatch.setattr(polyx, "_least_key", key)
    monkeypatch.setattr(polyx, "_sparse", guard)
    assert [(outcome(eval_spec, spec, f), outcome(delta, spec, f)) for spec, f in cases] == want
    shifted = [r for r in reads if r >= 0]  # calls that got past the early returns
    assert len(shifted) >= 60 and not any(shifted), reads
    assert sum(v[0] != "raised" for pair in want for v in pair) >= 30
    # the truncated center, read before, whose capped rows once doubled the window
    # from the lead key: a span the guard calls dense is read in one pass too
    for value in (eval_spec, delta):
        reads.clear()
        sparse.clear()
        for spec, f in cases:
            outcome(value, ValuationSpec.monomial(without_source(spec.center), spec.gamma), f)
        dense = [r for r, s in zip(reads, sparse) if s is False]
        assert len(dense) >= 40 and not any(dense), (value, reads, sparse)


# -- the center plan ---------------------------------------------------------------
#
# What depends on the center alone (its integer images, key range, value and p/q
# scale) is built once per series and kept in its plan slot, and per call for an
# element of K.  The reference is the packed shift that rebuilt all of it on every
# call (tests/packed_reference.py): profiles, with the types of their caps, or the
# exception class and message must match, with every center object reused.

def random_plan_center(field, rng, kind):
    """(a, factor) as random_kt_center gives them, and p/q centers with a pole and
    their expansions, exact or capped, with X - a for a root half the time; and the
    centers of perfbench's exact-eval, 1 + t, 1/(1 + t) and (1 + t + t^2)/(1 + t), in K
    or expanded to O(t^64), as a monomial spec keeps them."""
    if kind == "exact-eval":
        a = RatFunc(field, *rng.choice((([1, 1], [1]), ([1], [1, 1]), ([1, 1, 1], [1, 1]))))
        return rng.choice((a, a.to_series())), None
    if kind not in ("pq", "pq expansion"):
        return random_kt_center(field, rng, kind)
    a = random_pq_center(field, rng)
    factor = PolyX.from_ratfuncs(field, [-a, RatFunc.one(field)]) if rng.random() < 0.5 else None
    if kind == "pq expansion":  # capped at or below v(a) a third of the time: an unknown zero
        a = rng.choice((a.to_series(), a.to_series(rng.randint(-2, 12)),
                        a.to_series(a.val().q - rng.randint(0, 2))))
    return a, factor


def test_least_key_reads_no_slot_at_or_above_the_cap(monkeypatch):
    # a row v = sum s_i 2^(b i): zero slots, then nonzero slots that p divides, then one
    # that it does not, at h; the key cap cap - lo below, at and above the first nonzero
    # slot and h.  Over Q the least nonzero slot is read off the trailing zeros, over F_p
    # the slots from it on are read in bulk, none of them at or above the cap
    rng, reads, real = random.Random(62), [], polyx._unpack
    monkeypatch.setattr(polyx, "_unpack", lambda v, b, n, signed=True: reads.append(n) or
                        real(v, b, n, signed))
    seen = {"none": 0, "key": 0, "read": 0}
    for i in range(400):
        p = (0, 2, 3, 7, 251)[i % 5]
        b, lo = 8 * rng.randint(1 if p < 128 else 2, 10), rng.randint(-5, 5)
        first, h = rng.randint(0, 6), rng.randint(0, 12)
        top = (1 << b - 1) - 1
        slots = [0] * first + [rng.randint(1, top // max(p, 1)) * max(p, 1) for _ in range(h)] + [
            rng.randint(1, top) if not p else rng.randrange(1, p) + p * rng.randint(0, top // p)]
        slots += [rng.randint(0, top) for _ in range(rng.randint(0, 8))]
        v = sum(x << b * i for i, x in enumerate(slots))
        key = first + (h if p else 0)  # the least slot nonzero (mod p)
        for cap in (lo + first - 1, lo + first, lo + first + 1, lo + key, lo + key + 1, math.inf):
            reads.clear()
            got = polyx._least_key(v, b, p, lo, cap)
            assert got == (lo + key if lo + key < cap else None), (p, b, lo, slots, cap)
            assert all(first + n <= cap - lo for n in reads) and (p or not reads), (cap, reads)
            seen["none" if got is None else "key"] += 1
            seen["read"] += bool(reads)
    assert min(seen.values()) >= 100, seen


def deep_kt_poly(field, rng, a):
    """Shaped like exact-eval's inputs at its center a = p/q in K: X-degree n = 6-8, a pole
    denominator D of degree 2 with D(0) != 0, and t-orders 52-78, about the cap 64 of a's
    expansion, with a few shallow ones: sum_i c_i (X - a)^i / D with ord c_i drawn there, or
    (X - a - r_1)...(X - a - r_n) / D with ord r_j drawn there, r_1 = 0 now and then (a root
    at a), each built as (1 / D q^n) times a product of polynomials in t and X.  Over F_p
    C_0's row then has many nonzero slots, but none nonzero mod p, below the cap 64."""
    if isinstance(a, PuiseuxSeries):  # the spec's expansion: a itself, or 1 + t
        a = a.source or RatFunc(field, [a.coeff_at(k) for k in range(max(a.coeffs) + 1)])
    n, (p, q) = rng.randint(6, 8), (RatFunc(field, a.num), RatFunc(field, a.den))
    nz = lambda: rng.randrange(1, field.char) if field.char else rng.choice((1, -1, 2, -3))
    den = RatFunc(field, [nz(), small_scalar(field, rng), 1])
    unit = lambda: RatFunc(field, [0] * (rng.randint(52, 78) if rng.random() < 0.8 else
                                         rng.randint(0, 12)) + [nz(), 1])
    qx = PolyX.from_ratfuncs(field, [-p, q])  # q (X - a)
    if rng.random() < 0.5:  # sum_i c_i q^(n-i) (q (X - a))^i
        g, power = PolyX.zero(field), PolyX.x_power(field, 0)
        for i in range(n + 1):
            g, power = g + power.scale(unit() * q ** (n - i)), power * qx
    else:
        g = PolyX.x_power(field, 0)
        for j in range(n):  # q (X - a - r_j)
            r = RatFunc.zero(field) if j == 0 and rng.random() < 0.3 else unit()
            g = g * (qx - PolyX.from_ratfuncs(field, [q * r]))
    return g.scale(RatFunc.one(field) / (den * q ** n))


def test_center_plan_gives_the_profiles_of_the_per_call_shift():
    rng = random.Random(41)
    kinds = ("exact", "capped", "zero", "unknown zero", "negative", "inverse", "ratfunc",
             "root", "pq", "pq expansion", "exact-eval")
    seen = {"raised": 0, "leading refusals": 0, "mismatches": 0, "exact zero rows": 0,
            "capped rows": 0, "undecided rows": 0, "pole rows": 0, "roots": 0,
            "e = 2": 0, "e = 3": 0, "e = 6": 0, "K centers": 0, "expansions": 0,
            "deep inputs": 0, "F_p profiles undecided at 64": 0}
    cases = 0
    for i in range(110):
        field = FIELDS[i % len(FIELDS)]
        kind = kinds[i // len(FIELDS) % len(kinds)]
        a, factor = random_plan_center(field, rng, kind)
        for j in range(20):  # one center object for every f
            draw = random_pole_kt_poly if j % 3 == 0 else random_kt_poly
            f = draw(field, rng, rng.randint(0, 8))
            if kind == "exact-eval" and j % 4 == 1:
                f = deep_kt_poly(field, rng, a)
                seen["deep inputs"] += 1
            if factor is not None and j % 2:
                f = factor * draw(field, rng, rng.randint(0, 8 - factor.degree()))
                seen["roots"] += 1
            if j == 19 and i % 4 == 0:  # the plan of a center from another field
                f = random_kt_poly(FIELDS[(i + 1) % len(FIELDS)], rng, 2)
                seen["mismatches"] += 1
            got = profile(PolyX.recentered_values, f, a)
            assert got == profile(lambda f, a: old_packed_values(f.field, f.coeffs, a), f, a), \
                (i, j, kind, f, a)
            cases += 1
            if got[0] == "raised":
                seen["raised"] += 1
                seen["leading refusals"] += got[1:] == (PrecisionExhausted, polyx.LEAD_UNDECIDED)
                continue
            seen[f"e = {got[0]}"] = seen.get(f"e = {got[0]}", 0) + 1
            seen["pole rows"] += sum(len(c.den) > 1 for c in f.coeffs)
            seen["exact zero rows"] += sum(1 for k, t, _ in got[1] if k is None and t is type(None))
            seen["capped rows"] += sum(1 for k, t, _ in got[1] if k is not None and t is Fraction)
            seen["undecided rows"] += sum(1 for k, t, _ in got[1] if k is None and t is Fraction)
            seen["K centers"] += isinstance(a, RatFunc)
            seen["expansions"] += isinstance(a, PuiseuxSeries) and a.source is not None
            seen["F_p profiles undecided at 64"] += field.char > 0 and got[1].count(
                (None, Fraction, Fraction(64))) > 0
    assert cases >= 2000
    assert min(seen.values()) >= 20, seen


def test_a_center_maps_its_scalars_once(monkeypatch):
    # 200 eval_spec calls under one monomial spec map the center's scalars to
    # integers once; the polynomials over K bring their own integers
    rng = random.Random(42)
    centers = [PuiseuxSeries.from_text(QQ, "t^(1/2)"),
               PuiseuxSeries.from_text(QQ, "1/2 + 3*t + t^2 - 5/3*t^3 + 7*t^4 + O(t^6)")]
    for a in centers:
        spec = ValuationSpec.monomial(a, GroupVal.fin(Fraction(3, 2)))
        polys = [random_kt_poly(QQ, rng, rng.randint(1, 4)) for _ in range(200)]
        calls, real = [], BaseField.as_integers

        def counting(field, scalars):
            calls.append(field)
            return real(field, scalars)

        monkeypatch.setattr(BaseField, "as_integers", counting)
        values = [eval_spec(spec, f) for f in polys]
        monkeypatch.setattr(BaseField, "as_integers", real)
        assert len(calls) == 1, len(calls)
        assert polyx._shift_plan(spec.center) is polyx._shift_plan(spec.center)  # kept, not rebuilt
        assert values == [eval_spec(ValuationSpec.monomial(without_source(a), spec.gamma), f)
                          for f in polys]


def test_values_along_reads_the_images_each_element_keeps(monkeypatch):
    # values_along gives the values of the series Horner evaluations at the elements,
    # and maps an element's scalars once, into its plan, for every f it values
    rng = random.Random(43)
    for gen in (artin_schreier_generator(3), exponential_generator(),
                mixed_radix_generator(2, 3, 8)):
        polys = [random_kt_poly(gen.field, rng, rng.randint(1, 4)) for _ in range(6)]
        want = []
        for f in polys:
            want.append([])
            for a in gen.elements():
                try:
                    want[-1].append(f.evaluate(a).val())
                except PrecisionExhausted:
                    break
        calls, real = [], BaseField.as_integers
        monkeypatch.setattr(BaseField, "as_integers",
                            lambda field, scalars: calls.append(field) or real(field, scalars))
        got = [values_along(f, gen)[0] for f in polys]
        monkeypatch.setattr(BaseField, "as_integers", real)
        assert got == want
        assert 0 < len(calls) <= len(gen.elements()), len(calls)


# -- products, embeddings and center powers built once ------------------------
#
# The references are the code the fast paths replaced: the schoolbook product
# through RatFunc + and *, and the normalising PuiseuxSeries constructor.

def ref_product(f, g):
    out = [RatFunc.zero(f.field)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, x in enumerate(f.coeffs):
        for j, y in enumerate(g.coeffs):
            out[i + j] = out[i + j] + x * y
    return PolyX(f.field, out)


def random_kx_operand(field, rng, poles):
    """X-degree 0-4, t-degree 0-6, exact zeros between nonzero coefficients."""
    deg = rng.randint(0, 4)
    coeffs = []
    for i in range(deg + 1):
        if 0 < i < deg and rng.random() < 0.25:
            coeffs.append(RatFunc.zero(field))
            continue
        num = [nonzero_scalar(field, rng) if rng.random() < 0.7 else field.zero()
               for _ in range(rng.randint(0, 6))] + [nonzero_scalar(field, rng)]
        den = [field.one()]
        if poles and rng.random() < 0.5:
            den = [nonzero_scalar(field, rng), field.one()]
        coeffs.append(RatFunc(field, num, den))
    return PolyX.from_ratfuncs(field, coeffs)


def test_kx_product_matches_the_schoolbook_loop():
    rng = random.Random(21)
    paths = {"kronecker": 0, "with a pole": 0}
    for i in range(550):
        field = FIELDS[i % len(FIELDS)]
        poles = i % 7 == 0
        f, g = random_kx_operand(field, rng, poles), random_kx_operand(field, rng, False)
        got, want = f * g, ref_product(f, g)
        assert [(c.num, c.den) for c in got.coeffs] == [(c.num, c.den) for c in want.coeffs], i
        assert ([type(x) for c in got.coeffs for x in c.num + c.den]
                == [type(x) for c in want.coeffs for x in c.num + c.den]), i
        assert g * f == got
        paths["with a pole" if any(len(c.den) > 1 for c in f.coeffs) else "kronecker"] += 1
    assert min(paths.values()) >= 30, paths


def test_polynomial_embedding_matches_the_normalising_constructor():
    rng = random.Random(22)
    for i in range(2000):
        field = FIELDS[i % len(FIELDS)]
        r = random_ratfunc(field, rng, deg=rng.randint(0, 8))
        if rng.random() < 0.3:  # exact zeros below the top, and the zero element
            r = RatFunc(field, [x if rng.random() < 0.5 else field.zero()
                                for x in r.num[:-1]] + r.num[-1:])
        if i % 100 == 0:
            r = RatFunc.zero(field)
        got = r.to_series()
        want = PuiseuxSeries(field, 1, dict(enumerate(r.num)), None)
        assert (got.ram, got.prec, list(got.coeffs.items())) == \
            (want.ram, want.prec, list(want.coeffs.items())), i
        assert [type(x) for x in got.coeffs.values()] == [type(x) for x in want.coeffs.values()]


# -- v f(a) off integer Horner images ----------------------------------------------
#
# values_along, attach_minpoly and conjugacy_check read v f(a) with
# PolyX.value_at instead of building f(a) by series Horner.  The reference is
# the built series' own reader, evaluate(a).val(): the value with the types of
# its parts, or the exception class and message, must match.

def series_value_poly(field, rng, deg):
    """Series coefficients: exact and unknown zeros, exact and capped ones at ram
    1, 2, 3 and 6; a decidably nonzero lead, exact or capped."""
    k, ram = rng.randint(-3, 3), rng.choice((1, 2, 3, 6))
    lead = PuiseuxSeries(field, ram, {k: nonzero_scalar(field, rng)},
                         rng.choice((None, Fraction(k + rng.randint(1, 9), ram))))
    return PolyX.from_series(field, [random_coefficient(field, rng) for _ in range(deg)] + [lead])


def generator_points():
    gens = [artin_schreier_generator(2), artin_schreier_generator(3), artin_schreier_generator(7),
            exponential_generator(), mixed_radix_generator(2, 3, 8), mixed_radix_generator(3, 5, 6)]
    return [(gen.field, a) for gen in gens for a in gen.elements()]


def test_value_at_matches_the_value_of_the_built_series():
    rng = random.Random(31)
    fields = [QQ, F2, GF(3), GF(7)]
    kinds = ("one term", "dense", "negative", "unknown zero", "pole", "exact zero")
    draws = (random_kt_poly, random_pole_kt_poly, series_value_poly, series_value_poly)
    seen = {"raised": 0, "exact zero": 0, "capped point": 0, "exact point": 0, "ram > 1": 0}
    for i in range(1400):
        field, kind = fields[i % 4], kinds[i // 4 % len(kinds)]
        if kind == "exact zero":
            a = PuiseuxSeries.zero(field)
        else:
            a = random_center(field, rng, kind).to_series()  # a pole: its O(t^64) expansion
            if kind != "pole" and rng.random() < 0.4:
                a = PuiseuxSeries(field, a.ram, a.coeffs, None)
        f = draws[i % len(draws)](field, rng, rng.randint(0, 6))
        if rng.random() < 0.15 and a.coeffs and f.domain == SERIES:  # a planted root
            f = f * PolyX.from_series(field, [-a, PuiseuxSeries.one(field)])
        if rng.random() < 0.02:
            a = random_center(fields[(i + 1) % 4], rng, "dense")  # field mismatch
        got = outcome(f.value_at, a)
        assert got == outcome(lambda: f.evaluate(a).val()), (i, kind, f, a)
        seen["raised" if got[0] == "raised" else "exact zero" if got[0] else
             "capped point" if a.prec is not None else "exact point"] += 1
        seen["ram > 1"] += a.ram > 1
    assert min(seen.values()) >= 50, seen


def test_value_at_matches_on_generator_elements_and_cancellation_mod_p():
    rng = random.Random(32)
    cases = []
    for field, a in generator_points():
        for draw in (random_kt_poly, random_pole_kt_poly, series_value_poly):
            cases.append((draw(field, rng, rng.randint(1, 4)), a))
        # a root at an element of the sequence: f(a) is 0, or its value is a gap sum
        cases.append((X_minus_series(field, {}) * PolyX.from_series(
            field, [-a, PuiseuxSeries.one(field)]), a))
    for p in (2, 3, 7):  # X^p - (1 + t)^p at 1 + t + t^k: integer sums that vanish mod p
        field = GF(p)
        f = PolyX.from_series(field, [-PuiseuxSeries.from_terms(field, {0: 1, 1: 1}) ** p]
                              + [PuiseuxSeries.zero(field)] * (p - 1) + [PuiseuxSeries.one(field)])
        for k in (2, 5):
            cases.append((f, PuiseuxSeries.from_terms(field, {0: 1, 1: 1, k: 1})))
    cases.append((polyx_from_text(QQ, "[1 + t]*X"), PuiseuxSeries.zero(QQ)))  # f(0) = c_0 = 0
    for f, a in cases:
        assert outcome(f.value_at, a) == outcome(lambda: f.evaluate(a).val()), (f, a)
    assert outcome(cases[-2][0].value_at, cases[-2][1])[4] == 5 * 7  # v((t^5)^7)


def test_value_at_reads_an_exact_root_at_a_sparse_point():
    # f = (X - a) g at a = t + t^500: f(a) is exactly 0 although its terms
    # reach t^4000; a one-key window finds no key, the pass to the cap none
    for field in (QQ, GF(3)):
        rng = random.Random(33)
        a = PuiseuxSeries.from_terms(field, {1: 1, 500: 1})
        g = PolyX.from_series(field, [series_with_keys(field, rng, 1, range(rng.randint(0, 3), 9),
                                                       False) for _ in range(8)])
        f = PolyX.from_series(field, [-a, PuiseuxSeries.one(field)]) * g
        assert f.value_at(a) == f.evaluate(a).val() == GroupVal.posinf()
        for k in (0, 7, 499, 4001):  # off the root by t^k: the value k
            h = f + PolyX.from_series(field, [PuiseuxSeries.t_power(field, k)])
            assert h.value_at(a) == h.evaluate(a).val() == GroupVal.fin(k)


def test_values_along_attach_minpoly_and_conjugacy_build_no_series(monkeypatch):
    rng = random.Random(34)
    gens = [artin_schreier_generator(2), artin_schreier_generator(3), exponential_generator(),
            mixed_radix_generator(2, 3, 8)]
    cases = [(gen, draw(gen.field, rng, rng.randint(1, 3)))
             for gen in gens for draw in (random_kt_poly, random_pole_kt_poly, series_value_poly)]
    cases += [(gen, PolyX.from_series(gen.field, [-gen.elements()[m], PuiseuxSeries.one(gen.field)]))
              for gen in gens for m in (2, gen.horizon - 1)]

    def along(gen, f):
        try:
            return values_along(f, gen)
        except Exception as exc:  # the exception itself is part of the outcome
            return ("raised", type(exc), str(exc))

    before = [along(gen, f) for gen, f in cases]
    for (gen, f), got in zip(cases, before):  # the values of the built f(a_m)
        assert got[0] == "raised" or got[0] == [f.evaluate(a).val()
                                                 for a in gen.elements()[:len(got[0])]]
    twisted = PuiseuxSeries.from_terms(GF(7), {Fraction(1, 3): 1, Fraction(4, 3): 2})
    minpoly = polyx_from_text(GF(7), "X^3 - t - 6*t^2 - 5*t^3 - t^4")  # (t^(1/3) + 2 t^(4/3))^3

    def refuse(*_):
        raise AssertionError("a series was built")

    monkeypatch.setattr(PuiseuxSeries, "__mul__", refuse)
    monkeypatch.setattr(PuiseuxSeries, "__add__", refuse)
    assert [along(gen, f) for gen, f in cases] == before
    assert sum(b[0] != "raised" for b in before) >= 15
    a = attach_minpoly(twisted, minpoly)
    assert conjugacy_check(a, GroupVal.fin(2), 1)["shared_minpoly"]
    with pytest.raises(NotARoot):
        attach_minpoly(twisted, polyx_from_text(GF(7), "X^3 - t"))
