import math
import random
from fractions import Fraction
from math import factorial

import pytest

from valwb.errors import (
    NegativeSupport,
    NegativeValuation,
    ParseError,
    PrecisionExhausted,
    RamifiedInput,
    WorkbenchError,
)
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb import sampling, series
from valwb.series import (
    DENSE_SIZE,
    PuiseuxSeries,
    RatFunc,
    _pack,
    _unpack,
    coerce,
    invert,
    is_dense,
    tp_trim,
    truncate_to_ratfunc,
)

from fraction_ratfunc import FractionRatFunc, fraction_coerce, tp_add, tp_divmod, tp_mul
import remainder_reference

F2 = GF(2)


def S(field, terms, prec=None):
    return PuiseuxSeries.from_terms(field, {Fraction(k): v for k, v in terms.items()},
                                    None if prec is None else Fraction(prec))


def test_val():
    assert S(QQ, {2: 1, 3: 1}, 10).val() == GroupVal.fin(2)
    assert S(QQ, {Fraction(1, 2): 1, 1: 1}, 5).val() == GroupVal.fin(Fraction(1, 2))
    with pytest.raises(PrecisionExhausted):
        PuiseuxSeries.unknown_zero(QQ, Fraction(8)).val()
    assert PuiseuxSeries.zero(QQ).val().is_inf


def test_mul_geometric_identity():
    a = S(QQ, {0: 1, 1: 1}, 3)
    b = S(QQ, {0: 1, 1: -1}, 3)
    p = a * b
    assert p.coeff_at(Fraction(0)) == 1 and p.coeff_at(Fraction(2)) == -1
    assert p.coeff_at(Fraction(1)) == QQ.zero()
    assert p.prec == Fraction(3)


def test_add_cancellation():
    a = S(QQ, {Fraction(1, 2): 1}, 2)
    b = S(QQ, {Fraction(1, 2): -1, 1: 1}, 2)
    s = a + b
    assert s.val() == GroupVal.fin(1)
    assert s.prec == Fraction(2)


def test_char2_tower_difference():
    a = S(F2, {1: 1, 2: 1, 4: 1, 8: 1}, 9)
    a1 = S(F2, {1: 1, 2: 1}, 9)
    d = a - a1
    assert d.support() == [Fraction(4), Fraction(8)]
    assert d.val() == GroupVal.fin(4)  # v(a - a_1) = p^2 for p = 2


def test_mul_precision_rule():
    # prec = min(p1 + v2, p2 + v1)
    a = S(QQ, {1: 1}, 5)
    b = S(QQ, {2: 1}, 7)
    assert (a * b).prec == Fraction(7)
    assert (a * b).val() == GroupVal.fin(3)


@pytest.mark.parametrize("field, a, b, want", [
    (QQ, {0: 1, 1: 1}, {0: 1, 1: -1}, {0: 1, 2: -1}),  # (1 + t)(1 - t): the t sum is 0
    (GF(3), {0: 1, 1: 1}, {0: 1, 1: 2}, {0: 1, 2: 2}),  # (1 + t)(1 + 2t): the t sum is 3
])
def test_mul_builds_no_scalar_for_a_cancelling_key(monkeypatch, field, a, b, want):
    built, real = [], field.from_integer

    def spy(n, d):
        built.append(n)
        return real(n, d)

    monkeypatch.setattr(field, "from_integer", spy)
    product = S(field, a) * S(field, b)
    assert product.coeffs == want and product.prec is None
    assert len(built) == len(want), built  # one scalar per key that survives


def test_invert():
    s = invert(S(QQ, {0: 1, 1: -1}, 4))
    assert [s.coeff_at(Fraction(n)) for n in range(4)] == [1, 1, 1, 1]
    m = invert(S(QQ, {1: 1}, 5))
    assert m.val() == GroupVal.fin(-1) and m.prec == Fraction(3)
    u = invert(S(QQ, {0: 2, 1: 1}, 3))
    assert [u.coeff_at(Fraction(n)) for n in range(3)] == \
        [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]
    # oracle: multiply back
    prod = S(QQ, {0: 2, 1: 1}, 3) * u
    assert prod.coeff_at(Fraction(0)) == 1
    assert all(prod.coeff_at(Fraction(n)) == QQ.zero() for n in (1, 2))


def test_coerce():
    r = RatFunc(QQ, [QQ.one()], [QQ.one(), QQ.coerce(-1)])  # 1/(1-t)
    s = coerce(r, Fraction(4))
    assert [s.coeff_at(Fraction(n)) for n in range(4)] == [1, 1, 1, 1]
    r2 = RatFunc(QQ, [0, 0, 1], [1, 1])  # t^2/(1+t)
    s2 = coerce(r2, Fraction(5))
    assert [s2.coeff_at(Fraction(n)) for n in range(2, 5)] == [1, -1, 1]
    assert coerce(RatFunc.zero(QQ), Fraction(5)).is_exact_zero()


def test_coerce_homomorphism_random():
    rng = random.Random(3)
    for _ in range(50):
        r1 = RatFunc(QQ, [rng.randint(-3, 3) for _ in range(3)] + [1],
                     [rng.randint(-2, 2), 1])
        r2 = RatFunc(QQ, [rng.randint(-3, 3) for _ in range(2)] + [1])
        p = Fraction(12)
        lhs = coerce(r1 * r2, p)
        rhs = coerce(r1, p) * coerce(r2, p)
        diff = lhs - rhs
        assert not diff.coeffs  # agree through the shared precision


def test_truncate_to_ratfunc():
    a = PuiseuxSeries.from_terms(
        QQ, {Fraction(n): Fraction(1, factorial(n)) for n in range(20)}, Fraction(20))
    r = truncate_to_ratfunc(a, Fraction(6))
    expect = [Fraction(1, factorial(n)) for n in range(6)]
    assert r.num == expect and r.den == [Fraction(1)]
    # v(s - result) >= cutoff
    d = a - r.to_series(Fraction(20))
    assert d.val() == GroupVal.fin(6)
    assert truncate_to_ratfunc(PuiseuxSeries.zero(QQ), Fraction(3)).is_zero()
    s = S(QQ, {1: 1, 4: 1}, 10)
    r2 = truncate_to_ratfunc(s, Fraction(4))
    assert r2 == RatFunc.t_power(QQ, 1)
    assert (s - r2.to_series(Fraction(10))).val() == GroupVal.fin(4)


def test_truncate_errors():
    with pytest.raises(RamifiedInput):
        truncate_to_ratfunc(PuiseuxSeries.t_power(QQ, Fraction(1, 2)), Fraction(2))
    with pytest.raises(NegativeSupport):
        truncate_to_ratfunc(PuiseuxSeries.t_power(QQ, -1), Fraction(2))
    with pytest.raises(PrecisionExhausted):
        truncate_to_ratfunc(S(QQ, {1: 1}, 3), Fraction(5))


def test_residue():
    assert S(QQ, {0: 3, 1: 1}, 2).residue() == 3
    assert S(QQ, {1: 1}, 2).residue() == QQ.zero()
    assert S(F2, {1: 1, 2: 1, 4: 1}, 9).residue() == F2.zero()
    with pytest.raises(NegativeValuation):
        S(QQ, {-1: 1}, 2).residue()


def test_val_laws_random():
    rng = random.Random(11)
    for _ in range(100):
        field = QQ if rng.random() < 0.5 else F2
        def draw():
            terms = {Fraction(rng.randint(0, 8), rng.choice((1, 2))):
                     rng.randint(1, 4) for _ in range(4)}
            return PuiseuxSeries.from_terms(field, terms, Fraction(20))
        a, b = draw(), draw()
        if not a.coeffs or not b.coeffs:
            continue
        assert (a * b).val() == a.val() + b.val()
        s = a + b
        if s.coeffs:
            assert s.val() >= min(a.val(), b.val())
            if a.val() != b.val():
                assert s.val() == min(a.val(), b.val())


def test_ram_normalization():
    s = PuiseuxSeries.from_terms(QQ, {Fraction(2, 4): 1})
    assert s.ram == 2
    t = PuiseuxSeries.from_terms(QQ, {Fraction(4, 2): 1})
    assert t.ram == 1


def test_from_terms_sums_keys_that_spell_one_exponent():
    s = PuiseuxSeries.from_terms(QQ, {"1/2": 1, Fraction(1, 2): 2, "2/4": 3, 1: 1})
    assert s == S(QQ, {Fraction(1, 2): 6, 1: 1})
    assert PuiseuxSeries.from_terms(F2, {"1/2": 1, Fraction(1, 2): 1}).is_exact_zero()


def test_text_round_trip():
    for s in (S(QQ, {Fraction(1, 2): Fraction(3, 2), 2: -1}, 7),
              PuiseuxSeries.zero(QQ),
              PuiseuxSeries.unknown_zero(QQ, Fraction(5)),
              S(F2, {1: 1, 4: 1}, None)):
        assert PuiseuxSeries.from_text(s.field, s.to_text()) == s


def test_ratfunc_round_trip_and_val():
    r = RatFunc.from_text(QQ, "(1 + t^2) / (1 + t)")
    assert r.val() == GroupVal.fin(0)
    assert RatFunc.from_text(QQ, r.to_text()) == r
    assert RatFunc.t_power(QQ, -2).val() == GroupVal.fin(-2)
    assert RatFunc.zero(QQ).val().is_inf


def test_text_exponents_are_read_up_to_the_dense_size_bound():
    # numerators and denominators of t-exponents and caps up to DENSE_SIZE are read as
    # written; one digit more is refused, a numeral too long for int() included
    assert DENSE_SIZE == 10**6
    s = PuiseuxSeries.from_text(QQ, "t^(1/1000000) + t^(-1000000/999999) + O(t^0001000000)")
    assert s.val() == GroupVal.fin(Fraction(-1000000, 999999)) and s.prec == 10**6
    assert RatFunc.from_text(QQ, "1 / t^1000000").val() == GroupVal.fin(-10**6)
    for text in ("t^1000001", "t^(-1000001)", "t^(1/1000001)", "t + O(t^1000001)",
                 "t + O(t^(1/1000001))", "t^" + "9" * 5000):
        with pytest.raises(ParseError, match="exceeds the dense-size bound 1000000"):
            PuiseuxSeries.from_text(QQ, text)
    with pytest.raises(ParseError, match="exceeds the dense-size bound"):
        RatFunc.from_text(QQ, "1 + t^1000001")


# -- kernels: integer lattice caps, shared scalars ---------------------------

CAPS = [Fraction(7, 2), Fraction(-5, 2), Fraction(-4, 3), Fraction(0), Fraction(11, 6),
        Fraction(5), Fraction(-7)]


def exponents(s):
    return {Fraction(n, s.ram): c for n, c in s.coeffs.items()}


def test_normalize_cap_matches_the_fraction_definition():
    for ram in (2, 3, 6):
        keys = range(-50, 50)
        for prec in CAPS:
            s = PuiseuxSeries(QQ, ram, {n: Fraction(n or 1) for n in keys}, prec)
            want = {Fraction(n, ram): Fraction(n or 1) for n in keys
                    if not Fraction(n, ram) >= prec}
            assert exponents(s) == want, (ram, prec)


def test_keys_at_the_integer_cap_are_dropped_and_the_key_below_kept():
    for ram in (2, 3, 6):
        for prec in CAPS:
            cap = math.ceil(prec * ram)
            s = PuiseuxSeries(QQ, ram, {cap - 1: Fraction(1), cap: Fraction(1)}, prec)
            assert exponents(s) == {Fraction(cap - 1, ram): 1}, (ram, prec)
    # the cap can sit exactly on a key: -5/2 on the lattice (1/2)Z
    s = PuiseuxSeries(QQ, 2, {-6: Fraction(1), -5: Fraction(1)}, Fraction(-5, 2))
    assert exponents(s) == {Fraction(-3): 1}


def test_mul_cap_matches_the_fraction_definition():
    rng = random.Random(11)
    for field in (QQ, GF(3)):
        for _ in range(200):
            r1, r2 = rng.choice((1, 2, 3, 6)), rng.choice((1, 2, 3, 6))
            t1 = {Fraction(rng.randint(-12, 30), r1): rng.randint(1, 2) for _ in range(6)}
            t2 = {Fraction(rng.randint(-12, 30), r2): rng.randint(1, 2) for _ in range(6)}
            p1, p2 = rng.choice(CAPS + [None]), rng.choice(CAPS + [None])
            a, b = S(field, t1, p1), S(field, t2, p2)
            if a.is_exact_zero() or b.is_exact_zero():
                continue
            prod = a * b
            v1, v2 = a.val_lower_bound(), b.val_lower_bound()
            bounds = [p + v for p, v in ((a.prec, v2), (b.prec, v1)) if p is not None]
            prec = min(bounds) if bounds else None
            assert prod.prec == prec
            want = {}
            for e1, c1 in exponents(a).items():
                for e2, c2 in exponents(b).items():
                    want[e1 + e2] = field.add(want.get(e1 + e2, field.zero()),
                                              field.mul(c1, c2))
            want = {e: c for e, c in want.items()
                    if not field.is_zero(c) and (prec is None or not e >= prec)}
            assert exponents(prod) == want


def test_is_zero_agrees_with_equality_to_zero():
    samples = [Fraction(0), Fraction(3, 4), Fraction(-1), 0, 1]
    for x in samples:
        assert QQ.is_zero(x) == (x == 0)
    for p in (2, 3, 7):
        field = GF(p)
        for x in range(p):
            assert field.is_zero(x) == (x == 0)
    assert QQ.zero() is QQ.zero() and GF(5).one() == 1


def test_coerce_rejects_floats():
    for field in (QQ, GF(5)):
        with pytest.raises(WorkbenchError):
            field.coerce(0.1)
        with pytest.raises(WorkbenchError):
            field.coerce(2.0)
    assert QQ.coerce("0.1") == Fraction(1, 10)
    assert GF(5).coerce(Fraction(1, 2)) == 3


def test_ratfunc_zero_is_canonical():
    for field in (QQ, F2):
        x = RatFunc(field, [field.one()], [field.one(), field.one()])  # 1/(1+t)
        d = x - x
        assert d == RatFunc.zero(field)
        assert hash(d) == hash(RatFunc.zero(field))
        assert d.to_text() == "0"


def test_ratfunc_scalars_are_canonical():
    F7 = GF(7)
    assert RatFunc(F7, [7, 1]).val() == GroupVal.fin(1)  # 7 is 0 in F_7: the element is t
    assert RatFunc(F7, [1], [7, 1]) == RatFunc.t_power(F7, -1)
    assert RatFunc(F7, [10]) == RatFunc(F7, [3]) == RatFunc.constant(F7, 3)
    assert RatFunc(F7, [Fraction(1, 2)]).num == [4]
    assert all(type(c) is Fraction for c in RatFunc(QQ, [1, 2], [3]).num)
    with pytest.raises(WorkbenchError, match="float"):
        RatFunc(QQ, [0.5, 1])
    with pytest.raises(WorkbenchError, match="float"):
        RatFunc(QQ, [1], [1, 0.5])


def old_random_scalar(field, rng, nonzero=False):
    """sampling.random_scalar as it was."""
    if field.char > 0:
        lo = 1 if nonzero else 0
        return rng.randrange(lo, field.char) % field.char
    num = rng.randint(-6, 6)
    if nonzero and num == 0:
        num = 1 + rng.randint(0, 5)
    return Fraction(num, rng.randint(1, 4))


def old_random_tpoly(field, rng, deg):
    """sampling.random_tpoly as it was: a list of field scalars."""
    coeffs = [old_random_scalar(field, rng) for _ in range(deg + 1)]
    coeffs[-1] = old_random_scalar(field, rng, nonzero=True)
    return coeffs


def ref_random_ratfunc(field, rng, deg=3, poles=False, nonzero=False):
    """random_ratfunc as it was, every draw through the normalizing constructor of the
    Fraction-stored RatFunc."""
    num = old_random_tpoly(field, rng, rng.randint(0, deg))
    if nonzero and all(field.is_zero(c) for c in num):
        num[0] = field.one()
    den = old_random_tpoly(field, rng, rng.randint(0, deg)) if poles else [field.one()]
    if all(field.is_zero(c) for c in den):
        den = [field.one()]
    return FractionRatFunc(field, num, den)


def test_random_ratfunc_draws_what_the_constructor_builds():
    shapes = random.Random(3)
    for i in range(2000):
        field = (QQ, F2, GF(3), GF(7))[i % 4]
        kw = {"deg": shapes.randint(0, 5), "poles": shapes.random() < 0.3}
        rng, ref_rng = random.Random(i), random.Random(i)
        got = sampling.random_ratfunc(field, rng, **kw)
        # the dropped nonzero flag changed nothing: random_tpoly's top term is nonzero
        want = ref_random_ratfunc(field, ref_rng, nonzero=shapes.random() < 0.5, **kw)
        assert (got.num, got.den) == (want.num, want.den), (i, kw)
        assert [type(c) for c in got.num + got.den] == [type(c) for c in want.num + want.den]
        assert rng.getstate() == ref_rng.getstate()  # the stream behind the golden bytes


def test_inverse_over_q_stays_exact_for_int_input():
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    r = RatFunc(QQ, [1], [1, 2])  # 1/(1 + 2t), made monic: (1/2) / (1/2 + t)
    assert all(type(c) is Fraction for c in r.num + r.den)
    assert r.den == [Fraction(1, 2), 1]


# -- dense kernels: Kronecker product and fraction-free coerce ---------------
#
# The references below are the pair loop and the Fraction long division the
# kernels replaced; every value, scalar type, ram, cap and exception of the
# kernels must match them.

FIELDS = [QQ, F2, GF(3), GF(7), GF(2**31 - 1)]


def ref_mul(a, b):
    a._check(b)
    f = a.field
    if a.is_exact_zero() or b.is_exact_zero():
        return PuiseuxSeries.zero(f)
    v1, v2 = a.val_lower_bound(), b.val_lower_bound()
    bounds = [p + v for p, v in ((a.prec, v2), (b.prec, v1)) if p is not None]
    prec = min(bounds) if bounds else None
    e = a.ram * b.ram // math.gcd(a.ram, b.ram)
    s1, s2 = e // a.ram, e // b.ram
    cap = math.inf if prec is None else math.ceil(prec * e)
    xs, d1 = f.as_integers(a.coeffs.values())
    ys, d2 = f.as_integers(b.coeffs.values())
    terms2 = [(n2 * s2, y) for n2, y in zip(b.coeffs, ys)]
    acc = {}
    for n1, x in zip(a.coeffs, xs):
        k1 = n1 * s1
        for k2, y in terms2:
            k = k1 + k2
            if k < cap:
                acc[k] = acc.get(k, 0) + x * y
    d = d1 * d2
    return PuiseuxSeries(f, e, {k: f.from_integer(v, d) for k, v in acc.items()}, prec)


ref_coerce = fraction_coerce  # the Fraction long division coerce replaced


def ref_tp_mul(field, a, b):
    xs, d1 = field.as_integers(a)
    ys, d2 = field.as_integers(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(xs):
        if not x:
            continue
        for j, y in enumerate(ys):
            out[i + j] += x * y
    out = [field.from_integer(v, d1 * d2) for v in out]
    while out and not out[-1]:
        out.pop()
    return out


def outcome(fn, *args):
    """Everything a caller can observe: values with their types, ram, cap."""
    try:
        s = fn(*args)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    if isinstance(s, list):
        return [(type(c), c) for c in s]
    return (s.ram, type(s.prec), s.prec,
            sorted((n, type(c), c) for n, c in s.coeffs.items()))


def random_scalar(field, rng):
    if field.char:
        return rng.randrange(1, field.char)
    big = rng.random() < 0.2  # numerators beyond 64 bits
    num = rng.randint(-2**90, 2**90) if big else rng.randint(-9, 9)
    return Fraction(num or 1, rng.choice((1, 1, 2, 3, 7, 12)))


def random_series(field, rng, ram=None):
    shape = rng.random()
    if shape < 0.05:
        return PuiseuxSeries.unknown_zero(field, Fraction(rng.randint(-8, 20), rng.choice((1, 2))))
    ram = ram or rng.choice((1, 2, 3, 6))
    lo = rng.randint(-15, 10)
    if shape < 0.15:
        keys = [lo]  # single term
    elif shape < 0.3:  # every coefficient of the largest size: slot sums reach their bound
        big = field.char - 1 if field.char else rng.choice((-1, 1)) * 2**rng.randint(0, 70)
        return PuiseuxSeries(field, ram, {n: field.coerce(big) for n in
                                          range(lo, lo + rng.randint(2, 140))}, None)
    elif shape < 0.7:
        keys = range(lo, lo + rng.randint(2, 100))  # dense
    else:
        keys = {rng.randint(lo, lo + 90) for _ in range(rng.randint(2, 12))}
    coeffs = {n: random_scalar(field, rng) for n in keys}
    if rng.random() < 0.3:
        prec = None
    else:  # often exactly on a key, so product keys land on the cap
        prec = Fraction(rng.choice(list(keys)) + rng.randint(0, 3), ram)
    return PuiseuxSeries(field, ram, coeffs, prec)


def test_mul_kernel_matches_the_pair_loop(monkeypatch):
    # series products take the pair loop on dense operands too: none packs them
    packed, real = [], series.convolve
    monkeypatch.setattr(series, "convolve", lambda *args: packed.append(args) or real(*args))
    rng = random.Random(6)
    dense = sparse = at_cap = 0
    for i in range(600):
        field = FIELDS[i % len(FIELDS)]
        ram = rng.choice((1, 2, 3, 6))
        a, b = random_series(field, rng, ram), random_series(field, rng, rng.choice((ram, None)))
        if rng.random() < 0.02:
            b = random_series(FIELDS[(i + 1) % len(FIELDS)], rng)  # field mismatch
        n1, n2 = len(a.coeffs), len(b.coeffs)
        e = a.ram * b.ram // math.gcd(a.ram, b.ram)
        if n1 and n2 and a.field == b.field:
            slots = sum((max(s.coeffs) - min(s.coeffs)) * (e // s.ram) for s in (a, b)) + 1
            dense += is_dense(n1 * n2, slots)
            sparse += not is_dense(n1 * n2, slots)
            prec = ref_mul(a, b).prec
            at_cap += prec is not None and any(
                Fraction(n1, a.ram) + Fraction(n2, b.ram) == prec
                for n1 in a.coeffs for n2 in b.coeffs)
        assert outcome(PuiseuxSeries.__mul__, a, b) == outcome(ref_mul, a, b), i
    assert dense >= 50 and sparse >= 50 and at_cap >= 30, (dense, sparse, at_cap)
    assert not packed


# The slot writer and reader: _pack puts a list into bits-wide slots, one shift per
# nonzero entry for a list with no more nonzero entries than a slot has bits, else in
# bulk through one buffer when its values fit 8 bytes (F_p residues below 256 by one
# byte stride), else pairwise; _unpack reads the first n slots back, signed (lifted by
# half a slot) or, where every slot is nonnegative, as they are.

def packed_lists(rng, bits):
    """(kind, list) for b = bits: empty and all-zero lists, signed values up to
    +-(2^(b-1) - 1), both extremes included, F_p residues for p in 2, 3, 7, 251 and
    257, short and longer than a slot has bits, some sparse."""
    top = (1 << bits - 1) - 1
    yield "zero", []
    for n in (3, 3 * bits):
        yield "zero", [0] * n
        yield "signed", [top, -top] + [rng.randint(-top, top) for _ in range(n)] + [-top]
        yield "signed", [rng.choice((0, 0, 0, rng.randint(-top, top))) for _ in range(n)]
        yield "small", [rng.randint(-9, 9) for _ in range(n)]  # 8-byte items, a sign bit
        for p in (2, 3, 7, 251, 257):
            yield p, [rng.randrange(p) for _ in range(n)] + [p - 1]


def test_packed_slots_read_back_at_every_width(monkeypatch):
    rng = random.Random(61)
    written, real = [], series.array
    monkeypatch.setattr(series, "array", lambda code, vs: written.append(code) or real(code, vs))
    seen = {}
    for w in range(1, 17):
        bits = 8 * w
        for kind, vs in packed_lists(rng, bits):
            written.clear()
            v = _pack(list(vs), bits)
            assert v == sum(x << bits * i for i, x in enumerate(vs)), (w, kind, vs)
            dense = len(vs) - vs.count(0) > bits
            fits = max(map(abs, vs), default=0) < 1 << min(bits, 64) - (min(vs, default=0) < 0)
            assert bool(written) == (dense and fits), (w, kind, written)
            path = "bulk" if written else "pairwise" if dense else "shifts"
            seen[path, kind] = seen.get((path, kind), 0) + 1
            if kind == 257 and w == 1:  # 256 needs a second byte: no 1-byte slot holds it
                continue
            signed = kind not in (2, 3, 7, 251, 257)  # residues read as they are
            above = rng.randint(-9 if signed else 0, 9) << bits * len(vs)  # slots past the n read
            assert list(_unpack(v + above, bits, len(vs), signed)) == vs, (w, kind)
    for p in (2, 3, 7, 251, 257, "signed", "small"):  # every kind takes the buffer somewhere
        assert seen.get(("bulk", p)) and seen.get(("shifts", p)), (p, seen)
    assert seen.get(("pairwise", "signed")), seen  # values wider than 8 bytes


def test_tp_mul_kernel_matches_the_pair_loop():
    rng = random.Random(7)
    for i in range(300):
        field = FIELDS[i % len(FIELDS)]
        a, b = ([random_scalar(field, rng) if rng.random() < 0.8 else field.zero()
                 for _ in range(rng.randint(1, 40))] + [field.one()] for _ in range(2))
        assert outcome(tp_mul, field, a, b) == outcome(ref_tp_mul, field, a, b), i


def test_coerce_kernel_matches_the_long_division():
    rng = random.Random(8)
    for i in range(400):
        field = FIELDS[i % len(FIELDS)]

        def poly(deg):
            return ([field.zero()] * rng.randint(0, 4)
                    + [random_scalar(field, rng) for _ in range(deg)] + [field.one()])

        num = [] if rng.random() < 0.03 else poly(rng.randint(0, 10))
        r = RatFunc(field, num, poly(rng.randint(0, 4)))
        prec = rng.choice((Fraction(rng.randint(-6, 70), rng.choice((1, 2, 3))),
                           rng.randint(-3, 40), "17/2"))
        assert outcome(coerce, r, prec) == outcome(ref_coerce, r, prec), i
    for bad in ("x", None):
        r = RatFunc(QQ, [1], [1, 1])
        assert outcome(coerce, r, bad) == outcome(ref_coerce, r, bad)


# -- RatFunc ring operations: the polynomial fast path ------------------------
#
# The reference is the general fraction formula, which the fast path skips
# when both denominators are 1; num, den and every scalar type must match.

def ref_ratfunc_op(op, a, b):
    a._check(b)
    f = a.field
    if op == "-":
        return ref_ratfunc_op("+", a, -b)
    if op == "+":
        num = tp_add(f, tp_mul(f, a.num, b.den), tp_mul(f, b.num, a.den))
        return RatFunc(f, num, tp_mul(f, a.den, b.den))
    return RatFunc(f, tp_mul(f, a.num, b.num), tp_mul(f, a.den, b.den))


def ratfunc_outcome(fn, *args):
    try:
        r = fn(*args)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    return ([(type(c), c) for c in r.num], [(type(c), c) for c in r.den])


def random_tpoly(field, rng, deg):
    return [random_scalar(field, rng) if rng.random() < 0.7 else field.zero()
            for _ in range(deg)] + [random_scalar(field, rng)]


def random_ratfunc(field, rng, pole):
    if rng.random() < 0.05:
        return RatFunc.zero(field)
    den = random_tpoly(field, rng, rng.randint(1, 4)) if pole else None
    return RatFunc(field, random_tpoly(field, rng, rng.randint(0, 8)), den)


def test_ratfunc_polynomial_fast_path_matches_the_general_formula():
    rng = random.Random(12)
    ops = {"+": RatFunc.__add__, "-": RatFunc.__sub__, "*": RatFunc.__mul__}
    polynomial = poles = 0
    for i in range(480):
        field = (QQ, F2, GF(3), GF(7))[i % 4]
        op = "+-*"[i % 3]
        a = random_ratfunc(field, rng, pole=rng.random() < 0.3)
        b = random_ratfunc(field, rng, pole=rng.random() < 0.3)
        shape = rng.random()
        if shape < 0.1:  # everything cancels
            b = a if op == "-" else -a
        elif shape < 0.2:  # all but a low term cancels, so the result is trimmed
            b = (-a if op == "+" else a) + RatFunc.t_power(field, rng.randint(0, 2))
        elif shape < 0.22:  # field mismatch
            b = random_ratfunc((QQ, F2, GF(3), GF(7))[(i + 1) % 4], rng, False)
        polynomial += a.is_polynomial() and b.is_polynomial() and a.field == b.field
        poles += not (a.is_polynomial() and b.is_polynomial())
        assert ratfunc_outcome(ops[op], a, b) == ratfunc_outcome(ref_ratfunc_op, op, a, b), i
    assert polynomial >= 100 and poles >= 100, (polynomial, poles)


# -- RatFunc's integer layout against the Fraction-stored RatFunc ---------------
#
# The reference (tests/fraction_ratfunc.py) is RatFunc as it was stored before:
# lists of field scalars, normalised by the scalar gcd.  The num and den views,
# their scalar types, every operation's result or exception, equality, val,
# the text and the expansion must match it.

def view(r):
    return [(type(c), c) for c in r.num], [(type(c), c) for c in r.den]


def ratfunc_view(fn, *args):
    try:
        r = fn(*args)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    return view(r)


def series_outcome(fn, *args):
    out = outcome(fn, *args)
    if out[0] == "raised":
        return out
    s = fn(*args)
    source = s.source if isinstance(s, PuiseuxSeries) else None
    return out, None if source is None else view(source)


def scalar_lists(field, rng, pole):
    """(num, den) scalar lists: big and small scalars, zeros below the top, a shared factor."""
    def scalar():  # as random_scalar draws them, but numerators beyond 64 bits rarer
        if field.char or rng.random() < 0.95:
            return random_scalar(field, rng) if field.char else \
                Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 1, 2, 3, 7, 12)))
        return Fraction(rng.randint(-2**90, 2**90))

    def poly(deg):
        return [scalar() if rng.random() < 0.7 else field.zero() for _ in range(deg)] + [scalar()]

    shape = rng.random()
    if shape < 0.05:
        return [], poly(rng.randint(0, 3)) if pole else None
    num = poly(rng.randint(0, 7))
    if not pole:
        return num, None if rng.random() < 0.5 else [scalar()]
    den = poly(rng.randint(1, 4))
    if shape < 0.4:  # a common factor for the gcd to divide out
        g = poly(rng.randint(1, 3))
        num, den = tp_mul(field, num, g), tp_mul(field, den, g)
    return num, den


def test_integer_ratfunc_matches_the_fraction_reference():
    rng = random.Random(31)
    seen = {"poles": 0, "polynomials": 0, "equal pairs": 0, "raised": 0, "gcd": 0}
    for i in range(600):
        field = FIELDS[i % len(FIELDS)]
        pairs = []
        for _ in range(2):
            num, den = scalar_lists(field, rng, pole=rng.random() < 0.4)
            pairs.append((RatFunc(field, num, den), FractionRatFunc(field, num, den)))
            reduced = den is not None and len(pairs[-1][1].den) < len(tp_trim(list(den)))
            seen["gcd"] += reduced
        (a, fa), (b, fb) = pairs
        shape = rng.random()
        if shape < 0.1:  # the same element, built again from other lists
            k = [random_scalar(field, rng), field.one()]
            b = RatFunc(field, tp_mul(field, a.num, k), tp_mul(field, a.den, k))
            fb = FractionRatFunc(field, tp_mul(field, fa.num, k), tp_mul(field, fa.den, k))
        elif shape < 0.15:  # everything cancels in a - b
            b, fb = a, fa
        elif shape < 0.17:  # field mismatch
            other = FIELDS[(i + 1) % len(FIELDS)]
            b, fb = RatFunc.one(other), FractionRatFunc.one(other)
        for r, fr in ((a, fa), (b, fb)):
            assert view(r) == view(fr), i
            assert r.val() == fr.val() and r.to_text() == fr.to_text(), i
            assert r.is_zero() == fr.is_zero() and r.is_polynomial() == fr.is_polynomial()
            for prec in (None, 5, Fraction(17, 2), -3) + ((64,) if i % 4 == 0 else ()):
                assert series_outcome(r.to_series, prec) == series_outcome(fr.to_series, prec), i
                if prec is not None:
                    assert outcome(coerce, r, prec) == outcome(fraction_coerce, fr, prec), i
            seen["poles" if not r.is_polynomial() else "polynomials"] += 1
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            got = ratfunc_view(getattr(RatFunc, op), a, b)
            assert got == ratfunc_view(getattr(FractionRatFunc, op), fa, fb), (i, op)
            seen["raised"] += got[0] == "raised"
        for n in (-2, -1, 0, 1, 3) if i % 10 == 0 else (0, -1):
            assert ratfunc_view(pow, a, n) == ratfunc_view(pow, fa, n), (i, n)
        assert ratfunc_view(RatFunc.__neg__, a) == ratfunc_view(FractionRatFunc.__neg__, fa)
        assert (a == b) == (fa == fb), i
        if a == b:
            assert hash(a) == hash(b), i
            seen["equal pairs"] += 1
    assert min(seen.values()) >= 40, seen


def test_integer_ratfunc_raises_what_the_fraction_reference_raises():
    for field in FIELDS:
        for build in (RatFunc, FractionRatFunc):
            with pytest.raises(ZeroDivisionError, match="zero denominator"):
                build(field, [1, 2], [0, field.char])  # 0 and p are both zero
            with pytest.raises(WorkbenchError, match="float"):
                build(field, [1, 0.5])
            with pytest.raises(WorkbenchError, match="float"):
                build(field, [1], [1, 0.5])
            with pytest.raises(ZeroDivisionError, match="division by zero rational function"):
                build(field, [1], [1, 1]) / build.zero(field)
        for num in (["1/3", 2], [Fraction(2, 7), "-5"], [10**20, "3/2"]):
            assert ratfunc_view(RatFunc, field, num) == ratfunc_view(FractionRatFunc, field, num)


# -- the remainder kernels at large degree gaps ----------------------------------
#
# The reference (tests/remainder_reference.py) is _gcd and _divide as they were before the
# window; tp_gcd and tp_divmod of tests/fraction_ratfunc.py give the normal forms on scalars.

REMAINDER_FIELDS = [QQ, F2, GF(3), GF(7), GF(101), GF(2**31 - 1)]


def int_poly(p, rng, deg, lead=None):
    """Integer images of degree deg: residues over F_p, mostly small integers over Q."""
    def draw():
        if p:
            return rng.randrange(p)
        return rng.randint(-2**70, 2**70) if rng.random() < 0.01 else rng.randint(-9, 9)
    top = lead if lead is not None else (rng.randrange(1, p) if p else rng.choice((-7, -1, 1, 3)))
    return [draw() for _ in range(deg)] + [top]


def divisor(p, rng, deg):
    """b as the kernels take it: monic over F_p; over Q primitive, its lead often neither
    1 nor -1 and often negative."""
    if p:
        return int_poly(p, rng, deg, lead=1)
    b = int_poly(p, rng, deg, lead=rng.choice((-12, -5, -3, -2, -1, 1, 2, 4, 6, 9)))
    g = math.gcd(*b)
    return [y // g for y in b]


def test_remainder_kernels_match_the_reference_at_large_degree_gaps():
    rng = random.Random(3131)
    seen = {"divides": 0, "not": 0, "gcd > 1": 0, "coprime": 0, "deg >= 120": 0}
    for i in range(240):
        field = REMAINDER_FIELDS[i % len(REMAINDER_FIELDS)]
        p, m = field.char, rng.randint(1, 12)
        n = rng.randint(120, 130) if rng.random() < 0.7 else rng.randint(m, 40)
        b = divisor(p, rng, m)
        shape = i // len(REMAINDER_FIELDS) % 4  # each shape over each field
        if shape == 0:  # b | a
            a = series._mul(int_poly(p, rng, n - m), b, p)
        elif shape == 1:  # a planted common factor of degree 1-4
            g = divisor(p, rng, rng.randint(1, 4))
            a = series._mul(int_poly(p, rng, n - len(g) + 1), g, p)
            b = series._mul(divisor(p, rng, max(1, m - len(g) + 1)), g, p)
        else:  # likely coprime; a perturbed multiple of b, at its top or its bottom
            a = int_poly(p, rng, n) if shape == 2 else series._mul(int_poly(p, rng, n - m), b, p)
            a[-1 if rng.random() < 0.5 else 0] += 1
            a = tp_trim([x % p for x in a] if p else a)
        got = series._gcd(a, b, p)
        assert got == remainder_reference._gcd(a, b, p), i
        assert series._divide(a, b, p) == remainder_reference._divide(a, b, p), i
        assert series._divide(a, got, p) == remainder_reference._divide(a, got, p), i
        num, den = [field.coerce(x) for x in a], [field.coerce(y) for y in b]
        fraction = FractionRatFunc(field, num, den)  # num and den over their tp_gcd
        assert view(RatFunc(field, num, den)) == view(fraction), i
        monic = tp_divmod(field, den, fraction.den)[0]  # tp_gcd(field, num, den), up to a unit
        assert [field.div(field.coerce(x), field.coerce(got[-1])) for x in got] == \
            [field.div(x, monic[-1]) for x in monic], i
        quotient, rest = tp_divmod(field, num, den)
        quot = series._divide(a, b, p)
        assert (quot and [field.coerce(x) for x in quot]) == (None if rest else quotient), i
        seen["divides" if quot is not None else "not"] += 1
        seen["gcd > 1" if len(got) > 1 else "coprime"] += 1
        seen["deg >= 120"] += len(a) > 120
    assert min(seen.values()) >= 40, seen


def test_ratfunc_views_are_copies_of_its_scalars():
    for field in FIELDS:
        for r in (RatFunc(field, [1, 2, 0]), RatFunc(field, [3], [1, 1]),
                  RatFunc.one(field) * RatFunc(field, [2, 1])):
            before, h = view(r), hash(r)
            r.num.append(field.one())
            r.den[-1] = field.zero()
            r.to_series().coeffs[0] = field.zero()
            assert view(r) == before and hash(r) == h and r == RatFunc(field, r.num, r.den)


# -- invert: the fraction-free division of coerce on the lattice index --------
#
# The reference is the Fraction recursion invert used before it shared
# coerce's division; every value, scalar type, ram, cap and exception must
# match it.

def ref_invert(s, prec=None):
    f = s.field
    v = s.val()
    if v.is_inf:
        raise ZeroDivisionError("inverse of the exact zero series")
    v0 = v.q
    if s.is_exact() and len(s.coeffs) == 1:
        n, c = next(iter(s.coeffs.items()))
        return PuiseuxSeries.from_terms(f, {-Fraction(n, s.ram): f.inv(c)})
    if s.prec is not None:
        work_prec = s.prec
        out_prec = s.prec - 2 * v0
    else:
        target = Fraction(64) if prec is None else Fraction(prec)
        work_prec = target + 2 * v0
        out_prec = target
    e = s.ram
    shift0 = int(v0 * e)
    c0 = s.coeffs[shift0]
    inv_c0 = f.inv(c0)
    add, mul = f.add, f.mul
    u = {n - shift0: mul(c, inv_c0) for n, c in s.coeffs.items() if n != shift0}
    rel_keys = int(math.ceil((work_prec - v0) * e))
    v_coeffs = {0: f.one()}
    for n in range(1, rel_keys):
        acc = f.zero()
        for k, uc in u.items():
            if 0 < k <= n and (n - k) in v_coeffs:
                acc = add(acc, mul(uc, v_coeffs[n - k]))
        if acc:
            v_coeffs[n] = f.neg(acc)
    out = {n - shift0: mul(c, inv_c0) for n, c in v_coeffs.items()}
    return PuiseuxSeries(f, e, out, out_prec)


def random_invert_case(field, rng):
    ram, shape = rng.choice((1, 2, 3, 6)), rng.random()
    if shape < 0.03:
        return PuiseuxSeries.zero(field)
    if shape < 0.06:
        return PuiseuxSeries.unknown_zero(field, Fraction(rng.randint(-4, 8), ram))
    lo = rng.randint(-6, 6)
    if shape < 0.15:
        keys = [lo]  # a monomial: inverted exactly when exact
    elif shape < 0.6:
        keys = range(lo, lo + rng.randint(2, 8))
    else:
        keys = {lo} | {rng.randint(lo, lo + 24) for _ in range(rng.randint(1, 5))}
    coeffs = {n: random_scalar(field, rng) for n in keys}
    # a cap at, just above or below the top key; below the least key it
    # leaves an unknown zero
    prec = None if rng.random() < 0.5 else Fraction(max(keys) + rng.randint(-3, 4), ram)
    return PuiseuxSeries(field, ram, coeffs, prec)


def test_invert_matches_the_fraction_recursion():
    rng = random.Random(13)
    targets = (None, 0, 3, 9, 20, -2, Fraction(7, 2), Fraction(-13, 6), "5/2", "x")
    seen = {"raised": 0, "exact": 0, "capped": 0, "no term": 0}
    for i in range(1000):
        field = FIELDS[i % len(FIELDS)]
        s = random_invert_case(field, rng)
        target = rng.choice(targets)
        got = outcome(invert, s, target)
        assert got == outcome(ref_invert, s, target), (i, s, target)
        if got[0] == "raised":
            seen["raised"] += 1
        else:
            seen["exact" if s.prec is None else "capped"] += 1
            seen["no term"] += not got[3]
    assert min(seen.values()) >= 30, seen


def val_outcome(fn, *args):
    """The value, or the type and text of the exception raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))


def random_val_sub_operand(field, rng):
    shape = rng.random()
    if shape < 0.04:
        return PuiseuxSeries.zero(field)
    if shape < 0.1:
        return PuiseuxSeries.unknown_zero(field, Fraction(rng.randint(-6, 12), rng.randint(1, 6)))
    ram, lo = rng.randint(1, 6), rng.randint(-12, 8)
    keys = {rng.randint(lo, lo + 24) for _ in range(rng.randint(1, 8))}
    # few scalars, so coefficients on shared keys often agree
    coeffs = {n: field.coerce(rng.choice((1, 2, -1, Fraction(1, 5)))) for n in keys}
    prec = None if rng.random() < 0.4 else Fraction(rng.randint(lo - 2, lo + 30), ram)
    return PuiseuxSeries(field, ram, coeffs, prec)


def test_val_sub_matches_the_value_of_the_difference():
    rng = random.Random(1313)
    fields = [QQ, F2, GF(3), GF(7)]
    seen = {"value": 0, "posinf": 0, "unknown zero": 0, "mismatch": 0}
    for i in range(4000):
        field = fields[i % len(fields)]
        a, shape = random_val_sub_operand(field, rng), rng.random()
        if shape < 0.1:
            b = a
        elif shape < 0.45:  # a term, a tail or a lower cap away from a
            b = a + rng.choice((random_val_sub_operand(field, rng), PuiseuxSeries.unknown_zero(
                field, Fraction(rng.randint(-8, 30), rng.randint(1, 6)))))
        elif shape < 0.5:
            b = random_val_sub_operand(fields[(i + 1) % len(fields)], rng)
        else:
            b = random_val_sub_operand(field, rng)
        got = val_outcome(a.val_sub, b)
        assert got == val_outcome(lambda: (a - b).val()), (i, a, b)
        if got[0] == "value":
            seen["posinf" if got[1].is_inf else "value"] += 1
        else:
            seen["mismatch" if got[1] is WorkbenchError else "unknown zero"] += 1
            assert got[1] in (WorkbenchError, PrecisionExhausted), got
    assert min(seen.values()) >= 150, seen
    # a long shared prefix, then a difference: consecutive elements of a sequence
    seen = {"at a shared key": 0, "at a key of one": 0, "posinf": 0, "raised": 0}
    for i in range(1500):
        a, b = prefix_pair(fields[i % len(fields)], rng)
        got = val_outcome(a.val_sub, b)
        assert got == val_outcome(lambda: (a - b).val()), (i, a, b)
        if got[0] == "value" and not got[1].is_inf:
            k = got[1].q
            shared = a.coeff_at(k) and b.coeff_at(k)
            seen["at a shared key" if shared else "at a key of one"] += 1
        else:
            seen["posinf" if got[0] == "value" else "raised"] += 1
    assert min(seen.values()) >= 50, seen


def prefix_pair(field, rng):
    """Two series equal on their first 4 to 60 terms: then b changes a scalar of a,
    drops or adds a term, goes on to a tail of its own on a lattice up to 3 times
    finer, or keeps a's; each capped or exact."""
    ram, r, n = rng.randint(1, 4), rng.randint(1, 3), rng.randint(8, 60)
    keys = sorted(rng.sample(range(-4, 3 * n), n))
    split = rng.randrange(n // 2, n + 1)
    scalar = lambda: field.coerce(rng.choice((1, 2, -1, Fraction(1, 5))))  # noqa: E731
    a = {k * r: scalar() for k in keys}
    b = {k * r: a[k * r] for k in keys[:split]}
    shape = rng.random()
    if shape < 0.3 and split < n:  # one shared key with another scalar, then a's tail
        b.update({k * r: a[k * r] for k in keys[split + 1:]})
        b[keys[split] * r] = field.add(a[keys[split] * r], field.one())
    elif shape < 0.6:  # a tail of b's own, on the finer lattice
        b.update({rng.randint(keys[split - 1] * r + 1, 3 * n * r): scalar()
                  for _ in range(rng.randint(0, 6))})
    else:  # a's tail, with one term dropped or added, or none
        b.update({k * r: a[k * r] for k in keys[split:]})
        change = rng.random()
        if split < n and change < 0.3:
            del b[keys[split] * r]
        elif change < 0.6:
            b[rng.randint(keys[0] * r, 3 * n * r)] = scalar()
    cap = lambda: None if rng.random() < 0.5 else Fraction(  # noqa: E731
        rng.randint(keys[n // 2], 3 * n + 4), ram)
    return (PuiseuxSeries(field, ram * r, a, cap()), PuiseuxSeries(field, ram * r, b, cap()))


def test_t_power_of_k_refuses_a_fractional_exponent():
    # int() floored the exponent: 5/2 gave t^2, and 1/2 gave 1
    for n in (Fraction(5, 2), Fraction(1, 2), Fraction(-3, 2)):
        with pytest.raises(WorkbenchError, match=f"^an element of K has no fractional power "
                                                 f"of t, got exponent {n}$"):
            RatFunc.t_power(QQ, n)
    for n, text in ((3, "t^3"), (Fraction(4, 2), "t^2"), (-2, "(1) / (t^2)")):
        assert RatFunc.t_power(QQ, n).to_text() == text
