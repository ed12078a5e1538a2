import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

import root_search_reference as reference
from valwb import algnum, polyx
from valwb.algnum import (
    AlgElement,
    Linear,
    NoRootFound,
    _residue_roots,
    artin_schreier_translate,
    attach_minpoly,
    conjugates,
    galois_twist,
    krasner_constant,
    minpoly_over_completion,
)
from valwb.config import parse_center
from valwb.errors import NoRootOfUnity, NotARoot, PrecisionExhausted, Uncertified, WorkbenchError
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb.polyx import RATFUNC, PolyX, polyx_from_text
from valwb.series import PuiseuxSeries, RatFunc

F2 = GF(2)
F3 = GF(3)

X2_MINUS_T = polyx_from_text(QQ, "X^2 - t")


def sqrt_t(prec=None):
    return PuiseuxSeries.t_power(QQ, Fraction(1, 2),
                                 None if prec is None else Fraction(prec))


def tower_series(p, n):
    field = GF(p)
    return PuiseuxSeries.from_terms(
        field, {Fraction(p**k): 1 for k in range(n + 1)},
        Fraction(p**(n + 1)))


def test_attach_minpoly_accepts_exact_root():
    a = attach_minpoly(sqrt_t(), X2_MINUS_T, irreducible=True)
    assert a.degree() == 2
    assert a.minpoly is X2_MINUS_T


def test_attach_minpoly_rejects_nonroot():
    with pytest.raises(NotARoot):
        attach_minpoly(PuiseuxSeries.t_power(QQ, 1), X2_MINUS_T)


@pytest.mark.parametrize("field, center, minpoly, certified", [
    (QQ, "t^(1/3)", "X^3 - t", True),  # exact, tame, deg Q = ram: Q is the norm of X - s
    (GF(7), "t^(1/2) + t", "X^2 - 2*t*X + [t^2 - t]", True),
    (QQ, "t + t^2", "X - [t + t^2]", True),  # a polynomial of K, ram 1
    (QQ, "1 / (1 - t)", "X - [1 / (1 - t)]", True),  # in K, decided in K, not at the cap
    (QQ, "t^(1/3) + O(t^4)", "X^3 - t", False),  # a capped center has no known degree
    (F3, "t^(1/3)", "X^3 - t", False),  # wild: (X - t^(1/3))^3
    (QQ, "t^(1/3)", "X^6 - t^2", False),  # the wrong degree
    (QQ, "t + t^2", "X^2 - [t^2 + 2*t^3 + t^4]", False),
    (QQ, "t^(-1/3)", "X^3 - [1 / t]", None),  # 1/t expands to O(t^64): Q(s) = 0 undecided
])
def test_attach_minpoly_certifies_an_exact_root_of_the_centers_degree(
        field, center, minpoly, certified):
    s = parse_center(field, center).to_series()
    a = attach_minpoly(s, polyx_from_text(field, minpoly, RATFUNC))
    assert a.irreducible_certified is certified
    if certified:
        assert a.degree() == a.minpoly.degree()
    elif certified is None:  # the evaluation's own refusal, where Q would give the degree
        with pytest.raises(PrecisionExhausted, match="^series indistinguishable from 0 at "
                                                     r"precision O\(t\^64\)$"):
            a.degree()
    assert attach_minpoly(s, a.minpoly, irreducible=True).irreducible_certified is True


def test_attach_minpoly_truncated_root():
    # the Artin-Schreier tower: Q(a) vanishes through the known precision
    Q = polyx_from_text(F2, "X^2 + X + t")
    a = tower_series(2, 4)
    elt = attach_minpoly(a, Q, irreducible=True)
    assert elt.degree() == 2
    # one term short and the defect is decidable
    bad = PuiseuxSeries.from_terms(F2, {Fraction(2**k): 1 for k in range(3)},
                                   Fraction(32))
    with pytest.raises(NotARoot):
        attach_minpoly(bad, Q)


def test_degree_routes():
    # pure ramification without a certificate
    assert AlgElement(sqrt_t()).degree() == 2
    # no certificate and no ramification: refuse
    with pytest.raises(Uncertified):
        AlgElement(PuiseuxSeries.t_power(QQ, 1)).degree()
    # char-2 field has no primitive square root of unity, so ram alone
    # does not certify degree there
    with pytest.raises(Uncertified):
        AlgElement(PuiseuxSeries.t_power(F2, Fraction(1, 2))).degree()


def test_galois_twist():
    a = AlgElement(sqrt_t())
    b = galois_twist(a, 1)
    assert b.expansion.coeff_at(Fraction(1, 2)) == -1
    assert galois_twist(b, 1).expansion == a.expansion
    # twists preserve the valuation
    assert b.expansion.val() == a.expansion.val()
    # identity twist
    assert galois_twist(a, 0).expansion == a.expansion
    with pytest.raises(NoRootOfUnity, match="^base field Q has no primitive root of unity of "
                                            "order 3$"):
        galois_twist(AlgElement(PuiseuxSeries.t_power(QQ, Fraction(1, 3))), 1)


def test_artin_schreier_translate():
    Q = polyx_from_text(F2, "X^2 + X + t")
    a = attach_minpoly(tower_series(2, 4), Q, irreducible=True)
    b = artin_schreier_translate(a, F2.one())
    assert b.expansion.coeff_at(Fraction(0)) == F2.one()
    assert (b.expansion - a.expansion).val() == GroupVal.fin(0)
    with pytest.raises(Uncertified):
        artin_schreier_translate(AlgElement(tower_series(2, 4)), F2.one())


def test_conjugates():
    conj = conjugates(AlgElement(sqrt_t()))
    assert len(conj) == 2
    assert (conj[0] + conj[1]).is_exact_zero() or not (conj[0] + conj[1]).coeffs
    Q = polyx_from_text(F3, "X^3 - X + t")
    a3 = PuiseuxSeries.from_terms(F3, {Fraction(3**k): 1 for k in range(3)},
                                  Fraction(27))
    conj3 = conjugates(attach_minpoly(a3, Q, irreducible=True))
    assert len(conj3) == 3
    with pytest.raises(Uncertified):
        conjugates(AlgElement(PuiseuxSeries.t_power(QQ, 2)))


def test_krasner_constant():
    # sqrt(t): the two conjugates differ by 2 t^(1/2), so the constant is 1/2
    a = attach_minpoly(sqrt_t(), X2_MINUS_T, irreducible=True)
    assert krasner_constant(a) == GroupVal.fin(Fraction(1, 2))
    # cube root of t over QQ: no root of unity, polygon route
    Q3 = polyx_from_text(QQ, "X^3 - t")
    b = attach_minpoly(PuiseuxSeries.t_power(QQ, Fraction(1, 3)), Q3,
                       irreducible=True)
    assert krasner_constant(b) == GroupVal.fin(Fraction(1, 3))
    with pytest.raises(Uncertified):
        krasner_constant(AlgElement(PuiseuxSeries.t_power(QQ, 1),
                                    polyx_from_text(QQ, "X - t"),
                                    irreducible_certified=True))


def pairwise_constant(a):
    """The Krasner constant as it was computed by enumeration: the degree gate, then the
    largest v(x - y) over the pairs of ``conjugates(a)``."""
    if a.degree() < 2:
        raise Uncertified("the Krasner constant needs an element of degree >= 2")
    best = None
    for x, y in itertools.combinations(conjugates(a), 2):
        d = x - y
        if not d.coeffs:
            if d.prec is None:
                continue  # exact coincidence; not a distinct pair
            raise PrecisionExhausted(
                "conjugate difference indistinguishable from 0 at this precision")
        if best is None or d.val() > best:
            best = d.val()
    if best is None:
        raise Uncertified("no distinct conjugate pairs found")
    return best


def outcome(fn, a):
    try:
        return fn(a)
    except WorkbenchError as exc:
        return type(exc), str(exc)


def krasner_cases(rng):
    """(kind, AlgElement): twisted expansions over Q (e = 2), F_5 (e = 2, 4), F_7 (e = 3, 6)
    and F_13 (e = 3, 4, 6, 12), and expansions under an X^p - X - u certificate over F_2,
    F_3, F_5 and F_7 at caps none, 1/2, 0 and -1; support from t^(-2) up."""
    def expansion(field, e, cap):
        keys = rng.sample(range(-2 * e, 6 * e), rng.randint(1, 6))
        return PuiseuxSeries(field, e, {n: small_scalar(field, rng) for n in keys}, cap)

    twists = [(QQ, 2), (GF(5), 2), (GF(5), 4), (GF(7), 3), (GF(7), 6),
              (GF(13), 3), (GF(13), 4), (GF(13), 6), (GF(13), 12)]
    for i in range(2700):
        field, e = twists[i % len(twists)]
        cap = None if i % 2 else Fraction(rng.randint(-2 * e, 6 * e), e)
        yield "twist", AlgElement(expansion(field, e, cap))
    for i in range(320):
        field = GF((2, 3, 5, 7)[i % 4])
        p, cap = field.char, (None, Fraction(1, 2), Fraction(0), Fraction(-1))[i // 4 % 4]
        u = RatFunc(field, [small_scalar(field, rng) for _ in range(rng.randint(1, 3))],
                    [0] * rng.randint(0, 2) + [1])
        Q = PolyX.from_ratfuncs(field, [-u, -RatFunc.one(field)] + [RatFunc.zero(field)] * (p - 2)
                                + [RatFunc.one(field)])
        e = rng.choice([1] + [d for d in (2, 3, 6) if (p - 1) % d == 0])
        yield "translate", AlgElement(expansion(field, e, cap), Q, rng.random() < 0.8)


def test_krasner_constant_is_the_largest_difference_of_enumerated_conjugates():
    # the closed forms answer as the pairwise enumeration of conjugates(a) did: the same
    # value, or the same exception class and message
    seen = collections.Counter()
    for kind, a in krasner_cases(random.Random(33)):
        got = outcome(krasner_constant, a)
        assert got == outcome(pairwise_constant, a), (kind, a)
        seen[kind, "value" if isinstance(got, GroupVal) else got[0].__name__] += 1
    assert sum(seen.values()) >= 3000
    assert seen["twist", "value"] > 2000 and seen["translate", "value"] > 100
    assert seen["translate", "PrecisionExhausted"] > 50 and seen["twist", "Uncertified"]


def test_krasner_routes_agree():
    # cube root of t over GF(7): both the twist route and the polygon
    # route are available and must agree
    F7 = GF(7)
    Q = polyx_from_text(F7, "X^3 - t")
    root = PuiseuxSeries.t_power(F7, Fraction(1, 3))
    a = attach_minpoly(root, Q, irreducible=True)
    via_twists = krasner_constant(a)
    slopes = [s for s, _ in Q.newton_polygon(root) if not s.is_inf]
    assert via_twists == max(slopes) == GroupVal.fin(Fraction(1, 3))


def test_minpoly_over_completion_tower():
    # char-2 tower: the certificate factors over the completion and digit
    # recursion recovers the tower itself
    Q = polyx_from_text(F2, "X^2 + X + t")
    a = attach_minpoly(tower_series(2, 6), Q, irreducible=True)
    res = minpoly_over_completion(a, Fraction(64))
    assert isinstance(res, Linear)
    assert not (res.root - a.expansion).coeffs


def test_minpoly_over_completion_no_root():
    # X^2 - t has no root of ramification 1
    a = attach_minpoly(sqrt_t(), X2_MINUS_T, irreducible=True)
    res = minpoly_over_completion(a, Fraction(64))
    assert isinstance(res, NoRootFound)
    assert res.budget == Fraction(64)


def test_a_slope_at_or_above_the_budget_needs_a_digit_in_k():
    # X^2 - 2t^2: the segment of slope 1 asks for c^2 = 2, which has no root in Q.  At
    # budgets 1/2 and 1 the search used to answer Linear(O(t^budget)) without solving it
    a = AlgElement(sqrt_t(), polyx_from_text(QQ, "X^2 - [2*t^2]"), True)
    for budget in (Fraction(1, 2), 1, 2, 64):
        for search in (minpoly_over_completion, reference.minpoly_over_completion):
            assert search(a, budget) == NoRootFound(Fraction(budget)), (search, budget)
    # X^2 - 4t^2 has the root 2t: a budget at or below its exponent still answers Linear
    a = AlgElement(sqrt_t(), polyx_from_text(QQ, "X^2 - [4*t^2]"), True)
    for budget, root in ((Fraction(1, 2), "O(t^(1/2))"), (1, "O(t^1)"), (2, "2*t"), (64, "2*t")):
        assert minpoly_over_completion(a, budget).root.to_text() == root


def test_minpoly_over_completion_refuses_a_budget_that_is_not_positive():
    # a budget of 0 used to return the root X + [O(t^0)], with no digit solved
    Q = polyx_from_text(F2, "X^2 + X + t")
    a = attach_minpoly(tower_series(2, 3), Q, irreducible=True)
    for budget in (0, Fraction(-5), Fraction(-1, 2)):
        with pytest.raises(WorkbenchError, match="root search budget must be positive"):
            minpoly_over_completion(a, budget)
    assert minpoly_over_completion(a, 3).root.to_text() == "t + t^2 + O(t^3)"
    with pytest.raises(Uncertified, match="^root search needs a polynomial certificate$"):
        minpoly_over_completion(AlgElement(tower_series(2, 3)), 3)


def test_minpoly_over_completion_rational_element():
    # an element already in K: the linear certificate finds it exactly
    Q = polyx_from_text(QQ, "X - t - t^2")
    s = PuiseuxSeries.from_terms(QQ, {Fraction(1): 1, Fraction(2): 1})
    a = attach_minpoly(s, Q, irreducible=True)
    res = minpoly_over_completion(a, Fraction(64))
    assert isinstance(res, Linear)
    assert not (res.root - s).coeffs


# -- residue roots on integers ---------------------------------------------------------

def fraction_residue_roots(field, phi):
    """The search _residue_roots replaced: every divisor pair P/Q of the cleared
    polynomial tried on Fractions (residues over F_p), duplicates skipped."""
    def at(c):
        acc = field.zero()
        for coef in reversed(phi):
            acc = field.add(field.mul(acc, field.coerce(c)), coef)
        return acc

    if len(phi) < 2:
        return []
    if field.char:
        return [c for c in range(1, field.char) if at(c) == 0]
    den = math.lcm(*(c.denominator for c in phi))
    ints = [int(c * den) for c in phi]
    ints = ints[next(i for i, c in enumerate(ints) if c):]
    def divisors(n):
        return sorted({x for d in range(1, math.isqrt(n) + 1) if n % d == 0 for x in (d, n // d)})

    roots = []
    for P in divisors(abs(ints[0])):
        for Q in divisors(abs(ints[-1])):
            for cand in (Fraction(P, Q), Fraction(-P, Q)):
                if len(ints) > 1 and cand not in roots and at(cand) == 0:
                    roots.append(cand)
    return roots


def planted_phi(field, rng):
    """lead * prod (c - r_i), r_i rational (0 and repeats among them), times c^2 + k
    (no rational root for most k) at times: degree 1-4, trimmed at the top."""
    small = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4)] if not field.char \
        else [Fraction(n) for n in range(field.char)]
    deg = rng.randint(1, 4)
    quad = deg >= 2 and rng.random() < 0.3
    factors = [[field.coerce(-rng.choice(small)), field.one()] for _ in range(deg - 2 * quad)]
    factors += [[field.coerce(rng.choice((1, 2, 3, 5))), field.zero(), field.one()]] * quad
    phi = [field.coerce(rng.choice([x for x in small if x]))]
    for factor in factors:
        out = [field.zero()] * (len(phi) + len(factor) - 1)
        for i, x in enumerate(phi):
            for j, y in enumerate(factor):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
        phi = out
    return phi


def test_integer_residue_roots_match_the_fraction_search():
    rng = random.Random(41)
    seen = {"linear": 0, "several roots": 0, "zero constant": 0, "no root": 0}
    for i in range(1200):
        field = (QQ, GF(2), GF(3), GF(5), GF(7))[i % 5]
        phi = planted_phi(field, rng)
        got = _residue_roots(field, phi)
        assert got == fraction_residue_roots(field, phi), (field, phi)
        assert [type(c) for c in got] == [type(c) for c in fraction_residue_roots(field, phi)]
        seen["linear"] += len(phi) == 2
        seen["several roots"] += len(got) > 1
        seen["zero constant"] += len(phi) > 1 and not phi[0]
        seen["no root"] += not got
    assert min(seen.values()) >= 40, seen


def sqrt_one_plus_t(n, prec):
    c, terms = Fraction(1), {}
    for k in range(n):
        terms[Fraction(k)] = c
        c = c * (Fraction(1, 2) - k) / (k + 1)
    return PuiseuxSeries.from_terms(QQ, terms, prec)


def test_minpoly_over_completion_answers_as_the_fraction_search_did():
    Q = polyx_from_text(QQ, "X^2 - 1 - t")
    for prec, budget, want in ((10, 64, 10), (40, 16, 16), (None, 12, 12)):
        a = AlgElement(sqrt_one_plus_t(30 if prec is None else prec, prec), Q, True)
        res = minpoly_over_completion(a, budget)
        assert isinstance(res, Linear) and res.root == sqrt_one_plus_t(want, want)
    for p, want in ((2, 16), (3, 64)):  # Artin-Schreier towers, guided by capped expansions
        s = PuiseuxSeries.from_terms(GF(p), {Fraction(p**k): 1 for k in range(4)}, p**4)
        a = AlgElement(s, polyx_from_text(GF(p), f"X^{p} - X + t"), True)
        res = minpoly_over_completion(a, 64)
        assert res.root == PuiseuxSeries.from_terms(
            GF(p), {Fraction(p**k): 1 for k in range(4) if p**k < want}, want)
    for a in (AlgElement(sqrt_t(), X2_MINUS_T, True),  # ramified: no root of ram 1
              AlgElement(PuiseuxSeries.from_terms(F3, {Fraction(1, 2): 1}, 5),
                         polyx_from_text(F3, "X^2 - t"), True)):
        assert minpoly_over_completion(a, 64) == NoRootFound(Fraction(64))


# -- the root search off one row state per search ------------------------------
#
# Each step reads the certificate's rows at the partial sum, each C_i's least key,
# cap and scalar, and each digit shifts them by one monomial (polyx.ShiftRows).
# The reference is the search as it was while it built
# the C_i as series (tests/root_search_reference.py): the result type, the root's
# ram, keys, scalars with their types and cap, NoRootFound's budget, or the
# exception class and message must match.

def search_outcome(search, a, budget):
    try:
        res = search(a, budget)
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc), str(exc))
    if isinstance(res, NoRootFound):
        return (type(res), type(res.budget), res.budget)
    r = res.root
    return (type(res), r.ram, type(r.prec), r.prec,
            sorted((k, type(x), x) for k, x in r.coeffs.items()))


def sqrt_terms(field, c, n):
    """The first n terms of sqrt(1 + c t) = sum binom(1/2, k) c^k t^k."""
    b, terms = Fraction(1), {}
    for k in range(n):
        terms[Fraction(k)] = field.coerce(b * Fraction(c)**k)
        b = b * (Fraction(1, 2) - k) / (k + 1)
    return terms


def small_scalar(field, rng):
    if field.char:
        return rng.randrange(1, field.char)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 1, 2, 3)))


def random_k_poly(field, rng, deg, poles=False):
    """Monic of X-degree deg over K, small t-polynomials, a pole now and then."""
    coeffs = []
    for _ in range(deg):
        num = [small_scalar(field, rng) if rng.random() < 0.6 else field.zero()
               for _ in range(rng.randint(0, 4))]
        den = [field.one(), small_scalar(field, rng)] if poles and rng.random() < 0.5 else [1]
        coeffs.append(RatFunc(field, [field.zero()] * rng.randint(0, 3) + num, den))
    return PolyX.from_ratfuncs(field, coeffs + [RatFunc.one(field)])


def unguided(field, rng):
    """An expansion of ramification 2: the search runs without a guide."""
    return PuiseuxSeries.from_terms(field, {Fraction(1, 2): small_scalar(field, rng)})


def root_search_cases(rng):
    """(kind, AlgElement, budget) over Q, F_2, F_3, F_5 and F_7."""
    fields = {p: GF(p) if p else QQ for p in (0, 2, 3, 5, 7)}
    for i in range(24):  # sqrt(1 + c t): exact, capped and unguided expansions
        field = fields[(0, 3, 5, 7)[i % 4]]
        c, budget = small_scalar(field, rng), rng.randint(4, 20 if field.char else 12)
        Q = PolyX.from_ratfuncs(field, [-RatFunc(field, [1, c]), RatFunc.zero(field),
                                        RatFunc.one(field)])
        shape, n = i // 4 % 3, rng.randint(2, budget + 6)
        s = (PuiseuxSeries.from_terms(field, sqrt_terms(field, c, n)) if shape == 0 else
             PuiseuxSeries.from_terms(field, sqrt_terms(field, c, n), n) if shape == 1 else
             unguided(field, rng))
        yield "sqrt", AlgElement(s, Q, True), budget
    for p in (2, 3):  # X^p - X + t, guided by the tower or unguided
        Q = polyx_from_text(fields[p], f"X^{p} - X + t")
        for depth, budget in ((1, 4), (2, 8), (3, 20), (3, 64)):
            yield "artin-schreier", AlgElement(tower_series(p, depth), Q, True), budget
        yield "artin-schreier", AlgElement(unguided(fields[p], rng), Q, True), 12
    for p, n in ((0, 2), (5, 2), (7, 3), (0, 3)):  # b + c t^(k/n): (X - b)^n - c^n t^k
        field = fields[p]
        for k in [k for k in range(1, 2 * n + 1) if math.gcd(k, n) == 1]:
            b, c = small_scalar(field, rng), small_scalar(field, rng)
            s = PuiseuxSeries.from_terms(field, {Fraction(0): b, Fraction(k, n): c})
            xb = PolyX.from_ratfuncs(field, [RatFunc.constant(field, -b), RatFunc.one(field)])
            Q = PolyX.x_power(field, 0)
            for _ in range(n):
                Q = Q * xb
            Q = Q - PolyX.from_ratfuncs(field, [RatFunc.constant(field, c) ** n
                                                * RatFunc.t_power(field, k)])
            yield "no root", AlgElement(s, Q, True), rng.randint(4, 16)
    for i in range(30):  # planted roots (X - r) g, r in k[t]: exact roots mid-search
        field = fields[(0, 2, 3, 5, 7)[i % 5]]
        r = {Fraction(k): small_scalar(field, rng) for k in sorted(rng.sample(range(8), 3))}
        rk = RatFunc(field, [r.get(Fraction(k), 0) for k in range(8)])
        Q = PolyX.from_ratfuncs(field, [-rk, RatFunc.one(field)]) * random_k_poly(
            field, rng, rng.randint(1, 3), poles=i % 3 == 0)
        shape = i // 5 % 3
        s = (PuiseuxSeries.from_terms(field, r) if shape == 0 else
             PuiseuxSeries.from_terms(field, r, rng.randint(1, 9)) if shape == 1 else
             unguided(field, rng))
        yield "planted", AlgElement(s, Q, True), rng.randint(4, 20)
    for i in range(30):  # pole coefficients of high order: capped rows may cut the polygon
        field = fields[(0, 3, 5, 7, 2)[i % 5]]
        budget = rng.randint(4, 12)
        coeffs = [RatFunc(field, [field.zero()] * rng.randint(0, 3 * budget)
                          + [small_scalar(field, rng)], [field.one(), small_scalar(field, rng)])
                  for _ in range(rng.randint(1, 3))]
        if i % 3 == 2:  # C_0 known far above the cap of an unknown-zero C_1
            coeffs = [RatFunc.t_power(field, 2 * budget + rng.randint(17, 20))] + coeffs
        Q = PolyX.from_ratfuncs(field, coeffs + [RatFunc.one(field)])
        s = unguided(field, rng) if i % 2 else PuiseuxSeries.zero(field)
        yield "pole", AlgElement(s, Q, True), budget
    field = fields[3]  # an undecidable leading coefficient
    lead = RatFunc(field, [field.zero()] * 30 + [field.one()], [field.one(), field.one()])
    yield "pole", AlgElement(unguided(field, rng), PolyX(field, [RatFunc.t_power(field, 1),
                                                                 lead]), True), 6


def test_root_search_answers_as_the_series_search_did():
    seen = {"linear": 0, "exact root": 0, "none": 0, "raised": 0, "sqrt": 0, "no root": 0,
            "planted": 0, "artin-schreier": 0, "pole": 0}
    for kind, a, budget in root_search_cases(random.Random(20)):
        got = search_outcome(minpoly_over_completion, a, budget)
        assert got == search_outcome(reference.minpoly_over_completion, a, budget), \
            (kind, a, budget)
        seen[kind] += 1
        if got[0] == "raised":
            seen["raised"] += 1
        elif got[0] is NoRootFound:
            seen["none"] += 1
        else:
            seen["linear"] += 1
            seen["exact root"] += got[3] is None
    assert min(seen.values()) >= 5, seen


def test_root_search_builds_no_series_coefficients(monkeypatch):
    def fail(*args):
        raise AssertionError("the root search recentered or took a polygon through PolyX")

    cases = list(root_search_cases(random.Random(21)))
    want = [search_outcome(minpoly_over_completion, a, budget) for _, a, budget in cases]
    monkeypatch.setattr(PolyX, "recenter_hasse", fail)
    monkeypatch.setattr(PolyX, "newton_polygon", fail)
    assert [search_outcome(minpoly_over_completion, a, budget) for _, a, budget in cases] == want
    assert not hasattr(algnum, "_residue_equation")


def test_a_guided_search_reads_the_guide_off_its_keys(monkeypatch):
    # every digit of a guided search is the guide's term at v(guide - x), so x is the
    # guide's truncation and v(guide - x) its next key above the last digit: the search
    # keeps its digits in one dict, answers as the series search did, and takes no
    # difference of series
    cases = [(kind, a, budget) for kind, a, budget in root_search_cases(random.Random(23))
             if a.expansion.ram == 1]
    want = [search_outcome(reference.minpoly_over_completion, a, budget) for _, a, budget in cases]

    def fail(*args):
        raise AssertionError("the guided search took v(guide - x) off the series")

    monkeypatch.setattr(PuiseuxSeries, "val_sub", fail)
    got = [search_outcome(minpoly_over_completion, a, budget) for _, a, budget in cases]
    assert got == want
    assert sum(g[0] is Linear and len(g[4]) > 1 for g in got) >= 20  # roots of several digits


class RecordedRows(polyx.ShiftRows):
    """The row state, recording (itself, x, rows, slot width) at every partial sum x."""
    steps = []

    def __init__(self, field, coeffs):
        super().__init__(field, coeffs)
        self.x = {}
        RecordedRows.steps.append((self, {}, self.rows, None))

    def shift(self, c, mu):
        super().shift(c, mu)
        self.x[mu] = c
        RecordedRows.steps.append((self, dict(self.x), self.rows, self.b))


def hasse_rows(state, x):
    """(key, cap, scalar) of each C_i of PolyX.recenter_hasse at x, with their types."""
    f = state.field
    C = PolyX.from_series(f, state.cs).recenter_hasse(PuiseuxSeries.from_terms(f, x))
    return [(Fraction(min(c.coeffs), c.ram), type(c.prec), c.prec, type(c.coeffs[min(c.coeffs)]),
             c.coeffs[min(c.coeffs)]) if c.coeffs
            else (None, type(c.prec), c.prec, type(None), None) for c in C]


def row_values(state, rows):
    return [(None if k is None else Fraction(k, state.e), type(cap), cap, type(x), x)
            for k, cap, x in rows]


def negative_cases():
    """(kind, AlgElement, budget) with digits below t^0: t^-1 sqrt(1 + c t) for the certificate
    X^2 - (1 + c t)/t^2, and planted roots r with a pole at 0, certificates (X - r) g."""
    rng = random.Random(23)
    for field in (QQ, GF(3), GF(5), GF(7)):
        c = small_scalar(field, rng)
        Q = PolyX.from_ratfuncs(field, [-RatFunc(field, [1, c], [0, 0, 1]), RatFunc.zero(field),
                                        RatFunc.one(field)])
        s = (PuiseuxSeries.from_terms(field, sqrt_terms(field, c, 12))
             * PuiseuxSeries.t_power(field, -1))
        yield "negative", AlgElement(s, Q, True), 10
        r = RatFunc(field, [small_scalar(field, rng) for _ in range(5)], [0, 0, 1])
        Q = PolyX.from_ratfuncs(field, [-r, RatFunc.one(field)]) * random_k_poly(field, rng, 2)
        yield "negative", AlgElement(unguided(field, rng), Q, True), 8


def test_the_rows_are_the_recentered_coefficients_at_every_step(monkeypatch):
    # at every partial sum of every search, row i is the least key, the cap and the scalar
    # there of C_i as PolyX.recenter_hasse builds it in the completion
    monkeypatch.setattr(algnum, "ShiftRows", RecordedRows)
    seen = {"steps": 0, "digits": 0, "capped rows": 0, "scalars": 0, "negative keys": 0}
    for kind, a, budget in [*root_search_cases(random.Random(20)), *negative_cases()]:
        RecordedRows.steps.clear()
        search_outcome(minpoly_over_completion, a, budget)
        for state, x, rows, _ in RecordedRows.steps:
            assert row_values(state, rows) == hasse_rows(state, x), (kind, a, budget, x)
            seen["steps"] += 1
            seen["digits"] += bool(x)
            seen["capped rows"] += sum(cap is not None for _, cap, _ in rows)
            seen["scalars"] += sum(s is not None for *_, s in rows)
            seen["negative keys"] += any(mu < 0 for mu in x)
    assert min(seen.values()) >= 20, seen


def planted_additive(p, r, n):
    """X^(p^r) - X - (a^(p^r) - a) over F_p, whose root a = t - t^2 + t^3 - ... has n terms."""
    F = GF(p)
    a = RatFunc(F, [0] + [(-1) ** k % p for k in range(n)])
    return a, PolyX.from_ratfuncs(F, [-(a ** (p ** r) - a), -RatFunc.one(F)]
                                  + [RatFunc.zero(F)] * (p ** r - 2) + [RatFunc.one(F)])


def test_long_searches_widen_the_slots_and_reduce_them_mod_p(monkeypatch):
    # sqrt(1 + c t) over Q: the digits' denominators grow like 4^k, and the slots widen.
    # Over F_2 and F_3, at budget 64, the Artin-Schreier tower keeps its slots; additive
    # certificates X^(p^r) - X - u of high degree outgrow them, and each repack reduces
    # the slots mod p, so the width stays put
    repacked, real = [], polyx._slots

    def unpack(v, b):  # records each repacked row's largest slot before any reduction
        slots = real(v, b)
        repacked.append(max(slots, default=0))
        return slots

    monkeypatch.setattr(algnum, "ShiftRows", RecordedRows)
    monkeypatch.setattr(polyx, "_slots", unpack)
    for c, budget in ((1, 30), (Fraction(3, 2), 40), (-2, 48)):
        Q = PolyX.from_ratfuncs(QQ, [-RatFunc(QQ, [1, c]), RatFunc.zero(QQ), RatFunc.one(QQ)])
        for s in (unguided(QQ, random.Random(1)), PuiseuxSeries.from_terms(
                QQ, sqrt_terms(QQ, c, budget + 3))):
            RecordedRows.steps.clear()
            res = minpoly_over_completion(AlgElement(s, Q, True), budget)
            assert res.root == PuiseuxSeries.from_terms(QQ, sqrt_terms(QQ, c, budget), budget)
            widths = [b for *_, b in RecordedRows.steps[1:]]
            assert widths == sorted(widths) and widths[-1] > widths[0], (c, widths)
            state, x, rows, _ = RecordedRows.steps[-1]
            assert row_values(state, rows) == hasse_rows(state, x)
    for p in (2, 3):  # the tower: few digits, the slots never repacked
        repacked.clear()
        Q = polyx_from_text(GF(p), f"X^{p} - X + t")
        res = minpoly_over_completion(AlgElement(unguided(GF(p), random.Random(2)), Q, True), 64)
        assert res.root == PuiseuxSeries.from_terms(
            GF(p), {Fraction(p**k): 1 for k in range(7) if p**k < 64}, 64)
        assert not repacked
    for p, r in ((2, 4), (3, 3)):
        a, Q = planted_additive(p, r, 70)
        for s in (unguided(GF(p), random.Random(3)), a.to_series()):
            RecordedRows.steps.clear()
            repacked.clear()
            res = minpoly_over_completion(AlgElement(s, Q, True), 64)
            assert res.root == a.to_series().truncate(64)
            widths = {b for *_, b in RecordedRows.steps[1:]}
            assert max(repacked) >= p and len(widths) <= 2, (p, r, widths, repacked)
            state, x, rows, _ = RecordedRows.steps[-1]
            assert row_values(state, rows) == hasse_rows(state, x)


def test_the_search_builds_the_point_images_once_and_no_profile(monkeypatch):
    # Q's coefficients are mapped to integers once per search, at its first digit, and no
    # step packs the certificate again through polyx._packed_values
    def fail(*args):
        raise AssertionError("the root search packed the certificate again")

    built, real = [], polyx.point_images
    monkeypatch.setattr(polyx, "_packed_values", fail)
    monkeypatch.setattr(polyx, "point_images", lambda s: built.append(s) or real(s))
    monkeypatch.setattr(algnum, "ShiftRows", RecordedRows)
    seen = {"digits": 0, "none": 0}
    for kind, a, budget in root_search_cases(random.Random(22)):
        built.clear()
        RecordedRows.steps.clear()
        search_outcome(minpoly_over_completion, a, budget)
        state = RecordedRows.steps[0][0] if RecordedRows.steps else None
        digits = len(RecordedRows.steps) - 1
        want = state.cs if digits > 0 else []
        assert [id(s) for s in built] == [id(s) for s in want], (kind, a, budget)
        seen["digits" if digits > 0 else "none"] += 1
    assert min(seen.values()) >= 10, seen
