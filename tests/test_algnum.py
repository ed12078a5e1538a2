import math
import random
from fractions import Fraction

import pytest

from valwb.algnum import (
    AlgElement,
    Linear,
    NoRootFound,
    _divisors,
    _residue_roots,
    artin_schreier_translate,
    attach_minpoly,
    conjugates,
    galois_twist,
    krasner_constant,
    minpoly_over_completion,
)
from valwb.errors import NotARoot, Uncertified
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb.polyx import PolyX, polyx_from_text
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
    roots = []
    for P in _divisors(abs(ints[0])):
        for Q in _divisors(abs(ints[-1])):
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
