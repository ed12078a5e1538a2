import random
from fractions import Fraction

import pytest

from valwb.groupval import FIN0, GroupVal
from valwb.errors import WorkbenchError


def test_addition():
    assert GroupVal.fin(Fraction(1, 2)) + GroupVal.fin(Fraction(1, 3)) == \
        GroupVal.fin(Fraction(5, 6))
    assert GroupVal.lex(1, 0) + GroupVal.fin(Fraction(2, 3)) == \
        GroupVal.lex(1, Fraction(2, 3))
    assert GroupVal.posinf() + GroupVal.lex(-3, 7) == GroupVal.posinf()


def test_comparisons():
    assert GroupVal.lex(1, 0) > GroupVal.fin(10**9)
    assert GroupVal.fin(Fraction(2, 4)) == GroupVal.fin(Fraction(1, 2))
    assert GroupVal.fin(3) < GroupVal.posinf()


def test_canonicalization():
    # the embedded rationals are exactly the zero-z layer
    assert GroupVal.lex(0, Fraction(-5)) == GroupVal.fin(-5)
    assert GroupVal.lex(0, Fraction(-5)).is_fin


def test_torsion_mod_base():
    assert GroupVal.fin(Fraction(7, 3)).is_torsion_mod_base()
    assert not GroupVal.lex(1, 0).is_torsion_mod_base()
    assert GroupVal.lex(0, -5).is_torsion_mod_base()
    with pytest.raises(WorkbenchError):
        GroupVal.posinf().is_torsion_mod_base()


def test_group_laws_random():
    rng = random.Random(7)
    pool = [GroupVal.fin(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(20)]
    pool += [GroupVal.lex(rng.randint(-3, 3), Fraction(rng.randint(-9, 9), 2))
             for _ in range(20)]
    for _ in range(300):
        u, v, w = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert u + v == v + u
        assert (u + v) + w == u + (v + w)
        assert u + FIN0 == u
        if u < v:
            assert u + w < v + w


def test_scalar_multiple_and_negation():
    g = GroupVal.lex(2, Fraction(1, 3))
    assert g * 3 == GroupVal.lex(6, 1)
    assert g + (-g) == FIN0
    with pytest.raises(WorkbenchError):
        -GroupVal.posinf()


def test_text_round_trip():
    for g in (GroupVal.fin(Fraction(7, 3)), GroupVal.lex(-2, Fraction(1, 2)),
              GroupVal.posinf(), FIN0):
        assert GroupVal.from_text(g.to_text()) == g

