"""The base fields' integer questions, all read off one factorization: the
characteristic's primality and the roots of unity."""

import math
from fractions import Fraction

import pytest

from valwb import field
from valwb.errors import WorkbenchError
from valwb.field import GF, MAX_PRIME, QQ, BaseField, prime_factors


def sieve(n):
    """The primes up to n, by Eratosthenes."""
    prime = [False, False] + [True] * (n - 1)
    for d in range(2, n + 1):
        if prime[d]:
            prime[2 * d::d] = [False] * len(prime[2 * d::d])
    return {d for d in range(n + 1) if prime[d]}


def test_prime_factors_is_the_sorted_factorization_into_primes():
    primes = sieve(5000)
    for n in range(-3, 2):
        assert prime_factors(n) == []
    for n in range(2, 5001):
        got = prime_factors(n)
        assert math.prod(got) == n and got == sorted(got) and set(got) <= primes, n
        assert (got == [n]) == (n in primes), n


def test_a_characteristic_is_refused_unless_prime():
    assert BaseField(2**31 - 1).char == 2**31 - 1
    for char in (1, 4, 91, 2**31 - 3, -7):
        with pytest.raises(WorkbenchError, match=f"^characteristic {char} is not prime$"):
            BaseField(char)


def test_a_characteristic_at_or_above_the_bound_is_refused_before_any_trial_division(
        monkeypatch):
    def factor(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(field, "prime_factors", factor)
    for make, char in ((BaseField, 2**31), (GF, 2**31 + 11)):
        with pytest.raises(WorkbenchError,
                           match=f"^characteristic {char} exceeds the bound {MAX_PRIME}$"):
            make(char)


def order(z, p):
    k, x = 1, z
    while x != 1:
        k, x = k + 1, x * z % p
    return k


def test_root_of_unity_is_the_first_generator_power_of_exact_order():
    for p in sorted(sieve(199)):
        F = GF(p)
        for e in range(1, p + 2):
            if (p - 1) % e:
                assert F.root_of_unity(e) is None, (p, e)
                continue
            # g = 1 gives z = 1, which only e = 1 takes
            want = next(z for z in (pow(g, (p - 1) // e, p) for g in range(1, p))
                        if order(z, p) == e)
            assert F.root_of_unity(e) == want, (p, e)


def test_root_of_unity_over_q_is_plus_or_minus_one():
    assert QQ.root_of_unity(1) == Fraction(1)
    assert QQ.root_of_unity(2) == Fraction(-1)
    assert [QQ.root_of_unity(e) for e in range(3, 13)] == [None] * 10
