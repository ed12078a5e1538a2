"""The reference for RatFunc's remainder kernels: series._divide and series._gcd as they were
before the window, each pseudo-division step rebuilding the whole remainder list and, over Q,
multiplying every pending coefficient by lead(b).  A helper module, not a test file: tests
compare the kept kernels against it."""

import math

from valwb.series import tp_trim


def _divide(a, b, p):
    """a/b on integer images if b, primitive over Q (monic over F_p), divides a, else None."""
    r, m, q = list(a), len(b) - 1, []
    for i in range(len(a) - 1 - m, -1, -1):
        q.append(r[i + m] % p if p else r[i + m] // b[-1])
        r[i:i + m + 1] = [x - q[-1] * y for x, y in zip(r[i:i + m + 1], b)]
    return None if any(x % p if p else x for x in r) else q[::-1]


def _gcd(a, b, p) -> list:
    """A gcd of integer images, primitive over Q (monic over F_p), by pseudo-remainders:
    b itself if it divides a, so b enters primitive (monic)."""
    while b:
        r = a
        while len(r) >= len(b):  # b_top r - r_top t^s b has a lower degree
            s, top = len(r) - len(b), r[-1]
            r = [x * b[-1] - (top * b[i - s] if i >= s else 0) for i, x in enumerate(r[:-1])]
            r = tp_trim([x % p for x in r] if p else r)
        if r:  # the primitive part, or the monic associate
            g = pow(r[-1], -1, p) if p else math.gcd(*r) * (1 if r[-1] > 0 else -1)
            r = [x * g % p for x in r] if p else [x // g for x in r]
        a, b = b, r
    return a
