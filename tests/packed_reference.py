"""The reference for the center plan: polyx._packed_values as it was before the work
that depends on the center alone moved into polyx.ShiftPlan, so that each call
rebuilds the center's integer images, key range, value and p/q scale itself.  It
packs every M_j in full, one shift per entry, with its own copies of the slot
writer and reader as they were before they read and wrote slots in bulk.
A helper module, not a test file: tests compare the kept kernel against it."""

import math
from fractions import Fraction

from valwb.errors import PrecisionExhausted, WorkbenchError
from valwb.field import BaseField
from valwb.polyx import LEAD_UNDECIDED, _hasse_binomials, _over_lcm
from valwb.series import RatFunc, common_denominator, expansion_prec, lattice_cap, tp_ord


def _pack(vs, bits) -> int:
    """The sum of vs[i] * 2^(bits*i), built pairwise to halve the shifts."""
    while len(vs) > 1:
        pairs = iter(vs + [0])  # an unpaired last 0 drops out of the zip
        vs = [x + (y << bits) for x, y in zip(pairs, pairs)]
        bits *= 2
    return vs[0]


def _least_key(v: int, b: int, p: int, lo: int, cap):
    """lo + the least b-bit slot of v >= 0 nonzero (mod p) if below the key cap, else None,
    over F_p read off the bytes one slot at a time, to the end of v."""
    k = ((v & -v).bit_length() - 1) // b if v else math.inf
    if p and v:
        raw = (v >> b * k).to_bytes(v.bit_length() // 8 + 1, "little")
        k += next((8 * i // b for i in range(0, len(raw), b // 8)
                   if int.from_bytes(raw[i:i + b // 8], "little") % p), math.inf)
    return k + lo if k + lo < cap else None


def old_packed_values(field: BaseField, coeffs, a) -> tuple:
    """:meth:`PolyX.recentered_values` for c_j = M_j/L, M_j and L in k[t], at a center
    a = s^lo A(s)/Q(s), s = t^(1/e), lo <= 0, Q(0) != 0: one packed Taylor shift of the
    M_j Q^(n-j) by A (README).  Q is constant at a Puiseux or polynomial center, and
    q/t^(ord q) at p/q in K or its expansion.  At a Puiseux center, an expansion included,
    rows keep the caps of the series path, and a pole c_j is known to O(t^P)."""
    n, p = len(coeffs) - 1, field.char
    e, prec, terms, pq = (  # pq: a = p/q in K, when known
        (1, None, {k: x for k, x in enumerate(a.nq[0], -tp_ord(a.dq[0])) if x}, a)
        if isinstance(a, RatFunc) else (a.ram, a.prec, a.coeffs, a.source))
    pole = P = None
    ords = [tp_ord(c.nq[0]) for c in coeffs]  # v(c_j)
    if any(len(c.dq[0]) > 1 for c in coeffs):
        pole = [len(c.dq[0]) > 1 for c in coeffs]
        ords = [o - tp_ord(c.dq[0]) if pl else o for o, c, pl in zip(ords, coeffs, pole)]
        if not isinstance(a, RatFunc):
            P = expansion_prec(prec)
    # a row without terms is c_i; a pole c_i is an unknown zero from P on
    direct = [(None if o is None else o * e, None) for o in ords]
    if P is not None:
        if pole[n] and ords[n] >= P:
            raise PrecisionExhausted(LEAD_UNDECIDED)
        direct = [(k if o < P else None, P) if pl else (k, cap)
                  for o, pl, (k, cap) in zip(ords, pole, direct)]
    if n < 1 or a.is_exact_zero():  # every shifted term carries a power of 0
        return e, direct
    if a.field != field:
        raise WorkbenchError("base field mismatch")
    vn, vd = (min(terms), e) if terms else (prec.numerator, prec.denominator)  # val a
    hasse = _hasse_binomials(field, n)
    w = [math.inf if o is None else o * vd + j * vn for j, o in enumerate(ords)]
    least = [min((w[j] for j, _ in row), default=math.inf) for row in hasse]
    base = prec  # row i's cap: ord c_j + Pa + (j - i - 1)v over its row, in closed form
    if P is not None:  # a pole c_j adds P + (j - i)v to row i, and P to its own row
        pw = [(j + 1) * vn if pl else math.inf for j, pl in enumerate(pole)]
        cw = pw if prec is None else [min(x, y) for x, y in zip(w, pw)]
        bounds = []  # inf for a row without terms, None for one without a cap
        for i, (m, row) in enumerate(zip(least, hasse)):
            c = min([pw[i]] + [cw[j] for j, _ in row])
            bounds.append(m if m == math.inf else None if c == math.inf else c)
        base, least = P, bounds
    live = [None if m == math.inf else (cap := None if base is None or m is None else Fraction(
        base.numerator * vd + (m - (i + 1) * vn) * base.denominator, base.denominator * vd),
        lattice_cap(cap, e)) for i, m in enumerate(least)]
    nums, _ = common_denominator([c.nq for c in coeffs])  # the N_j over one denominator
    shift = dm = 0  # dm bounds deg M_j Q^(n-j) - deg N_j
    if exact := pq is not None and not pq.is_polynomial():  # a pole: one pass, no window
        tq = tp_ord(pq.dq[0])  # t^(ord q) moves into lo; A and Q at one scale
        terms = {k: x for k, x in enumerate(pq.nq[0], -tq) if x}
        (ys, zs), _ = common_denominator([(list(terms.values()), pq.nq[1]),
                                          (pq.dq[0][tq:], pq.dq[1])])
        q1, dm = sum(map(abs, zs)), n * e * (len(zs) - 1)
    else:
        ys, q1 = (list(terms.values()), a.nq[1]) if pq is a else field.as_integers(terms.values())
    lo = min(0, min(terms, default=0))
    l1 = (n + 1) * sum(sum(map(abs, m)) for m in nums) * q1**n * (1 + sum(map(abs, ys)))**n
    if pole:  # M_j = N_j L/D_j, ord M_j = v(c_j) + shift
        cofs, L = _over_lcm(field, coeffs)
        l1, shift = l1 * max(sum(map(abs, c)) for c in cofs), tp_ord(L)
        dm += e * len(L) - e
    b = l1.bit_length() // 8 * 8 + 8  # l1 bounds every output
    Q = _pack(zs, b * e) if exact else q1
    M = [sum(x << b * e * k for k, x in enumerate(m) if x) * Q**(n - j)
         << b * -lo * (n - j) for j, m in enumerate(nums)]
    if pole:
        M = [v * _pack(c, b * e) for v, c in zip(M, cofs)]
    es = e * shift  # row i's slot 0 has the key lo(n - i) - es
    limit = math.inf if base is None else max(row[1] - lo * (n - i) + es
                                              for i, row in enumerate(live) if row)
    if limit == math.inf or exact:  # an uncapped row, or one pass at p/q: every slot at most
        limit = min(limit, 1 + dm + max(e * len(m) - e - lo * (n - j) + j * (max(terms) - lo)
                                        for j, m in enumerate(nums) if m))
    width = limit if exact else min(
        limit, e * (ords[n] + shift) + n * (min(terms, default=lo) - lo) + 1)
    while True:
        mask = (1 << b * max(width, 0)) - 1
        A = sum(y << b * (k - lo) for k, y in zip(terms, ys) if k - lo < width) & mask
        S = [m & mask for m in M]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                S[j] = (S[j] + A * S[j + 1]) & mask
        rows = [(_least_key(S[i], b, p, lo * (n - i) - es, row[1]), row[0]) if row else direct[i]
                for i, row in enumerate(live)]
        if width >= limit or all(k is not None for (k, _), row in zip(rows, live) if row):
            return e, rows
        width = min(2 * width, limit)
