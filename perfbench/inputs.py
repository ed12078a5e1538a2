"""Seeded inputs and independent oracles for the valwb benchmark.

Every request is built from data whose answer is known in closed form, and
the expected answer is computed here, never by the code under test:

* ``exact-eval``: an eval input is built in recentred form
  f = sum c_i (X - a)^i with chosen t-orders v(c_i), so its value under the
  monomial spec (a, gamma) is min(v(c_i) + i*gamma).  A delta input is built
  from chosen roots r_j, so delta = max_j min(gamma, v(a - r_j)).  The
  expansion to ordinary coefficients uses this module's own polynomial
  arithmetic in t.
* ``completion``: closed forms of the built-in sequences (gamma_m, limits,
  extension kinds), v(X - r) = min(gamma, v(c - r)) under a monomial spec,
  the Krasner constant k/n of b + c*t^(k/n), and the binomial series of a
  square root.  Density results are re-checked the way the selftest does.

A request is ``Request(kind, op, args, judge)``: the benchmark calls
``getattr(valwb, op)(*args)`` (looked up at call time, so a traced run sees
the wrapped function) and hands the result, or the exception, to ``judge``.
``judge`` returns one of the outcomes below and a one-line detail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

OK = "ok"
UNDECIDABLE = "undecidable"   # PrecisionExhausted / HorizonExceeded the caps honestly force
FAILED = "failed"             # a refusal on data that determine the answer, or a known defect
WRONG = "wrong"               # an answer that contradicts the oracle, or an unexpected exception

UNDECIDABLE_ERRORS = ("PrecisionExhausted", "HorizonExceeded")


@dataclass
class Request:
    kind: str
    op: str
    args: tuple
    judge: object   # (result, exception) -> (outcome, detail)


# ---------------------------------------------------------------------------
# scalar and t-polynomial arithmetic of the oracle (independent of valwb)
# ---------------------------------------------------------------------------

def _red(p, x):
    return x % p if p else x


def _scalar(rng, p, nonzero=False):
    if p:
        return rng.randrange(1 if nonzero else 0, p)
    num = rng.randint(-5, 5)
    if nonzero and num == 0:
        num = rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, 3))


def _from_fraction(p, q):
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, p) % p if p else q


def t_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def t_add(p, a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = _red(p, out[i] + x)
    return t_trim(out)


def t_mul(p, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = _red(p, out[i + j] + x * y)
    return t_trim(out)


def t_neg(p, a):
    return [_red(p, -x) for x in a]


def t_mono(k, c=1):
    """c * t^k."""
    return [0] * k + [c] if c else []


def t_unit(rng, p, deg):
    """A polynomial in t of degree <= deg with nonzero constant term."""
    return t_trim([_scalar(rng, p, nonzero=True)] + [_scalar(rng, p) for _ in range(deg)])


def x_mul(p, f, g):
    """Product of polynomials in X whose coefficients are t-polynomials."""
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = t_add(p, out[i + j], t_mul(p, a, b))
    return out


def _field(vw, p):
    return vw.QQ if p == 0 else vw.GF(p)


def _polyx_over_k(vw, p, nums, den):
    """The valwb polynomial sum_k (nums[k] / den) X^k over K."""
    field = _field(vw, p)
    return vw.PolyX.from_ratfuncs(field, [vw.RatFunc(field, n, den) for n in nums])


def _as_dict(s):
    """{exponent: scalar} of a valwb series, read off its fields."""
    return {Fraction(n, s.ram): c for n, c in s.coeffs.items()}


def _fin(vw, q):
    return vw.GroupVal.fin(Fraction(q))


def _error_name(exc):
    return type(exc).__name__


def _judge_value(expected, undecidable_ok=False, name="value"):
    """Judge a GroupVal answer against a closed-form rational.

    ``expected`` is a Fraction.  An undecidable result is honest when
    ``undecidable_ok``; on exact or fully determined data it is a failure.
    """
    def judge(result, exc):
        if exc is not None:
            if _error_name(exc) in UNDECIDABLE_ERRORS:
                if undecidable_ok:
                    return UNDECIDABLE, _error_name(exc)
                return FAILED, f"{_error_name(exc)} on determined data: {exc}"
            return WRONG, f"unexpected {_error_name(exc)}: {exc}"
        if result.is_fin and result.q == expected:
            return OK, ""
        return WRONG, f"{name} {result.to_text()}, expected {expected}"
    return judge


# ---------------------------------------------------------------------------
# exact-eval: K-exact inputs under gauss and monomial specs
# ---------------------------------------------------------------------------

EXACT_CHARS = (0, 2, 3, 7)
EXACT_GAMMAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                Fraction(5, 2), Fraction(4))
# t-orders of the coefficients (eval) or of the root distances (delta): well
# below the precision cap of 64, or close to it on either side
EXACT_DEPTHS = {"shallow": (0, 12), "below": (52, 56), "above": (62, 70)}
EXACT_SPREAD = 8              # a deep input's orders lie in [base, base + 8]
# Three cheap shallow inputs to two deep ones keeps the median request inside
# the shallow cluster and the 90th percentile inside the deep one.
EXACT_DEPTH_MIX = ("shallow", "shallow", "shallow", "below", "above")
EXACT_MAX_DEGREE = 8
EXACT_DEEP_ROOTS = 2          # roots of a deep delta input near the center


@dataclass
class ExactSpec:
    spec: object
    p: int
    alpha: list     # center a = alpha / beta, an element of K
    beta: list
    gamma: Fraction
    center_pole: bool   # the reduced center has a nonconstant denominator


# centers a = alpha / beta of the monomial specs: 1 + t, and 1/(1 + t) and
# (1 + t + t^2)/(1 + t), which keep their pole in every characteristic of
# EXACT_CHARS (their expansions at the cap of 64 are dense)
EXACT_CENTERS = (([1, 1], [1]), ([1], [1, 1]), ([1, 1, 1], [1, 1]))


def exact_specs(vw):
    """The reused pool, the same for every seed: per characteristic, gauss
    and one monomial spec per center of EXACT_CENTERS."""
    pool = []
    for p in EXACT_CHARS:
        field = _field(vw, p)
        pool.append(ExactSpec(vw.ValuationSpec.gauss(field), p, [], [1], Fraction(0), False))
        for alpha, beta in EXACT_CENTERS:
            alpha = t_trim([_from_fraction(p, x) for x in alpha])
            beta = t_trim([_from_fraction(p, x) for x in beta])
            gamma = EXACT_GAMMAS[len(pool) % len(EXACT_GAMMAS)]
            center = vw.RatFunc(field, alpha, beta)
            spec = vw.ValuationSpec.monomial(center, _fin(vw, gamma))
            pool.append(ExactSpec(spec, p, alpha, beta, gamma, len(center.den) > 1))
    return pool


def _orders(rng, depth, n):
    if depth == "shallow":
        return [rng.randint(*EXACT_DEPTHS[depth]) for _ in range(n)]
    base = rng.randint(*EXACT_DEPTHS[depth])
    return [base + rng.randint(0, EXACT_SPREAD) for _ in range(n)]


def _pole_factor(rng, p, poles):
    """A denominator D with D(0) != 0: of degree 2 when ``poles``."""
    if not poles:
        return [1]
    return [_scalar(rng, p, nonzero=True), _scalar(rng, p), _scalar(rng, p, nonzero=True)]


def _exact_kind(op, depth, poles, es):
    center = "/center-pole" if es.center_pole else ""
    return f"{op}/{depth}/{'pole' if poles else 'poly'}{center}"


def t_order(c):
    """t-adic order of a nonzero t-polynomial."""
    return next(i for i, x in enumerate(c) if x)


def recentred_input(vw, p, alpha, beta, gamma, coeffs, den):
    """f = sum_i (coeffs[i] / den) (X - alpha/beta)^i over K, and its value
    min_i(ord coeffs[i] + i*gamma) under the monomial spec at alpha/beta,
    given den(0) != 0 and beta(0) != 0."""
    n = len(coeffs) - 1
    # numerators of f * den * beta^n: sum_i c_i beta^(n-i) (beta X - alpha)^i
    lin = [t_neg(p, alpha), list(beta)]
    power = [[1]]
    beta_pow = [[1]]
    for _ in range(n):
        beta_pow.append(t_mul(p, beta_pow[-1], beta))
    nums = [[] for _ in range(n + 1)]
    for i, c in enumerate(coeffs):
        c = t_mul(p, c, beta_pow[n - i])
        for k, coeff in enumerate(power):
            nums[k] = t_add(p, nums[k], t_mul(p, c, coeff))
        power = x_mul(p, power, lin)
    f = _polyx_over_k(vw, p, nums, t_mul(p, den, beta_pow[n]))
    return f, min(t_order(c) + i * gamma for i, c in enumerate(coeffs) if c)


def rooted_input(vw, p, alpha, beta, gamma, lead, den, shifts):
    """f = (lead / den) prod_j (X - r_j) with r_j = alpha/beta + shifts[j]
    (shifts are t-polynomials; [] puts the root at the center), and
    delta(f) = max_j min(gamma, ord shifts[j]) under the monomial spec."""
    nums = [lead]
    beta_pow = [1]
    for shift in shifts:
        # beta (X - r_j) = beta X - (alpha + beta shift)
        nums = x_mul(p, nums, [t_neg(p, t_add(p, alpha, t_mul(p, beta, shift))), list(beta)])
        beta_pow = t_mul(p, beta_pow, beta)
    f = _polyx_over_k(vw, p, nums, t_mul(p, den, beta_pow))
    return f, max(min(gamma, t_order(s)) if s else gamma for s in shifts)


def exact_eval_request(vw, rng, es: ExactSpec, n, depth, poles) -> Request:
    """c_i = t^(o_i) u_i with the orders o_i drawn at ``depth``."""
    coeffs = [t_mul(es.p, t_mono(o), t_unit(rng, es.p, 1)) for o in _orders(rng, depth, n + 1)]
    f, expected = recentred_input(vw, es.p, es.alpha, es.beta, es.gamma, coeffs,
                                  _pole_factor(rng, es.p, poles))
    return Request(_exact_kind("eval", depth, poles, es), "eval_spec", (es.spec, f),
                   _judge_value(expected))


def exact_delta_request(vw, rng, es: ExactSpec, n, depth, poles) -> Request:
    """The first EXACT_DEEP_ROOTS root distances are drawn at ``depth``, the
    others shallow; when 3 | n the last root sits at the center."""
    p = es.p
    den = _pole_factor(rng, p, poles)
    lead = t_mul(p, t_mono(rng.randint(0, 4)), t_unit(rng, p, 1))
    shifts = []
    for j in range(n):
        if j == n - 1 and n % 3 == 0:
            shifts.append([])
        else:
            dist = _orders(rng, depth if j < EXACT_DEEP_ROOTS else "shallow", 1)[0]
            shifts.append(t_mul(p, t_mono(dist), t_unit(rng, p, 1)))
    f, expected = rooted_input(vw, p, es.alpha, es.beta, es.gamma, lead, den, shifts)
    return Request(_exact_kind("delta", depth, poles, es), "delta", (es.spec, f),
                   _judge_value(expected, name="delta"))


def exact_eval_requests(vw, seed, blocks):
    """``blocks`` copies of the sweep: eval and delta, degree 1 to 8, with and
    without a pole factor, three shallow inputs to one just below and one just
    above the precision cap.  Specs are dealt from the reused pool by
    position, so the stratum-to-spec map is the same for every seed; only
    values inside a stratum depend on the seed."""
    rng = random.Random(f"exact-eval:{seed}")
    specs = exact_specs(vw)
    out = []
    for _ in range(blocks):
        for make in (exact_eval_request, exact_delta_request):
            for n in range(1, EXACT_MAX_DEGREE + 1):
                for poles in (False, True):
                    for depth in EXACT_DEPTH_MIX:
                        # offset by the group count so depth and spec decorrelate
                        es = specs[(len(out) + len(out) // len(EXACT_DEPTH_MIX)) % len(specs)]
                        out.append(make(vw, rng, es, n, depth, poles))
    return out


# ---------------------------------------------------------------------------
# completion: series coefficients, limit specs and algebraic centers
# ---------------------------------------------------------------------------

TYPE_I = "ValuationAlgebraicTypeI"
TYPE_II = "ValuationAlgebraicTypeII"

# name, characteristic, horizons, gamma_m, exponent -> coefficient of the limit
GENERATORS = {
    "artin-schreier(2)": (2, (4, 9), lambda m: Fraction(2 ** (m + 1))),
    "artin-schreier(3)": (3, (3, 6), lambda m: Fraction(3 ** (m + 1))),
    "exponential": (0, (5, 14), lambda m: Fraction(m + 1)),
    "mixed-radix(2,3)": (0, (5, 8), lambda m: Fraction(3 ** (m + 1), 2 ** (m + 1))),
}


def limit_terms(name, m):
    """{exponent: coefficient} of a_m, the m-th element, from its closed form."""
    if name.startswith("artin-schreier"):
        p = GENERATORS[name][0]
        return {Fraction(p ** n): 1 for n in range(m + 1)}
    if name == "exponential":
        fact, out = 1, {}
        for n in range(m + 1):
            fact *= max(n, 1)
            out[Fraction(n)] = Fraction(1, fact)
        return out
    return {Fraction(3 ** n, 2 ** n): Fraction(1) for n in range(m + 1)}


def generator_kind(name, horizon):
    """(accepted kinds, known-defect kind or None).

    Artin-Schreier and exponential limits lie in k((t)): type II.  The
    mixed-radix sequence is of transcendental type (Example 6.3): type I.
    Below horizon 7 its denominators (at most 2^6) stay under the ramification
    cap, no evidence fires, and a correct classifier must say "inconclusive";
    the classifier at this commit says type II instead (ROADMAP item 2).
    """
    if name == "mixed-radix(2,3)":
        return (TYPE_I,), (TYPE_II if horizon <= 6 else None)
    return (TYPE_II,), None


def _series(vw, p, terms, prec=None):
    return vw.PuiseuxSeries.from_terms(_field(vw, p), terms, prec)


def _linear(vw, p, root):
    field = _field(vw, p)
    return vw.PolyX.from_series(field, [-root, vw.PuiseuxSeries.one(field)])


def _random_series(vw, rng, p, prec, ram, depth):
    terms = {}
    for _ in range(depth):
        terms[Fraction(rng.randint(0, int(prec * ram) - 1), ram)] = _scalar(rng, p)
    return _series(vw, p, terms, prec)


def _random_monic(vw, rng, p, degree, prec):
    field = _field(vw, p)
    coeffs = [_random_series(vw, rng, p, prec, 1, rng.randint(2, 5)) for _ in range(degree)]
    return vw.PolyX.from_series(field, coeffs + [vw.PuiseuxSeries.one(field)])


def _judge_density(vw, f, g, alpha, spec_of):
    """Degrees kept, outputs over K, and the quotient inequality re-checked
    by independent evaluation, as the selftest's density check does."""
    def judge(result, exc):
        if exc is not None:
            if _error_name(exc) in UNDECIDABLE_ERRORS:
                return UNDECIDABLE, _error_name(exc)
            return WRONG, f"unexpected {_error_name(exc)}: {exc}"
        fp, gp = result.f_prime, result.g_prime
        if fp.domain != "ratfunc" or gp.domain != "ratfunc":
            return WRONG, "approximation not over K"
        if fp.degree() != f.degree() or gp.degree() != g.degree():
            return WRONG, "degree not preserved"
        spec = spec_of()
        num = f * gp - fp * g
        if num.is_zero():
            return OK, ""
        gap = vw.eval_spec(spec, num) - vw.eval_spec(spec, g) - vw.eval_spec(spec, gp)
        if gap > alpha:
            return OK, ""
        return WRONG, f"v(f/g - f'/g') = {gap.to_text()} not above {alpha.to_text()}"
    return judge


def _judge_refused(result, exc):
    """Density is provably impossible here: the answer must be UnsupportedKind."""
    if exc is not None and _error_name(exc) == "UnsupportedKind":
        return OK, ""
    if exc is not None:
        return WRONG, f"unexpected {_error_name(exc)}: {exc}"
    return WRONG, "approximation returned where density is impossible"


def density_request(vw, rng, b, shape, p) -> Request:
    """approximate_density under a gauss, monomial or limit spec, or a
    unique-pair spec where density is provably impossible."""
    # coefficients of f and g have ramification 1 (the output must lie over
    # K); ramification enters through the monomial spec's center
    prec = Fraction((24, 32, 48, 64)[b % 4])
    alpha = _fin(vw, rng.randint(1, 3))
    field = _field(vw, p)
    f = _random_monic(vw, rng, p, 1 + b % 2, prec)
    g = _random_monic(vw, rng, p, (b // 2) % (3 if shape != "pcslimit" else 2), prec)
    if shape == "pcslimit":
        # transcendental-type limit spec, rebuilt per request
        h = 7 + b % 2

        def spec_of():
            return vw.ValuationSpec.pcslimit(vw.builtin_generator("mixed-radix(2,3)", h))
        return Request("density/pcslimit", "approximate_density",
                       (f, g, alpha, _Fresh(spec_of)), _judge_density(vw, f, g, alpha, spec_of))
    if shape == "refused":
        center = _random_series(vw, rng, p, prec, rng.choice((1, 2)), 3)
        spec = vw.ValuationSpec.monomial(center, vw.GroupVal.lex(1, 0))
        return Request("density/refused", "approximate_density", (f, g, alpha, spec),
                       _judge_refused)
    if shape == "gauss":
        spec = vw.ValuationSpec.gauss(field)
    else:
        center = _random_series(vw, rng, p, prec, rng.choice((1, 2, 3)), rng.randint(1, 3))
        spec = vw.ValuationSpec.monomial(center, _fin(vw, rng.choice(
            (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2)))))
    return Request(f"density/{shape}", "approximate_density", (f, g, alpha, spec),
                   _judge_density(vw, f, g, alpha, lambda: spec))


def same_delta_request(vw, rng, b, p, degree) -> Request:
    """f = prod (X - r_j) around a ram-1 center c; v f and delta in closed form."""
    field = _field(vw, p)
    prec = (None, Fraction(16), Fraction(24), Fraction(40))[(b + degree) % 4]
    center_terms = {Fraction(e): _scalar(rng, p) for e in rng.sample(range(7), rng.randint(1, 3))}
    c = _series(vw, p, center_terms, prec)
    gamma = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
                        Fraction(3), Fraction(4)))
    f = vw.PolyX.x_power(field, 0, domain="series")
    distances = []
    while len(distances) < degree:
        if p != 2 and degree - len(distances) >= 2 and rng.random() < 0.3:
            # conjugate pair c +- s t^(k + 1/2): (X - c)^2 - s^2 t^(2k + 1)
            k = rng.randint(0, 3)
            s = _scalar(rng, p, nonzero=True)
            tail = _series(vw, p, {Fraction(2 * k + 1): _red(p, s * s)})
            f = f * vw.PolyX.from_series(field, [c * c - tail, -(c + c),
                                                 vw.PuiseuxSeries.one(field)])
            distances += [Fraction(2 * k + 1, 2)] * 2
        else:
            e = rng.randint(0, 6)
            root = c + _series(vw, p, {Fraction(e): _scalar(rng, p, nonzero=True),
                                       Fraction(e + 2): _scalar(rng, p)})
            f = f * _linear(vw, p, root)
            distances.append(Fraction(e))
    spec = vw.ValuationSpec.monomial(c, _fin(vw, gamma))
    value = sum(min(gamma, d) for d in distances)
    dlt = max(min(gamma, d) for d in distances)
    alpha = _fin(vw, dlt + rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))))

    def judge(result, exc):
        if exc is not None:
            if _error_name(exc) in UNDECIDABLE_ERRORS:
                if prec is not None:
                    return UNDECIDABLE, _error_name(exc)
                # no cap in the data: nothing forces the refusal
                return FAILED, f"{_error_name(exc)} on exact data: {exc}"
            return WRONG, f"unexpected {_error_name(exc)}: {exc}"
        if result.domain != "ratfunc" or result.degree() != f.degree():
            return WRONG, "approximation not over K or degree changed"
        got_v, got_d = vw.eval_spec(spec, result), vw.delta(spec, result)
        if got_v == _fin(vw, value) and got_d == _fin(vw, dlt):
            return OK, ""
        return WRONG, (f"value {got_v.to_text()} / delta {got_d.to_text()}, "
                       f"expected {value} / {dlt}")
    return Request("same_delta", "approximate_same_delta", (f, alpha, spec), judge)


class _Fresh:
    """An argument rebuilt at call time, inside the timed region.

    Limit specs are built once per request, as the CLI does, so a cache keyed
    on the spec object sees no reuse on this workload.
    """

    def __init__(self, make):
        self.make = make


def _pcs_spec(vw, name, h):
    return _Fresh(lambda: vw.ValuationSpec.pcslimit(vw.builtin_generator(name, h)))


def _limit_matches(name, series):
    """The series agrees with the closed-form limit below its cap."""
    cap = series.prec
    m = 0
    while True:
        terms = limit_terms(name, m)
        top = max(terms)
        if top >= cap:
            break
        m += 1
    want = {e: c for e, c in terms.items() if e < cap}
    got = _as_dict(series)
    p = GENERATORS[name][0]
    want = {e: _from_fraction(p, c) for e, c in want.items()}
    return got == want


def pcs_request(vw, rng, b, name, h, op) -> Request:
    """A limit spec built fresh from a built-in generator at horizon h."""
    p, _, gamma = GENERATORS[name]
    spec = _pcs_spec(vw, name, h)
    accepted, defect = generator_kind(name, h)
    if op in ("eval", "delta"):
        # f = prod (X - a_m): v f = sum gamma_m, delta = max gamma_m; decided
        # within the horizon iff every m <= h - 3 (window of three)
        ms = [rng.randint(0, h - 1) for _ in range(rng.randint(1, 2))]
        f = vw.PolyX.x_power(_field(vw, p), 0, domain="series")
        for m in ms:
            f = f * _linear(vw, p, _series(vw, p, limit_terms(name, m)))
        decided = max(ms) <= h - 3
        if op == "eval":
            return Request("pcs/eval", "eval_spec", (spec, f),
                           _judge_value(sum(gamma(m) for m in ms), not decided))
        return Request("pcs/delta", "delta", (spec, f),
                       _judge_value(max(gamma(m) for m in ms), not decided, "delta"))

    def check_kind(kind):
        if kind in accepted:
            return OK, ""
        if kind == defect:
            return FAILED, f"known defect: {name} at horizon {h} classified {kind}"
        return WRONG, f"{name} at horizon {h} classified {kind}"

    def refusal(exc):
        if _error_name(exc) == "HorizonExceeded" and defect is not None:
            return UNDECIDABLE, "HorizonExceeded"
        return WRONG, f"unexpected {_error_name(exc)}: {exc}"

    if op == "classify":
        def judge(result, exc):
            return refusal(exc) if exc is not None else check_kind(result)
        return Request("pcs/classify", "classify_extension", (spec,), judge)
    if op == "induce":
        def judge(result, exc):
            if exc is not None:
                return refusal(exc)
            induced, _ = result
            if induced.over != "Khat":
                return WRONG, "induced spec not over the completion"
            kind = TYPE_II if induced.kind == "monomial" else TYPE_I
            outcome = check_kind(kind)
            if outcome[0] != OK or kind == TYPE_I:
                return outcome
            if induced.gamma != vw.GroupVal.lex(1, 0) or induced.center.prec != gamma(h - 1):
                return WRONG, "induced weight or limit cap off"
            if not _limit_matches(name, induced.center):
                return WRONG, "induced limit differs from the closed form"
            return OK, ""
        return Request("pcs/induce", "induce", (spec,), judge)
    k = rng.randint(0, h - 2)
    seq = vw.CskpSeq([(_linear(vw, p, _series(vw, p, limit_terms(name, m))),
                       _fin(vw, gamma(m))) for m in range(k + 1)])

    def judge(result, exc):
        if exc is not None:
            return refusal(exc)
        lifted, _ = result
        if len(lifted) == len(seq):
            return check_kind(TYPE_I) if lifted == seq else (WRONG, "sequence changed")
        outcome = check_kind(TYPE_II)
        if outcome[0] != OK:
            return outcome
        qhat, dhat = lifted[-1]
        if len(lifted) != len(seq) + 1 or dhat != vw.GroupVal.lex(1, 0):
            return WRONG, "lifted sequence shape off"
        if qhat.degree() != 1 or not _limit_matches(name, -qhat.coeff(0)):
            return WRONG, "appended center differs from the closed-form limit"
        return OK, ""
    return Request("pcs/lift", "lift_cskp", (seq, spec), judge)


def _sqrt_terms(p, c, cap):
    """Binomial series of sqrt(1 + c t) below t^cap, as {exponent: scalar}."""
    out, binom = {}, Fraction(1)
    for i in range(int(cap)):
        coeff = binom * Fraction(c) ** i if not p else _from_fraction(p, binom) * pow(c, i, p) % p
        if coeff:
            out[Fraction(i)] = coeff
        binom = binom * (Fraction(1, 2) - i) / (i + 1)
    return out


def _judge_root(terms_of):
    def judge(result, exc):
        if exc is not None:
            return WRONG, f"unexpected {_error_name(exc)}: {exc}"
        if type(result).__name__ != "Linear":
            return WRONG, f"no root found ({type(result).__name__})"
        root = result.root
        if root.prec is None or _as_dict(root) != terms_of(root.prec):
            return WRONG, "root differs from the closed form"
        return OK, ""
    return judge


KRASNER_CASES = ((0, 2), (5, 2), (5, 4), (7, 3), (7, 6), (13, 4), (13, 12))


def algebraic_request(vw, rng, b, shape, field_p) -> Request:
    """Krasner constants and root searches over the completion."""
    if shape == "krasner":
        # Krasner constant of b + c t^(k/n) (+ higher terms) is k/n
        p, n = field_p
        k = rng.choice([k for k in range(1, 2 * n + 1) if gcd(k, n) == 1])
        terms = {Fraction(0): _scalar(rng, p), Fraction(k, n): _scalar(rng, p, nonzero=True)}
        for _ in range(rng.randint(0, 3)):
            terms[Fraction(k + rng.randint(1, 3 * n), n)] = _scalar(rng, p)
        prec = rng.choice((None, Fraction(3 * n + 2 * k + 4, n)))
        a = vw.AlgElement(_series(vw, p, terms, prec))
        return Request("algnum/krasner", "krasner_constant", (a,),
                       _judge_value(Fraction(k, n), name="Krasner constant"))
    field = _field(vw, field_p)
    budget = Fraction(8 + 3 * b % 13)
    if shape == "sqrt":
        # sqrt(1 + c t) lies in k((t)): the digit recursion must find it.
        # Over Q the residue-root search trial-divides cleared numerators
        # that grow like 4^budget, so Q budgets stay small (see README).
        if field_p == 0:
            budget = Fraction(5 + b % 5)
        c = _scalar(rng, field_p, nonzero=True)
        cap = budget + rng.randint(-4, 8)
        s = _series(vw, field_p, _sqrt_terms(field_p, c, cap), cap)
        one = vw.RatFunc.one(field)
        Q = vw.PolyX.from_ratfuncs(field, [-(one + vw.RatFunc(field, [0, c])),
                                           vw.RatFunc.zero(field), one])
        a = vw.attach_minpoly(s, Q)
        return Request("algnum/minpoly-root", "minpoly_over_completion", (a, budget),
                       _judge_root(lambda cap: _sqrt_terms(field_p, c, cap)))
    if shape == "tower":
        # Artin-Schreier: a = sum t^(p^n) is the root of X^p - X + t
        p = field_p
        depth = 4 if p == 2 else 3
        prec = Fraction(p ** (depth + 1) - p)
        budget = Fraction(min(int(budget) * 2, int(prec) - 1))
        field = _field(vw, p)
        a_s = _series(vw, p, limit_terms(f"artin-schreier({p})", depth), prec)
        coeffs = [vw.RatFunc.t_power(field, 1), -vw.RatFunc.one(field)]
        coeffs += [vw.RatFunc.zero(field)] * (p - 2) + [vw.RatFunc.one(field)]
        a = vw.attach_minpoly(a_s, vw.PolyX.from_ratfuncs(field, coeffs))

        def terms_of(cap, p=p):
            return {e: c for e, c in limit_terms(f"artin-schreier({p})", 12).items() if e < cap}
        return Request("algnum/minpoly-tower", "minpoly_over_completion", (a, budget),
                       _judge_root(terms_of))
    # b + c t^(k/n) with n > 1 has no root in k((t))
    p, n = {0: (0, 2), 5: (5, 2), 7: (7, 3)}[field_p]
    k = rng.choice([k for k in range(1, 2 * n + 1) if gcd(k, n) == 1])
    b, c = _scalar(rng, p, nonzero=True), _scalar(rng, p, nonzero=True)
    s = _series(vw, p, {Fraction(0): b, Fraction(k, n): c})
    # (X - b)^n - c^n t^k
    xb = [[_red(p, -b)], [1]]
    nums = [[1]]
    for _ in range(n):
        nums = x_mul(p, nums, xb)
    nums[0] = t_add(p, nums[0], t_mono(k, _red(p, -c ** n)))
    a = vw.attach_minpoly(s, _polyx_over_k(vw, p, nums, [1]))

    def judge(result, exc):
        if exc is not None:
            return WRONG, f"unexpected {_error_name(exc)}: {exc}"
        if type(result).__name__ == "NoRootFound":
            return OK, ""
        return WRONG, "a root in k((t)) was reported for a ramified element"
    return Request("algnum/minpoly-none", "minpoly_over_completion", (a, budget), judge)


PCS_OPS = ("eval", "delta", "classify", "induce", "lift")


def completion_block(b):
    """The sweep of one block, as (maker, *stratum) tuples; the block index
    ``b`` turns horizons, fields, caps, degrees and budgets through their
    ranges, so the cost mix is the same for every seed."""
    out = [(density_request, shape, p) for shape, p in (
        ("gauss", 0), ("gauss", 5), ("monomial", 0), ("monomial", 5),
        ("pcslimit", 0), ("refused", 0))]
    out += [(same_delta_request, p, degree) for p in (0, 3, 5) for degree in (1, 2, 3)]
    for i, name in enumerate(sorted(GENERATORS)):
        _, (h_lo, h_hi), _ = GENERATORS[name]
        for j, op in enumerate(PCS_OPS):
            out.append((pcs_request, name, h_lo + (b + i + j) % (h_hi - h_lo + 1), op))
    out += [(algebraic_request, "krasner", KRASNER_CASES[(b + j) % len(KRASNER_CASES)])
            for j in range(4)]
    out += [(algebraic_request, "sqrt", p) for p in ((0, 3), (5, 7))[b % 2] + (3,)]
    out += [(algebraic_request, "tower", p) for p in (2, 3)]
    out += [(algebraic_request, "none", p) for p in ((0, 5), (7, 0))[b % 2]]
    return out


def completion_requests(vw, seed, blocks):
    """``blocks`` copies of the sweep: density (gauss, monomial, limit and a
    refused unique-pair spec), same-delta by characteristic and degree, five
    limit-spec operations per built-in generator, and algebraic centers.
    Only values inside a stratum depend on the seed."""
    rng = random.Random(f"completion:{seed}")
    return [make(vw, rng, b, *stratum) for b in range(blocks)
            for make, *stratum in completion_block(b)]


def call(vw, req: Request):
    """Run one request against the valwb namespace; returns (result, exception)."""
    args = tuple(a.make() if isinstance(a, _Fresh) else a for a in req.args)
    try:
        return getattr(vw, req.op)(*args), None
    except Exception as exc:  # judged by the request's oracle
        return None, exc
