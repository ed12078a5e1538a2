"""Three built-in worked pipelines with closed-form expected values.

Each pipeline builds a pseudo-Cauchy sequence with a known gap structure,
computes the delta table, classifies the extension, forms the induced
extension over the completion, lifts the key-polynomial sequence, and
compares every computed quantity against its closed form:

* "6.1" -- char p, a = sum of t^(p^n): Cauchy with limit in k((t)), the
  monomial spec at a with weight (1, 0) is value-transcendental with a
  unique pair; the final certificate X^p - X + t lifts to X - a.
* "6.2" -- char 0, a = sum of t^n/n!: Cauchy, the limit spec becomes the
  monomial spec at the limit over the completion; delta(X - a_m) = m + 1.
* "6.3" -- char 0, a = sum of t^(q^n/p^n): gamma_m = (q/p)^(m+1) with
  support denominators growing without bound; transcendental type, the
  sequence lifts unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .algnum import Linear, attach_minpoly, minpoly_over_completion
from .field import GF, QQ
from .groupval import GroupVal
from .lifting import (
    VALUATION_ALGEBRAIC_TYPE_I,
    VALUATION_ALGEBRAIC_TYPE_II,
    VALUE_TRANSCENDENTAL_UNIQUE_PAIR,
    CskpSeq,
    Witness,
    classify_extension,
    cskp_check,
    induce,
    lift_cskp,
)
from .pcs import (
    TranscendentalTypeEvidence,
    classify_generator,
    exponential_generator,
    mixed_radix_generator,
)
from .polyx import PolyX
from .report import Evidence, Report, digest
from .sampling import _redraw, random_polyx
from .series import DEFAULT_PREC, PuiseuxSeries, RatFunc
from .valuation import ValuationSpec, delta
from .errors import WorkbenchError

GAMMA_TOP = GroupVal.lex(1, 0)


def artin_schreier_data(p: int, mmax: int = 5, depth: int = 7) -> dict:
    """Shared fixture: the char-p tower a = sum of t^(p^n).

    ``depth`` extra partial-sum terms keep every delta up to m = mmax
    decidable while the certificate X^p - X + t stays indistinguishable
    from zero at the chosen precision p^(depth+1) - p.
    """
    field = GF(p)
    prec = Fraction(p**(depth + 1) - p)
    a = PuiseuxSeries.from_terms(
        field, {Fraction(p**n): 1 for n in range(depth + 1)}, prec)
    coeffs = [RatFunc.t_power(field, 1), -RatFunc.one(field)]
    coeffs += [RatFunc.zero(field)] * (p - 2) + [RatFunc.one(field)]
    Q = PolyX.from_ratfuncs(field, coeffs)  # X^p - X + t
    a_alg = attach_minpoly(a, Q, irreducible=True)
    spec = ValuationSpec.monomial(a, GAMMA_TOP)
    entries = []
    for m in range(mmax + 1):
        am = PuiseuxSeries.from_terms(field, {Fraction(p**n): 1 for n in range(m + 1)})
        qm = PolyX.from_series(field, [-am, PuiseuxSeries.one(field)])
        entries.append((qm, GroupVal.fin(p**(m + 1))))
    seq = CskpSeq(entries + [(Q, GAMMA_TOP)])
    return {"field": field, "a": a, "a_alg": a_alg, "Q": Q, "spec": spec,
            "seq": seq, "mmax": mmax, "p": p}


def _linear_at(field, center) -> PolyX:
    return PolyX.from_series(field, [-center, PuiseuxSeries.one(field)])


def run_example(ident: str, p: int = None, q: int = None,
                witness_samples: int = 20, seed: int = 0) -> Report:
    if ident == "6.1":
        return _example_tower(2 if p is None else p, witness_samples, seed)
    if ident == "6.2":
        if p is not None or q is not None:
            raise WorkbenchError("this pipeline takes no parameters")
        return _example_factorial()
    if ident == "6.3":
        p = 2 if p is None else p
        q = 3 if q is None else q
        return _example_mixed_radix(p, q)
    raise WorkbenchError(f"unknown example {ident!r}; choose 6.1, 6.2 or 6.3")


def _example_tower(p: int, witness_samples: int, seed: int) -> Report:
    rep = Report(f"pipeline 6.1 (char {p} tower)")
    data = artin_schreier_data(p)
    spec, seq, mmax = data["spec"], data["seq"], data["mmax"]
    field = data["field"]
    inp = digest("6.1", p, seed)
    ok = True
    rows = []
    for m in range(mmax + 1):
        d = delta(spec, seq[m][0])
        want = GroupVal.fin(p**(m + 1))
        rows.append(f"m={m}: {d.to_text()}")
        ok = ok and d == want
    rep.check("delta table", inp, ok, "; ".join(rows),
              "delta(X - a_m) = v(a - a_m) = p^(m+1), the next gap exponent")
    kind = classify_extension(spec)
    rep.check("classify", inp, kind == VALUE_TRANSCENDENTAL_UNIQUE_PAIR, kind,
              "the weight (1, 0) exceeds every rational, so the pair is unique")
    res = minpoly_over_completion(data["a_alg"], DEFAULT_PREC)
    root_ok = isinstance(res, Linear) and not (res.root - data["a"]).coeffs
    rep.check("root in completion", inp, root_ok,
              res.root.to_text() if isinstance(res, Linear) else "no root",
              "digit recursion on the certificate finds the tower itself")
    lifted, note = lift_cskp(seq, spec, center=data["a_alg"], budget=DEFAULT_PREC)
    qhat, dhat = lifted[-1]
    rep.check("lift sequence", inp,
              qhat.degree() == 1 and dhat == GAMMA_TOP and len(lifted) == len(seq),
              f"final entry {qhat.to_text()} @ {dhat.to_text()} ({note})",
              "over the completion the certificate factors; X - a replaces it")
    rng = random.Random(seed)

    def draw():
        return random_polyx(field, rng, rng.randint(1, max(1, p - 1)),
                            domain="series", prec=Fraction(40))

    def use(f):
        return isinstance(cskp_check(seq, f, spec), Witness)

    found = redraws_total = 0
    for _ in range(witness_samples):
        ok, redraws = _redraw(draw, use)
        redraws_total += redraws
        found += ok
    rep.check("witness search", inp, found == witness_samples,
              f"{found}/{witness_samples} sampled polynomials got a witness",
              "the linear entries already compute v on low degrees",
              caveats=Evidence(witness_samples, redraws_total).caveats("redraws"))
    return rep


def _example_factorial() -> Report:
    rep = Report("pipeline 6.2 (factorial series)")
    gen = exponential_generator()
    spec = ValuationSpec.pcslimit(gen)
    inp = digest("6.2", gen.horizon)
    kind = classify_extension(spec)
    rep.check("classify", inp, kind == VALUATION_ALGEBRAIC_TYPE_II, kind,
              "gammas m+1 are unbounded and the limit is representable")
    induced, note = induce(spec)
    limit = induced.center
    mmax = gen.horizon - 2
    closed = PuiseuxSeries.from_terms(
        QQ, {Fraction(n): Fraction(1, factorial(n)) for n in range(int(limit.prec) + 1)})
    limit_ok = not (limit - closed.truncate(limit.prec)).coeffs
    rep.check("induce", inp,
              induced.kind == "monomial" and induced.gamma == GAMMA_TOP and limit_ok,
              f"monomial at {limit.to_text()} with weight {GAMMA_TOP.to_text()} ({note})",
              "a Cauchy sequence hands its limit to the completion as the new center")
    ok = True
    rows = []
    for m in range(mmax + 1):
        d = delta(induced, _linear_at(QQ, gen.element(m)))
        rows.append(f"m={m}: {d.to_text()}")
        ok = ok and d == GroupVal.fin(m + 1)
    rep.check("delta table", inp, ok, "; ".join(rows),
              "delta(X - a_m) = v(a - a_m) = m + 1, the next support exponent")
    entries = [(_linear_at(QQ, gen.element(m)), GroupVal.fin(m + 1))
               for m in range(mmax + 1)]
    seq = CskpSeq(entries)
    lifted, note = lift_cskp(seq, spec)
    qhat, dhat = lifted[-1]
    rep.check("lift sequence", inp,
              len(lifted) == len(seq) + 1 and dhat == GAMMA_TOP
              and not (-qhat.coeff(0) - limit).coeffs,
              f"appended {qhat.to_text()} @ {dhat.to_text()} ({note})",
              "the lifted sequence is the old linear tower plus X - limit")
    return rep


def _example_mixed_radix(p: int, q: int) -> Report:
    rep = Report(f"pipeline 6.3 (mixed radix {p},{q})")
    gen = mixed_radix_generator(p, q, horizon=10)
    spec = ValuationSpec.pcslimit(gen)
    inp = digest("6.3", p, q)
    gammas = gen.gammas()
    ok = True
    rows = []
    for m in range(min(9, len(gammas))):
        want = GroupVal.fin(Fraction(q**(m + 1), p**(m + 1)))
        rows.append(f"m={m}: {gammas[m].to_text()}")
        ok = ok and gammas[m] == want
    rep.check("gamma table", inp, ok, "; ".join(rows),
              "v(a_m - a_(m+1)) is the next exponent (q/p)^(m+1)")
    verdict = classify_generator(gen)
    is_t1 = isinstance(verdict, TranscendentalTypeEvidence)
    rep.check("classify", inp,
              is_t1 and verdict.criterion == "unbounded ramification denominators",
              verdict.criterion if is_t1 else "Cauchy",
              "the exponents share no common denominator, so no limit exists "
              "in any finite ramification tower")
    kind = classify_extension(spec)
    rep.check("extension kind", inp, kind == VALUATION_ALGEBRAIC_TYPE_I, kind,
              "transcendental-type sequences stay valuation-algebraic over "
              "the completion")
    entries = [(_linear_at(QQ, gen.element(m)), gammas[m]) for m in range(4)]
    seq = CskpSeq(entries)
    lifted, note = lift_cskp(seq, spec)
    rep.check("lift sequence", inp, lifted == seq, note,
              "an immediate extension keeps its key-polynomial sequence")
    return rep
