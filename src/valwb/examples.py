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
* "6.3" -- char 0, a = sum of t^(q^n/p^n) with 0 < p < q and p not dividing q:
  gamma_m = (q/p)^(m+1) with support denominators growing without bound;
  transcendental type, the sequence lifts unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .algnum import Linear, attach_minpoly, minpoly_over_completion
from .field import QQ
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
    artin_schreier_generator,
    classify_generator,
    exponential_generator,
    mixed_radix_generator,
)
from .polyx import PolyX
from .report import Report, digest
from .sampling import _redraws, random_polyx
from .series import DENSE_SIZE, PuiseuxSeries, RatFunc
from .valuation import ValuationSpec, delta
from .errors import WorkbenchError

GAMMA_TOP = GroupVal.lex(1, 0)
TOWER_MMAX = 5  # the sequence's linear entries are X - a_m for m = 0..TOWER_MMAX
TOWER_DEPTH = 7  # the tower's a is its partial sum up to n = TOWER_DEPTH
TOWER_BUDGET = Fraction(64)  # the root search's precision on the tower's certificate


def artin_schreier_data(p: int) -> dict:
    """Shared fixture: the char-p tower a = sum of t^(p^n), built from its generator.

    a is the generator's a_TOWER_DEPTH at the cap p^(TOWER_DEPTH+1) - p: the extra
    partial-sum terms keep every delta up to m = TOWER_MMAX decidable while the
    certificate X^p - X + t stays indistinguishable from zero at that cap.  A p above
    DENSE_SIZE is refused before the dense certificate is built.
    """
    if p > DENSE_SIZE:
        raise WorkbenchError(f"characteristic {p} exceeds the dense-size bound {DENSE_SIZE}")
    gen = artin_schreier_generator(p)
    field = gen.field
    a = gen.element(TOWER_DEPTH).truncate(p**(TOWER_DEPTH + 1) - p)
    coeffs = [RatFunc.t_power(field, 1), -RatFunc.one(field)]
    coeffs += [RatFunc.zero(field)] * (p - 2) + [RatFunc.one(field)]
    Q = PolyX.from_ratfuncs(field, coeffs)  # X^p - X + t
    a_alg = attach_minpoly(a, Q, irreducible=True)
    spec = ValuationSpec.monomial(a, GAMMA_TOP)
    entries = [(_linear_at(field, gen.element(m)), GroupVal.fin(p**(m + 1)))
               for m in range(TOWER_MMAX + 1)]
    seq = CskpSeq(entries + [(Q, GAMMA_TOP)])
    return {"field": field, "gen": gen, "a": a, "a_alg": a_alg, "spec": spec, "seq": seq,
            "mmax": TOWER_MMAX}


def _linear_at(field, center) -> PolyX:
    return PolyX.from_series(field, [-center, PuiseuxSeries.one(field)])


def _check_table(rep: Report, operation: str, inp: str, table, citation: str) -> None:
    """One verdict on a table of (got, want) values, m = 0, 1, ...: every got must be its want."""
    rows = [f"m={m}: {got.to_text()}" for m, (got, _) in enumerate(table)]
    rep.check(operation, inp, all(got == want for got, want in table), "; ".join(rows),
              citation)


def run_example(ident: str, p: int = None, q: int = None,
                witness_samples: int = 20, seed: int = 0) -> Report:
    if ident == "6.1":
        if q is not None:
            raise WorkbenchError("this pipeline takes no q")
        return _example_tower(2 if p is None else p, witness_samples, seed)
    if ident == "6.2":
        if p is not None or q is not None:
            raise WorkbenchError("this pipeline takes no parameters")
        return _example_factorial()
    if ident == "6.3":
        return _example_mixed_radix(2 if p is None else p, 3 if q is None else q)
    raise WorkbenchError(f"unknown example {ident!r}; choose 6.1, 6.2 or 6.3")


def _example_tower(p: int, witness_samples: int, seed: int) -> Report:
    rep = Report(f"pipeline 6.1 (char {p} tower)")
    data = artin_schreier_data(p)
    spec, seq, field = data["spec"], data["seq"], data["field"]
    inp = digest("6.1", p, seed)
    _check_table(rep, "delta table", inp,
                 [(delta(spec, seq[m][0]), GroupVal.fin(p**(m + 1)))
                  for m in range(TOWER_MMAX + 1)],
                 "delta(X - a_m) = v(a - a_m) = p^(m+1), the next gap exponent")
    kind = classify_extension(spec)
    rep.check("classify", inp, kind == VALUE_TRANSCENDENTAL_UNIQUE_PAIR, kind,
              "the weight (1, 0) exceeds every rational, so the pair is unique")
    res = minpoly_over_completion(data["a_alg"], TOWER_BUDGET)
    root_ok = isinstance(res, Linear) and not (res.root - data["a"]).coeffs
    rep.check("root in completion", inp, root_ok,
              res.root.to_text() if isinstance(res, Linear) else "no root",
              "digit recursion on the certificate finds the tower itself")
    lifted, note = lift_cskp(seq, spec, center=data["a_alg"], budget=TOWER_BUDGET)
    qhat, dhat = lifted[-1]
    rep.check("lift sequence", inp,
              qhat.degree() == 1 and dhat == GAMMA_TOP and len(lifted) == len(seq),
              f"final entry {qhat.to_text()} @ {dhat.to_text()} ({note})",
              "over the completion the certificate factors; X - a replaces it")
    rng = random.Random(seed)
    failures, evidence = _redraws(
        witness_samples,
        lambda: random_polyx(field, rng, rng.randint(1, max(1, p - 1)), domain="series",
                             prec=Fraction(40)),
        lambda f: isinstance(cskp_check(seq, f, spec), Witness))
    rep.check("witness search", inp, failures == 0,
              f"{witness_samples - failures}/{witness_samples} sampled polynomials got a witness",
              "the linear entries already compute v on low degrees",
              caveats=evidence.caveats("redraws"))
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
    seq = CskpSeq([(_linear_at(QQ, gen.element(m)), GroupVal.fin(m + 1))
                   for m in range(mmax + 1)])
    _check_table(rep, "delta table", inp, [(delta(induced, q), d) for q, d in seq],
                 "delta(X - a_m) = v(a - a_m) = m + 1, the next support exponent")
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
    if q % p == 0:  # every exponent (q/p)^n is an integer: a Cauchy sequence with a limit
        raise WorkbenchError(f"pipeline 6.3 needs p not dividing q, got p = {p}, q = {q}")
    spec = ValuationSpec.pcslimit(gen)
    inp = digest("6.3", p, q)
    gammas = gen.gammas()
    _check_table(rep, "gamma table", inp,
                 [(g, GroupVal.fin(Fraction(q**(m + 1), p**(m + 1))))
                  for m, g in enumerate(gammas[:9])],
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
    seq = CskpSeq([(_linear_at(QQ, gen.element(m)), gammas[m]) for m in range(4)])
    lifted, note = lift_cskp(seq, spec)
    rep.check("lift sequence", inp, lifted == seq, note,
              "an immediate extension keeps its key-polynomial sequence")
    return rep
