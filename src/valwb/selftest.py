"""The full verification suite as library functions emitting one report.

Each criterion function appends pass/fail verdicts to a shared report; the
suite is fully seeded, so two runs with the same seed produce byte-identical
structured reports.  A sample whose verdict is undecidable at working
precision is redrawn (bounded) or counted apart, and Evidence words the count
as a caveat — undecidable inputs cannot falsify or confirm an exact identity.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algnum import attach_minpoly
from .errors import UnsupportedKind, WorkbenchError
from .field import GF, QQ
from .groupval import GroupVal
from .lifting import (
    RESIDUE_TRANSCENDENTAL,
    approximate_density,
    approximate_same_delta,
    conjugacy_check,
    roots_matching_threshold,
    uniqueness_check,
    verify_root_matching,
)
from .examples import _linear_at, artin_schreier_data, run_example
from .pcs import exponential_generator, mixed_radix_generator
from .polyx import PolyX, RATFUNC, SERIES, polyx_from_text
from .report import UNDECIDABLE, Evidence, Report, digest
from .sampling import _redraws, random_polyx, random_series
from .sampling import _redraw  # noqa: F401  perfbench's tracer wraps this name here
from .series import PuiseuxSeries, RatFunc, truncate_to_ratfunc
from .valuation import ValuationSpec, delta, eval_spec

DRAW_CAP = Fraction(64)  # the cap of the series coefficients density and same-delta draw
AXIOM_PAIRS = 1000  # pairs per spec family
LAW_SAMPLES = 500  # pool draws per comparison-law case
SAME_DELTA_SAMPLES = 100
ROOT_SAMPLES = 50  # polygon-stability perturbations
ROOT_FIXTURES = 10  # pre-factored root-pairing fixtures

HALF = PuiseuxSeries.t_power(QQ, Fraction(1, 2))  # t^(1/2)
MINSQ = polyx_from_text(QQ, "X^2 - t")  # the minimal polynomial of HALF
HALF_SPEC = ValuationSpec.monomial(HALF, GroupVal.fin(Fraction(3, 4)))  # t^(1/2) @ 3/4


def run_all(seed: int = 0) -> Report:
    rep = Report(f"selftest seed={seed}")
    for sub in (run_example("6.1", p=2, witness_samples=200, seed=seed),
                run_example("6.1", p=3, witness_samples=200, seed=seed + 1),
                run_example("6.2"),
                run_example("6.3", p=2, q=3)):
        for v in sub.verdicts:
            rep.verdicts.append(type(v)(f"{sub.title}: {v.operation}", v.inputs,
                                        v.outcome, v.citation, v.caveats))
    check_valuation_axioms(rep, seed)
    check_value_comparison_laws(rep, seed)
    check_pair_equivalence(rep, seed)
    check_density(rep, seed)
    check_same_delta(rep, seed)
    check_root_continuity(rep, seed)
    check_conjugacy(rep)
    return rep


# ---------------------------------------------------------------------------
# shared spec families
# ---------------------------------------------------------------------------

def _spec_families():
    """(name, spec, field) for the five pinned evaluation families."""
    tower = artin_schreier_data(2)
    keypoly = ValuationSpec.keypoly(
        MINSQ, GroupVal.fin(1), ValuationSpec.monomial(HALF, GroupVal.fin(Fraction(1, 2))))
    return [
        ("gauss", ValuationSpec.gauss(QQ), QQ),
        ("monomial 0 @ 1/3", ValuationSpec.monomial(
            PuiseuxSeries.zero(QQ), GroupVal.fin(Fraction(1, 3))), QQ),
        ("monomial t^(1/2) @ 3/4", HALF_SPEC, QQ),
        ("monomial tower @ (1, 0)", tower["spec"], tower["field"]),
        ("keypoly X^2 - t @ 1", keypoly, QQ),
    ]


def _monic_series_draw(rng, least: int) -> PolyX:
    """A monic polynomial over Q of degree least..2, its coefficients capped at DRAW_CAP."""
    return random_polyx(QQ, rng, rng.randint(least, 2), domain=SERIES, monic=True,
                        prec=DRAW_CAP)


def _tally(samples: int, trial) -> tuple:
    """(failures, Evidence) of ``samples`` runs of trial(): an undecidable
    verdict counts apart, any other refusal as a failure."""
    failures = undecidable = 0
    for _ in range(samples):
        try:
            failures += not trial()
        except UNDECIDABLE:
            undecidable += 1
        except WorkbenchError:
            failures += 1
    return failures, Evidence(samples - undecidable, undecidable)


# ---------------------------------------------------------------------------
# valuation axioms
# ---------------------------------------------------------------------------

def check_valuation_axioms(rep: Report, seed: int) -> None:
    """eval(f*g) = eval f + eval g; eval(f+g) >= min, equal when evals differ."""
    for name, spec, field in _spec_families():
        rng = random.Random((seed, "axioms", name).__repr__())

        def draw():
            f = random_polyx(field, rng, rng.randint(0, 2))
            g = random_polyx(field, rng, rng.randint(0, 2))
            return f, g

        def use(fg):
            f, g = fg
            vf, vg = eval_spec(spec, f), eval_spec(spec, g)
            vprod = eval_spec(spec, f * g)
            mult_ok = vprod == vf + vg
            s = f + g
            if s.is_zero():
                return mult_ok
            vs = eval_spec(spec, s)
            add_ok = vs >= min(vf, vg)
            if vf != vg:
                add_ok = add_ok and vs == min(vf, vg)
            return mult_ok and add_ok

        failures, evidence = _redraws(AXIOM_PAIRS, draw, use)
        rep.check("valuation axioms", digest("axioms", name, seed, AXIOM_PAIRS),
                  failures == 0,
                  f"{name}: {AXIOM_PAIRS} pairs, {failures} failures",
                  "multiplicativity and the ultrametric law on random pairs",
                  caveats=evidence.caveats("redraws"))


# ---------------------------------------------------------------------------
# comparison laws (coarsening and key-polynomial digit valuations)
# ---------------------------------------------------------------------------

def check_value_comparison_laws(rep: Report, seed: int) -> None:
    """Two biconditionals, each in both directions on seeded pools.

    Coarsening: for gamma below the spec's weight, eval under the spec equals
    eval under the gamma-coarsened spec iff delta (polygon route) is at most
    gamma, and exceeds it iff delta exceeds gamma.  Digit valuations: eval
    under the spec equals eval under the key-polynomial valuation iff delta(f)
    is at most delta(Q).
    """
    def pool_a(rng):
        f = random_polyx(QQ, rng, rng.randint(1, 2))
        if rng.random() < 0.4:
            f = MINSQ * random_polyx(QQ, rng, rng.randint(0, 1))
        return f

    tower = artin_schreier_data(2)
    F2, gen = tower["field"], tower["gen"]
    v_b = tower["spec"]
    a_lin = {m: PolyX.from_ratfuncs(  # a_m is its own polynomial part below gamma_m = 2^(m+1)
        F2, [-truncate_to_ratfunc(gen.element(m), 2**(m + 1)), RatFunc.one(F2)])
        for m in range(5)}

    def pool_b(rng):
        f = random_polyx(F2, rng, rng.randint(1, 2))
        if rng.random() < 0.5:
            m = rng.randint(0, 4)
            f = a_lin[m] * random_polyx(F2, rng, rng.randint(0, 1))
        return f

    cases = [
        ("char 0", HALF_SPEC, GroupVal.fin(Fraction(1, 2)),
         ValuationSpec.keypoly(PolyX.x_power(QQ, 1), GroupVal.fin(Fraction(1, 2)),
                               ValuationSpec.gauss(QQ)), pool_a),
        ("char 2", v_b, GroupVal.fin(4),
         ValuationSpec.keypoly(a_lin[1], GroupVal.fin(4), v_b), pool_b),
    ]
    for name, v, gamma, v_q, pool in cases:
        rng = random.Random((seed, "laws", name).__repr__())
        v_gamma = ValuationSpec.monomial(v.center, gamma, over=v.over)
        dq = delta(v, v_q.Q)
        branches = [0, 0]

        def use(f):
            vf, vgf = eval_spec(v, f), eval_spec(v_gamma, f)
            d = delta(v, f)
            ok = vf >= vgf
            ok = ok and ((vf == vgf) == (d <= gamma))
            ok = ok and ((vf > vgf) == (d > gamma))
            vq = eval_spec(v_q, f)
            ok = ok and ((vf == vq) == (d <= dq))
            branches[0 if d <= gamma else 1] += 1
            return ok

        failures, evidence = _redraws(LAW_SAMPLES, lambda: pool(rng), use)
        rep.check("comparison laws", digest("laws", name, seed, LAW_SAMPLES),
                  failures == 0 and min(branches) > 0,
                  f"{name}: {LAW_SAMPLES} samples, {failures} failures",
                  "value agreement under coarsening and digit valuations is "
                  "equivalent to the polygon delta comparison",
                  caveats=(f"branch split {branches[0]}/{branches[1]}",
                           *evidence.caveats("redraws")))


# ---------------------------------------------------------------------------
# pair equivalence
# ---------------------------------------------------------------------------

def _pair_center(rng, i: int, least: int) -> tuple:
    """(field, g, prec, a) of triple i: Q at even i and F_5 at odd, a weight g in
    least..6, the cap g + 14 and a center a drawn at that cap."""
    field = QQ if i % 2 == 0 else GF(5)
    g = rng.randint(least, 6)
    prec = Fraction(g + 14)
    return field, g, prec, random_series(field, rng, prec, depth=5)


def check_pair_equivalence(rep: Report, seed: int, triples: int = 100,
                           polys: int = 50) -> None:
    """Centers within gamma of each other value every polynomial alike;
    centers farther apart are separated by X - b."""
    rng = random.Random((seed, "pairs").__repr__())
    failures = tested = undecidable = 0
    for i in range(triples):
        field, g_int, prec, a = _pair_center(rng, i, 1)
        gamma = GroupVal.fin(g_int)
        tail = random_series(field, rng, prec, depth=3, min_exp=g_int, nonzero=True)
        # v(tail) >= gamma below the cap, so uniqueness_check accepts the pair (a, a + tail)
        evidence, discrepancies = uniqueness_check(
            a, a + tail, gamma, (random_polyx(field, rng, rng.randint(0, 2)) for _ in range(polys)))
        failures += bool(discrepancies)
        tested += evidence.tested
        undecidable += evidence.undecidable
    rep.check("pair equivalence", digest("pairs", seed, triples, polys),
              failures == 0,
              f"{triples} equivalent triples x {polys} polynomials, {failures} failures",
              "v(a - b) >= gamma makes (b, gamma) a pair of definition for "
              "the same extension",
              caveats=Evidence(tested, undecidable).caveats())
    failures = 0
    for i in range(triples):
        field, g_int, prec, a = _pair_center(rng, i, 2)
        gamma = GroupVal.fin(g_int)
        tail = (PuiseuxSeries.t_power(field, g_int - 1)
                + random_series(field, rng, prec, depth=2, min_exp=g_int))
        b = a + tail  # v(a - b) = gamma - 1 < gamma
        sa = ValuationSpec.monomial(a, gamma)
        sb = ValuationSpec.monomial(b, gamma)
        disc = _linear_at(field, b)
        failures += eval_spec(sa, disc) == eval_spec(sb, disc)
    rep.check("pair separation", digest("pairs-neg", seed, triples),
              failures == 0,
              f"{triples} non-equivalent triples, {failures} failures",
              "X - b takes value gamma at b but only v(a - b) at a")


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def check_density(rep: Report, seed: int) -> None:
    specs = [
        ("gauss", ValuationSpec.gauss(QQ), 100),
        ("monomial t^(1/2) @ 3/4", HALF_SPEC, 100),
        ("mixed-radix limit", ValuationSpec.pcslimit(mixed_radix_generator(2, 3, 8)), 25),
    ]
    for name, spec, n in specs:
        rng = random.Random((seed, "density", name).__repr__())

        def trial():
            f, g = _monic_series_draw(rng, 1), _monic_series_draw(rng, 0)
            alpha = GroupVal.fin(rng.randint(1, 3))
            res = approximate_density(f, g, alpha, spec)
            # independent re-check of the quotient inequality
            num = f * res.g_prime - res.f_prime * g
            return num.is_zero() or (eval_spec(spec, num) - eval_spec(spec, g)
                                     - eval_spec(spec, res.g_prime)) > alpha

        failures, evidence = _tally(n, trial)
        rep.check("density", digest("density", name, seed, n), failures == 0,
                  f"{name}: {n} samples, {failures} failures",
                  "a sharp enough coefficient truncation keeps degree, value "
                  "and the quotient within any target distance",
                  caveats=evidence.caveats())
    # provable impossibility cases
    rng = random.Random((seed, "density-unsupported").__repr__())
    f = random_polyx(QQ, rng, 1, domain=SERIES, monic=True, prec=Fraction(32))
    g = PolyX.x_power(QQ, 0, domain=SERIES)
    blocked = 0
    for spec in (ValuationSpec.monomial(HALF, GroupVal.lex(1, 0)),
                 ValuationSpec.pcslimit(exponential_generator(12))):
        try:
            approximate_density(f, g, GroupVal.fin(2), spec)
        except UnsupportedKind:
            blocked += 1
    rep.check("density obstruction", digest("density-unsupported", seed),
              blocked == 2, f"{blocked}/2 unsupported kinds refused",
              "beyond-rational weights put the completion at infinite "
              "distance from K(X), so approximation is impossible")


# ---------------------------------------------------------------------------
# same-delta approximation
# ---------------------------------------------------------------------------

def check_same_delta(rep: Report, seed: int) -> None:
    spec = ValuationSpec.monomial(PuiseuxSeries.zero(QQ), GroupVal.fin(4))
    alpha = GroupVal.fin(6)
    rng = random.Random((seed, "same-delta").__repr__())

    def trial():
        f = _monic_series_draw(rng, 1)
        out = approximate_same_delta(f, alpha, spec)
        return (out.domain == RATFUNC and out.degree() == f.degree()
                and eval_spec(spec, out) == eval_spec(spec, f)
                and delta(spec, out) == delta(spec, f))

    failures, evidence = _tally(SAME_DELTA_SAMPLES, trial)
    rep.check("same-delta approximation", digest("same-delta", seed, SAME_DELTA_SAMPLES),
              failures == 0, f"{SAME_DELTA_SAMPLES} samples, {failures} failures",
              "truncating above the root-matching threshold preserves degree, "
              "value and delta",
              caveats=evidence.caveats())


# ---------------------------------------------------------------------------
# continuity of roots
# ---------------------------------------------------------------------------

def _product_of_linears(roots) -> PolyX:
    """The product of the X - r over Q, with series coefficients."""
    f = PolyX.x_power(QQ, 0, domain=SERIES)
    for r in roots:
        f = f * _linear_at(QQ, r)
    return f


def _distinct_slope_poly(rng, deg: int):
    """Monic product of X - c_i t^(e_i) with pairwise distinct exponents."""
    exps = rng.sample(range(6), deg)
    roots = [PuiseuxSeries.from_terms(QQ, {Fraction(e): Fraction(rng.randint(1, 5))})
             for e in exps]
    return _product_of_linears(roots), roots, max(exps)


def check_root_continuity(rep: Report, seed: int) -> None:
    rng = random.Random((seed, "roots").__repr__())
    failures = 0
    for _ in range(ROOT_SAMPLES):
        deg = rng.randint(1, 3)
        f, _, emax = _distinct_slope_poly(rng, deg)
        alpha = GroupVal.fin(emax + 1)
        tau = roots_matching_threshold(f, alpha)
        k = int(tau.q) + 1 if tau.q >= 0 else 1
        pert = random_polyx(QQ, rng, rng.randint(0, deg - 1)).scale(
            RatFunc.t_power(QQ, k)) if deg > 1 else PolyX.from_ratfuncs(
            QQ, [RatFunc.t_power(QQ, k)])
        failures += not verify_root_matching(f, f + pert, alpha)
    rep.check("polygon stability", digest("roots", seed, ROOT_SAMPLES),
              failures == 0, f"{ROOT_SAMPLES} perturbations, {failures} failures",
              "perturbing above the threshold cannot move any polygon vertex")
    failures = 0
    for _ in range(ROOT_FIXTURES):
        deg = rng.randint(2, 3)
        f, roots, emax = _distinct_slope_poly(rng, deg)
        alpha = GroupVal.fin(emax + 1)
        tau = roots_matching_threshold(f, alpha)
        k = max(int(tau.q), emax + 1) + 1
        roots2 = [r + PuiseuxSeries.from_terms(
            QQ, {Fraction(k + j): Fraction(rng.randint(1, 3))})
            for j, r in enumerate(roots)]
        failures += not verify_root_matching(f, _product_of_linears(roots2), alpha,
                                             paired_roots=list(zip(roots, roots2)))
    rep.check("root pairing", digest("roots-paired", seed, ROOT_FIXTURES),
              failures == 0, f"{ROOT_FIXTURES} pre-factored fixtures, {failures} failures",
              "paired root differences exceed alpha when the perturbation "
              "exceeds the threshold")


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

def check_conjugacy(rep: Report) -> None:
    F7 = GF(7)
    root_third = attach_minpoly(PuiseuxSeries.t_power(F7, Fraction(1, 3)),
                                polyx_from_text(F7, "X^3 - t"), irreducible=True)
    fixtures = [("t^(1/2) over Q", attach_minpoly(HALF, MINSQ, irreducible=True),
                 GroupVal.fin(Fraction(3, 4)), [1]),
                ("t^(1/3) over F_7", root_third, GroupVal.fin(Fraction(1, 2)), [1, 2])]
    failures, details = 0, []
    for name, a, gamma, twists in fixtures:
        for m in twists:
            out = conjugacy_check(a, gamma, m)
            failures += not (out["shared_minpoly"] and out["kinds_match"]
                             and out["kind"] == RESIDUE_TRANSCENDENTAL)
            details.append(f"{name} m={m}: {out['twisted_center']}")
    rep.check("conjugacy", digest("conjugacy"), failures == 0,
              f"{failures} failures; " + "; ".join(details),
              "twisting the center by a root of unity gives a conjugate with "
              "the same certificate and the same extension kind")
