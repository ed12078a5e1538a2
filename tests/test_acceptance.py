"""Acceptance gate: one test per headline capability.

Each test drives the public library surface end to end and asserts exact
values; the sampled harnesses are seeded, so every run checks the same
instances.  Criteria that delegate to a selftest harness additionally
assert that no verdict in the produced report failed.  The harnesses run
once, inside the seed-0 suite that the determinism criterion pins byte for
byte, and each criterion inspects the verdicts its harness wrote there.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import valwb.selftest as selftest
from valwb.algnum import Linear, attach_minpoly, minpoly_over_completion
from valwb.errors import PrecisionExhausted
from valwb.examples import artin_schreier_data, run_example
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb.lifting import (
    VALUATION_ALGEBRAIC_TYPE_I,
    VALUATION_ALGEBRAIC_TYPE_II,
    VALUE_TRANSCENDENTAL_UNIQUE_PAIR,
    classify_extension,
)
from valwb.pcs import (
    TranscendentalTypeEvidence,
    classify_generator,
    exponential_generator,
    mixed_radix_generator,
)
from valwb.polyx import PolyX
from valwb.report import Report
from valwb.selftest import (
    check_conjugacy,
    check_density,
    check_pair_equivalence,
    check_root_continuity,
    check_same_delta,
    check_valuation_axioms,
    check_value_comparison_laws,
    run_all,
)
from valwb.series import PuiseuxSeries
from valwb.valuation import ValuationSpec, delta


def fresh(checker, *args):
    rep = Report("acceptance")
    checker(rep, *args)
    assert rep.verdicts, "the harness recorded no verdicts"
    assert not rep.failed(), rep.to_human()
    return rep


HARNESSES = ("check_valuation_axioms", "check_value_comparison_laws",
             "check_pair_equivalence", "check_density", "check_same_delta",
             "check_root_continuity", "check_conjugacy")


@pytest.fixture(scope="module")
def suite():
    """run_all(0), run once: (the report, {harness: the verdicts it wrote})."""
    written = {}

    def recording(name, checker):
        def run(rep, *args):
            start = len(rep.verdicts)
            checker(rep, *args)
            written[name] = rep.verdicts[start:]
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in HARNESSES:
            mp.setattr(selftest, name, recording(name, getattr(selftest, name)))
        report = run_all(0)
    return report, written


def harness(suite, checker):
    """The verdicts ``checker`` wrote in the seed-0 suite; none may fail."""
    rep = Report("acceptance")
    rep.verdicts = suite[1][checker.__name__]
    assert rep.verdicts, "the harness recorded no verdicts"
    assert not rep.failed(), rep.to_human()


# 1. char-p tower pipeline: delta table, classification, lift
def test_tower_pipeline_both_characteristics():
    for p in (2, 3):
        rep = run_example("6.1", p=p, witness_samples=200, seed=0)
        assert not rep.failed(), rep.to_human()
        data = artin_schreier_data(p)
        spec, seq = data["spec"], data["seq"]
        for m in range(data["mmax"] + 1):
            assert delta(spec, seq[m][0]) == GroupVal.fin(p**(m + 1))
        assert classify_extension(spec) == VALUE_TRANSCENDENTAL_UNIQUE_PAIR
        res = minpoly_over_completion(data["a_alg"], Fraction(64))
        assert isinstance(res, Linear)
        assert not (res.root - data["a"]).coeffs


# 2. factorial-series pipeline: Cauchy limit handed to the completion
def test_factorial_pipeline():
    rep = run_example("6.2")
    assert not rep.failed(), rep.to_human()
    gen = exponential_generator(12)
    assert classify_extension(ValuationSpec.pcslimit(gen)) == \
        VALUATION_ALGEBRAIC_TYPE_II
    assert gen.gammas() == [GroupVal.fin(m + 1) for m in range(12)]


# 3. mixed-radix pipeline: transcendental type, identity lift
def test_mixed_radix_pipeline():
    rep = run_example("6.3", p=2, q=3)
    assert not rep.failed(), rep.to_human()
    gen = mixed_radix_generator(2, 3, 10)
    verdict = classify_generator(gen)
    assert isinstance(verdict, TranscendentalTypeEvidence)
    assert classify_extension(ValuationSpec.pcslimit(gen)) == \
        VALUATION_ALGEBRAIC_TYPE_I


# 4. valuation axioms on randomized inputs across the spec families
def test_valuation_axioms(suite):
    harness(suite, check_valuation_axioms)


# 5. comparison laws relating a spec to its truncations and key polynomials
def test_value_comparison_laws(suite):
    harness(suite, check_value_comparison_laws)


# 6. equivalent pairs define the same extension
def test_pair_equivalence(suite):
    harness(suite, check_pair_equivalence)


# 7. density of K(X) values below the cofinality obstruction
def test_density(suite):
    harness(suite, check_density)


# 8. same-degree same-delta approximation over K
def test_same_delta(suite):
    harness(suite, check_same_delta)


# 9. continuity of roots under small coefficient perturbations
def test_root_continuity(suite):
    harness(suite, check_root_continuity)


# 10. conjugate centers induce extensions of the same kind
def test_conjugacy(suite):
    harness(suite, check_conjugacy)


GOLDEN = Path(__file__).parent / "golden" / "selftest_seed0.txt"


# 11. byte-identical structured reports under a fixed seed, across commits:
# the golden file is regenerated only when a verdict changes on purpose
def test_selftest_determinism(suite):
    report = suite[0]
    assert not report.failed(), report.to_human()
    assert report.to_structured() == GOLDEN.read_text(encoding="utf-8")


def test_witness_search_redraws_undecidable_samples():
    # seed 17 draws a polynomial whose value is undecidable at O(t^40)
    rep = run_example("6.1", p=2, witness_samples=200, seed=17)
    assert not rep.failed(), rep.to_human()
    witness = rep.verdicts[-1]
    assert witness.operation == "witness search"
    assert witness.outcome == "ok: 200/200 sampled polynomials got a witness"
    assert witness.caveats == ("1 undecidable redraws",)


def test_pair_equivalence_reports_undecidable_samples(monkeypatch):
    # samples whose values are undecidable count as neither agreement nor
    # failure; the verdict says how many there were
    import valwb.lifting as lifting  # the equivalence block evaluates through uniqueness_check
    real = lifting.eval_spec

    def eval_spec(spec, f):
        if f.degree() == 2:  # only the equivalence block draws degree 2
            raise PrecisionExhausted("undecidable by construction")
        return real(spec, f)

    monkeypatch.setattr(lifting, "eval_spec", eval_spec)
    rep = fresh(check_pair_equivalence, 0, 6, 10)
    pairs = rep.verdicts[0]
    assert pairs.operation == "pair equivalence"
    (caveat,) = pairs.caveats
    n = int(caveat.split()[0])
    assert 0 < n < 60 and caveat == f"{n} undecidable samples"
    # with every sample decided there is no caveat
    monkeypatch.setattr(lifting, "eval_spec", real)
    assert fresh(check_pair_equivalence, 0, 6, 10).verdicts[0].caveats == ()
