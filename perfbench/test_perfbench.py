"""Tests of the benchmark's oracles and tracer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import valwb as vw  # noqa: E402


def monomial(p, alpha, beta, gamma):
    field = vw.QQ if p == 0 else vw.GF(p)
    return vw.ValuationSpec.monomial(vw.RatFunc(field, alpha, beta), vw.GroupVal.fin(gamma))


# -- oracles -----------------------------------------------------------------

def test_recentred_input_over_q_by_hand():
    # t^5 + t^2 (X - 1)^2 at center 1, weight 3/2: min(5, 2 + 3) = 5
    f, expected = inputs.recentred_input(vw, 0, [1], [1], Fraction(3, 2),
                                         [inputs.t_mono(5), [], inputs.t_mono(2)], [1])
    assert expected == 5
    assert f.to_text() == "[t^2]*X^2 + [-2*t^2]*X + [t^2 + t^5]"
    assert vw.eval_spec(monomial(0, [1], [1], Fraction(3, 2)), f) == vw.GroupVal.fin(5)


def test_recentred_input_over_fp_with_poles():
    # over F_3, center (1 - t)/(1 + t), weight 1/2, coefficients over 1 + t^2:
    # t^3 + t (X - a) + (1 + t) (X - a)^2 has value min(3, 1 + 1/2, 0 + 1) = 1
    p, alpha, beta, gamma = 3, [1, 2], [1, 1], Fraction(1, 2)
    f, expected = inputs.recentred_input(vw, p, alpha, beta, gamma,
                                         [inputs.t_mono(3), [0, 1], [1, 1]], [1, 0, 1])
    assert expected == 1
    assert vw.eval_spec(monomial(p, alpha, beta, gamma), f) == vw.GroupVal.fin(1)


def test_rooted_input_over_q_by_hand():
    # roots 1 + t^3 and 1 + 2t at center 1, weight 2: max(min(2, 3), min(2, 1)) = 2
    f, expected = inputs.rooted_input(vw, 0, [1], [1], Fraction(2), [1], [1],
                                      [inputs.t_mono(3), [0, 2]])
    assert expected == 2
    assert f.to_text() == "X^2 + [-2 - 2*t - 1*t^3]*X + [1 + 2*t + t^3 + 2*t^4]"
    assert vw.delta(monomial(0, [1], [1], Fraction(2)), f) == vw.GroupVal.fin(2)


def test_rooted_input_over_f2_with_root_at_center():
    # over F_2: roots t + t^5 and t itself, weight 1/3: delta = 1/3
    p, alpha, gamma = 2, [0, 1], Fraction(1, 3)
    f, expected = inputs.rooted_input(vw, p, alpha, [1], gamma, [0, 1], [1],
                                      [inputs.t_mono(5), []])
    assert expected == Fraction(1, 3)
    assert vw.delta(monomial(p, alpha, [1], gamma), f) == vw.GroupVal.fin(Fraction(1, 3))


def test_precision_cap_defect_counts_as_failed_not_wrong():
    # [t^90/(1+t)] + [t^70/(1+t)] X under gauss has the exact value 70, but
    # its coefficients are expanded only to O(t^64); likewise an exact root
    # at a center with a pole factor cannot be certified at that cap
    f, expected = inputs.recentred_input(vw, 0, [], [1], Fraction(0),
                                         [inputs.t_mono(90), inputs.t_mono(70)], [1, 1])
    assert expected == 70
    g, delta = inputs.rooted_input(vw, 2, [0, 1], [1, 1], Fraction(1, 3), [1], [1],
                                   [inputs.t_mono(5), []])
    for op, spec, h, want in (("eval_spec", vw.ValuationSpec.gauss(vw.QQ), f, expected),
                              ("delta", monomial(2, [0, 1], [1, 1], Fraction(1, 3)), g, delta)):
        req = inputs.Request(op, op, (spec, h), inputs._judge_value(want))
        outcome, detail = req.judge(*inputs.call(vw, req))
        assert outcome == inputs.FAILED and "PrecisionExhausted" in detail


def test_refusal_on_uncapped_same_delta_data_counts_as_failed():
    # block 3, degree 1 draws no cap; block 0, degree 1 caps at t^16
    refusal = vw.PrecisionExhausted("undecidable")
    exact = inputs.same_delta_request(vw, inputs.random.Random(1), 3, 5, 1)
    capped = inputs.same_delta_request(vw, inputs.random.Random(1), 0, 5, 1)
    assert exact.judge(None, refusal)[0] == inputs.FAILED
    assert capped.judge(None, refusal)[0] == inputs.UNDECIDABLE


def test_pole_centers_keep_their_pole_in_every_characteristic():
    pool = inputs.exact_specs(vw)
    assert [es.center_pole for es in pool] == [False, False, True, True] * len(inputs.EXACT_CHARS)


def test_closed_forms_of_the_builtin_sequences():
    for m in range(4):
        a_m = inputs._series(vw, 0, inputs.limit_terms("exponential", m))
        spec = vw.ValuationSpec.pcslimit(vw.builtin_generator("exponential", 8))
        assert vw.delta(spec, inputs._linear(vw, 0, a_m)) == vw.GroupVal.fin(m + 1)
    gamma = inputs.GENERATORS["artin-schreier(2)"][2]
    a_1 = inputs._series(vw, 2, inputs.limit_terms("artin-schreier(2)", 1))
    spec = vw.ValuationSpec.pcslimit(vw.builtin_generator("artin-schreier(2)", 6))
    assert vw.eval_spec(spec, inputs._linear(vw, 2, a_1)) == vw.GroupVal.fin(gamma(1))
    kinds = {name: vw.classify_extension(vw.ValuationSpec.pcslimit(vw.builtin_generator(name, 8)))
             for name in inputs.GENERATORS}
    assert kinds == {name: inputs.generator_kind(name, 8)[0][0] for name in inputs.GENERATORS}


def test_krasner_constant_of_a_pure_root():
    a = vw.AlgElement(vw.PuiseuxSeries.t_power(vw.QQ, Fraction(1, 2)))
    assert vw.krasner_constant(a) == vw.GroupVal.fin(Fraction(1, 2))
    a = vw.AlgElement(vw.PuiseuxSeries.t_power(vw.GF(7), Fraction(2, 3)))
    assert vw.krasner_constant(a) == vw.GroupVal.fin(Fraction(2, 3))


def test_every_generated_request_passes_its_own_oracle():
    for requests in (inputs.exact_eval_requests(vw, 3, 1)[::7],
                     inputs.completion_requests(vw, 3, 1)):
        for req in requests:
            outcome, detail = req.judge(*inputs.call(vw, req))
            assert outcome != inputs.WRONG, (req.kind, detail)


# -- tracer --------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_and_recursion_is_not_double_counted():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def leaf():
        clock.now += 2

    def outer(depth):
        clock.now += 1
        if depth:
            rec(depth - 1)
        child()
        clock.now += 1

    rec = tr.span("valuation.eval", outer)
    child = tr.span("polyx.recenter", leaf)
    rec(2)
    # three nested eval frames, each 2 s of its own work plus a 2 s child
    assert tr.calls["valuation.eval"] == 3
    assert tr.self_s["valuation.eval"] == 6
    assert tr.self_s["polyx.recenter"] == 6
    assert tr.total_s["valuation.eval"] == 12 == clock.now
    assert tr.attributed_s() == clock.now


def test_failures_are_counted_where_they_leave_a_layer():
    tr = tracer.Tracer()

    def raise_it():
        raise vw.PrecisionExhausted("undecidable")

    inner = tr.span("series.val", raise_it)
    mid = tr.span("series.add", lambda: inner())
    top = tr.span("valuation.eval", lambda: mid())
    for _ in range(2):
        try:
            top()
        except vw.PrecisionExhausted:
            pass
    assert tr.layer_failures("series") == 2
    assert tr.layer_failures("valuation") == 2


def test_traced_keypoly_evaluation_sums_to_its_wall_time():
    import time
    Q = vw.PolyX.from_ratfuncs(vw.QQ, [-vw.RatFunc.t_power(vw.QQ, 1), vw.RatFunc.zero(vw.QQ),
                                       vw.RatFunc.one(vw.QQ)])
    base = vw.ValuationSpec.monomial(vw.PuiseuxSeries.t_power(vw.QQ, Fraction(1, 2)),
                                     vw.GroupVal.fin(Fraction(1, 2)))
    spec = vw.ValuationSpec.keypoly(Q, vw.GroupVal.fin(1), base)
    f = Q * Q + vw.PolyX.x_power(vw.QQ, 1)
    untraced = vw.eval_spec(spec, f)
    with tracer.Tracer() as tr:
        start = time.perf_counter()
        traced = vw.eval_spec(spec, f)
        wall = time.perf_counter() - start
    assert traced == untraced
    assert tr.calls["valuation.eval"] > 1                   # the spec recursed
    assert tr.total_s["valuation.eval"] <= wall
    assert 0.9 * wall <= tr.attributed_s() <= wall
    assert tr.counts["field.ops"] > 0 and tr.calls["polyx.qadic"] == 1


def test_install_rebinds_names_imported_elsewhere_and_restores_them():
    original = vw.valuation.eval_spec
    assert vw.selftest.eval_spec is original and vw.eval_spec is original
    with tracer.Tracer():
        assert vw.selftest.eval_spec is not original
        assert vw.selftest.eval_spec is vw.valuation.eval_spec is vw.eval_spec
        assert vw.polyx.coerce is vw.series.coerce is not vw.series.coerce.__wrapped__
    assert vw.selftest.eval_spec is original and vw.eval_spec is original


# -- host-speed scaling ----------------------------------------------------------

def test_sampler_probes_during_a_section_and_restores_the_signal_state():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        while time.perf_counter() - start < 0.2:
            pass
    assert len(sampler.refs) >= 5                          # entry, exit and timer probes
    assert 0 < sampler.wall_s < time.perf_counter() - start
    mean_ref = sum(sampler.refs) / len(sampler.refs)
    assert abs(sampler.scaled_s / hostspeed.scale(sampler.wall_s, mean_ref) - 1) < 1e-9
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- the command -----------------------------------------------------------------

def test_run_without_sources_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "suite",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode == 2
    assert '"correct"' not in out.stdout
