"""Report format, config parsing, CLI exit codes, and the worked pipelines."""

import argparse
import ast
import inspect
import io
import random
import re
import shlex
import textwrap
import time
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest

from valwb.algnum import attach_minpoly, krasner_constant
from valwb.cli import COMMANDS, build_parser, main
from valwb.config import WorkbenchConfig, parse_center, parse_config
from valwb.errors import HorizonExceeded, ParseError, PrecisionExhausted, WorkbenchError
from valwb.examples import run_example
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb import polyx, selftest
from valwb.polyx import RATFUNC, polyx_from_text
from valwb.report import Evidence, Report, Verdict, digest, search
from valwb.series import PuiseuxSeries, RatFunc
from valwb.valuation import ValuationSpec, eval_spec


# -- report ------------------------------------------------------------------

def sample_report():
    rep = Report("sample")
    rep.add("op-a", digest("x"), "42", "an exact identity")
    rep.check("op-b", digest("y"), True, "held on 10 samples",
              "a bounded falsifier", caveats=("horizon 12",))
    return rep


def test_report_round_trip():
    rep = sample_report()
    text = rep.to_structured()
    assert Report.from_structured(text) == rep
    assert not rep.failed()
    head, block = "report x\nversion 1\n", "verdict\n  operation: op\n  inputs: in\n"
    for body, message in (
            ("stray\n", "line 3: expected 'verdict', got 'stray'"),
            (block + "  outcome ok\nend\n", "line 6: expected '  key: value'"),
            (block + "  outcome: ok\nend\n", "verdict missing field 'citation'")):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            Report.from_structured(head + body)


def test_report_failure_and_human_form():
    rep = sample_report()
    rep.check("op-c", digest("z"), False, "broke on sample 3", "plumbing")
    assert rep.failed()
    human = rep.to_human()
    assert "FAIL: broke on sample 3" in human
    assert "because:" in human
    text = rep.to_structured()
    assert text.endswith("summary FAIL 3 verdicts\n")


def test_report_rejects_newlines():
    rep = Report("bad")
    with pytest.raises(ParseError):
        rep.add("op", "in", "two\nlines", "c")


def test_report_parse_errors():
    with pytest.raises(ParseError):
        Report.from_structured("nonsense\n")
    with pytest.raises(ParseError):
        Report.from_structured("report x\nversion 2\n")
    with pytest.raises(ParseError):
        Report.from_structured("report x\nversion 1\nverdict\n  operation: op\n")


def test_report_determinism():
    a = sample_report().to_structured()
    b = sample_report().to_structured()
    assert a == b
    assert "time" not in a.lower()


def test_search_counts_an_undecidable_candidate_apart_with_its_note():
    def hit(c):
        if c == 1:
            raise PrecisionExhausted("v(a - b) is only known to be >= 2")
        if c == 3:
            raise HorizonExceeded("delta did not stabilize within the horizon")
        return False

    assert search(range(5), hit) == Evidence(
        tested=3, undecidable=2, notes=("v(a - b) is only known to be >= 2",
                                        "delta did not stabilize within the horizon"))
    assert search(range(2), hit, label=lambda c: f"entry {c}") == Evidence(
        tested=1, undecidable=1, notes=("entry 1: v(a - b) is only known to be >= 2",))
    assert search([], hit) == Evidence(tested=0, undecidable=0, notes=())


def test_search_stops_at_the_first_hit_and_passes_other_errors_on():
    drawn = []

    def candidates():
        for c in range(10):
            drawn.append(c)
            yield c

    assert search(candidates(), lambda c: c == 4) == 4 and drawn == [0, 1, 2, 3, 4]

    def refuses(c):
        raise ParseError("not undecidable, a refusal")

    with pytest.raises(ParseError):
        search(range(3), refuses)


def test_evidence_words_only_an_undecidable_count():
    assert Evidence(3).caveats() == () and Evidence(3, 0, ()).caveats("redraws") == ()
    assert Evidence(3, 2, ("a", "b")).caveats() == ("2 undecidable samples",)
    assert Evidence(0, 1).caveats("redraws") == ("1 undecidable redraws",)


# -- config ------------------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg.field is QQ
    assert cfg.precision == Fraction(64)
    assert cfg.spec is None


def test_parse_config_full():
    text = """
    # workbench config
    char = 2
    precision = 100
    seed = 3
    spec.kind = monomial
    spec.center = t + t^2
    spec.gamma = (1, 0)
    """
    cfg = parse_config(text)
    assert cfg.field.char == 2
    assert cfg.precision == Fraction(100)
    assert cfg.seed == 3
    assert cfg.spec.kind == "monomial"
    assert cfg.spec.gamma == GroupVal.lex(1, 0)


def test_parse_config_keypoly_and_pcslimit():
    kp = parse_config("""
    spec.kind = keypoly
    spec.Q = X^2 - t
    spec.vQ = 1
    spec.base.kind = monomial
    spec.base.center = t^(1/2)
    spec.base.gamma = 1/2
    """)
    assert kp.spec.kind == "keypoly" and kp.spec.base.kind == "monomial"
    pc = parse_config("spec.kind = pcslimit\nspec.generator = exponential\n")
    assert pc.spec.kind == "pcslimit" and pc.spec.gen.name == "exponential"


def test_parse_config_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("char = 0\nbogus line\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(ParseError, match="unknown key"):
        parse_config("colour = red\n")
    with pytest.raises(ParseError):
        parse_config("spec.kind = monomial\n")  # gamma missing
    with pytest.raises(WorkbenchError):
        WorkbenchConfig(field=QQ, precision=Fraction(-1))


# -- CLI ---------------------------------------------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_cfg(tmp_path, text, name="wb.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_eval_and_delta(tmp_path):
    cfg = write_cfg(tmp_path, "spec.kind = gauss\n")
    code, out, _ = run_cli(["eval", "--config", cfg, "--poly", "t*X^2 + X + t^3"])
    assert code == 0 and "[eval] 0" in out
    code2, out2, _ = run_cli(["delta", "--config", cfg, "--poly", "X^2 - t",
                              "--format", "structured"])
    assert code2 == 0 and "outcome: 0" in out2


@pytest.mark.parametrize("cfg_text, argv, want", [
    ("spec.kind = gauss\n", ["eval", "--poly", "[t^(201/2)]*X + 1"], "0"),
    ("spec.kind = gauss\nprecision = 1\n", ["eval", "--poly", "[t^(201/2)]*X + 1"], "0"),
    ("spec.kind = monomial\nspec.center = 1\nspec.gamma = 1/2\n",
     ["delta", "--poly", "[t^(1/2)]*X - [t^(1/2)]"], "1/2"),
], ids=["eval-default-prec", "eval-prec-1", "delta"])
def test_cli_reads_series_text_exactly_at_any_precision(tmp_path, cfg_text, argv, want):
    # an exact series coefficient is no truncation: t^(201/2) lies past O(t^64) and
    # t^(1/2) (X - 1) vanishes at the center, both still exact
    code, out, err = run_cli([argv[0], "--config", write_cfg(tmp_path, cfg_text)] + argv[1:])
    assert (code, err) == (0, "") and f"[{argv[0]}] {want}\n" in out, out


def test_cli_delta_refuses_a_window_wider_than_the_horizon(tmp_path):
    # horizon 3 materializes three deltas; a window of six used to read them
    # all and print "[delta] 0", while eval refused the same config
    cfg = write_cfg(tmp_path, "char = 0\nhorizon = 3\nwindow = 6\n"
                              "spec.kind = pcslimit\nspec.generator = exponential\n")
    for cmd in ("delta", "eval"):
        code, out, err = run_cli([cmd, "--config", cfg, "--poly", "X + 1"])
        assert (code, out, err) == (1, "", "error: window exceeds the materialized horizon\n")

def test_cli_classify_structured_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "spec.kind = pcslimit\nspec.generator = exponential\n")
    runs = [run_cli(["classify", "--config", cfg, "--format", "structured"])
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_cli_verdict_failure_exit_2(tmp_path):
    # density under a unique-pair spec: a provable refusal, exit code 2
    cfg = write_cfg(tmp_path, "spec.kind = monomial\nspec.center = t^(1/2)\n"
                              "spec.gamma = (1, 0)\n")
    code, out, _ = run_cli(["density", "--config", cfg, "--f", "X + t",
                            "--g", "X", "--alpha", "3"])
    assert code == 2
    assert "FAIL" in out


def test_cli_same_delta_at_a_delta_not_below_alpha_is_a_failed_verdict(tmp_path):
    # at the monomial spec at t of weight 1, delta(X^2 - t^3) = 1: no target distance 1
    cfg = write_cfg(tmp_path, "spec.kind = monomial\nspec.center = t\nspec.gamma = 1\n")
    assert run_cli(["same-delta", "--config", cfg, "--poly", "X^2 - [t^3]", "--alpha", "1"]) == (
        2, "== same-delta ==\n[same-delta] FAIL: delta(f) = 1 is not below alpha = 1\n"
           "    because: the target distance must exceed the polynomial's delta  "
           "(inputs 6810a83e86cc3663)\n-- FAIL: 1 verdicts --\n", "")


def test_cli_lift_cskp_refuses_a_residue_search_over_a_large_prime_field(tmp_path):
    # the unique pair's root search would try every residue of F_1000003
    cfg = write_cfg(tmp_path, "char = 1000003\nspec.kind = monomial\nspec.center = t\n"
                              "spec.gamma = (1, 0)\n")
    assert run_cli(["lift-cskp", "--config", cfg, "--seq", "X @ 1", "--center", "t",
                    "--minpoly", "X^2 - [t^2]"]) == (
        1, "", "error: residue-root search infeasible for this characteristic\n")


def test_cli_cskp_check_decided_miss_is_a_verdict_failure(tmp_path):
    # under the monomial spec at t of weight 2, v(X - t) = 2 while the digits of X - t in
    # X give 1: the one admissible entry is decided and no witness
    cfg = write_cfg(tmp_path, "spec.kind = monomial\nspec.center = t\nspec.gamma = 2\n")
    argv = ["cskp-check", "--config", cfg, "--poly", "X - t", "--seq", "X @ 1"]
    assert run_cli(argv) == (2, "== cskp-check ==\n"
                             "[cskp-check] FAIL: no witness among 1 admissible entries\n"
                             "    because: the sequence is incomplete for this polynomial  "
                             "(inputs 333ab24cbfaaefb3)\n-- FAIL: 1 verdicts --\n", "")
    assert run_cli(argv + ["--format", "structured"]) == (
        2, "report cskp-check\nversion 1\nverdict\n  operation: cskp-check\n"
           "  inputs: 333ab24cbfaaefb3\n  outcome: FAIL: no witness among 1 admissible entries\n"
           "  citation: the sequence is incomplete for this polynomial\nend\n"
           "summary FAIL 1 verdicts\n", "")


def test_cli_cskp_check_undecidable_entries_are_no_verdict(tmp_path):
    # the center is known only to O(t^3), below the weight (1, 0): the one entry's value is
    # undecidable, which is no evidence that the sequence is incomplete
    cfg = write_cfg(tmp_path, "spec.kind = monomial\nspec.center = t + O(t^3)\n"
                              "spec.gamma = (1, 0)\n")
    assert run_cli(["cskp-check", "--config", cfg, "--poly", "X", "--seq", "X - t @ 1"]) == (
        1, "", "error: no witness among 0 decided entries; 1 undecidable, entry 0: an "
               "undecidable coefficient (bound 3) may cut below the decided minimum (1, 0)\n")


def test_cli_lift_cskp_refuses_a_budget_that_is_not_positive(tmp_path):
    # a budget of 0 used to print "X + [O(t^0)] @ (1, 0)" as a root found in the
    # completion, and -5 "X + [O(t^-5)]", with no digit solved
    cfg = write_cfg(tmp_path, "char = 2\nspec.kind = monomial\n"
                              "spec.center = t + t^2 + t^4 + O(t^8)\nspec.gamma = (1, 0)\n")
    argv = ["lift-cskp", "--config", cfg, "--seq", "X^2 + X + [t] @ (1, 0)",
            "--center", "t + t^2 + t^4 + O(t^8)", "--minpoly", "X^2 + X + [t]"]
    for budget in ("0", "-5"):
        assert run_cli(argv + ["--budget", budget]) == (
            1, "", f"error: root search budget must be positive, got {budget}\n")
    code, out, _ = run_cli(argv + ["--budget", "8"])
    assert code == 0 and "[lift-cskp] X + [t + t^2 + t^4 + O(t^8)] @ (1, 0)" in out
    # a spec that never reads the budget refuses it all the same
    cfg = write_cfg(tmp_path, "spec.kind = monomial\nspec.center = t\nspec.gamma = 1/2\n",
                    "monomial.cfg")
    for budget in ("0", "-1"):
        assert run_cli(["lift-cskp", "--config", cfg, "--seq", "X - [t] @ 1",
                        "--budget", budget]) == (
            1, "", f"error: root search budget must be positive, got {budget}\n")


def test_cli_input_error_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, "spec.kind = gauss\n")
    code, _, err = run_cli(["eval", "--config", cfg, "--poly", "bogus ]]]"])
    assert code == 1 and "error:" in err
    # missing config spec
    code2, _, err2 = run_cli(["eval", "--poly", "X"])
    assert code2 == 1 and "spec" in err2


def test_cli_out_file(tmp_path):
    cfg = write_cfg(tmp_path, "spec.kind = gauss\n")
    dest = tmp_path / "report.txt"
    code, out, _ = run_cli(["classify", "--config", cfg, "--out", str(dest)])
    assert code == 0 and out == ""
    assert "ResidueTranscendental" in dest.read_text()


def test_cli_threshold_and_pcs_classify(tmp_path):
    code, out, _ = run_cli(["threshold", "--poly", "X^2 + t", "--alpha", "3"])
    assert code == 0 and "12" in out
    code2, out2, _ = run_cli(["pcs-classify", "--generator", "mixed-radix(2,3)"])
    assert code2 == 0 and "transcendental-type" in out2


# -- worked pipelines ----------------------------------------------------------

def test_run_example_tower():
    rep = run_example("6.1", p=2, witness_samples=5)
    assert not rep.failed()
    assert any("delta table" == v.operation for v in rep.verdicts)


def test_run_example_factorial():
    rep = run_example("6.2")
    assert not rep.failed()


def test_run_example_mixed_radix():
    rep = run_example("6.3", p=2, q=3)
    assert not rep.failed()


def test_example_mixed_radix_passes_where_p_does_not_divide_q_and_refuses_the_rest():
    # where p | q every exponent (q/p)^n is an integer: the sequence has a limit in k((t))
    for q in range(2, 9):
        for p in range(1, q):
            code, out, err = run_cli(["example", "6.3", "--p", str(p), "--q", str(q)])
            if q % p:
                assert (code, err) == (0, "") and "FAIL" not in out, (p, q)
            else:
                assert (code, out, err) == (
                    1, "", f"error: pipeline 6.3 needs p not dividing q, got p = {p}, q = {q}\n")


def test_run_example_unknown():
    with pytest.raises(WorkbenchError):
        run_example("9.9")


@pytest.mark.parametrize("ident, param, message", [
    ("6.1", "q", "this pipeline takes no q"),
    ("6.2", "p", "this pipeline takes no parameters"),
    ("6.2", "q", "this pipeline takes no parameters"),
])
def test_run_example_refuses_a_parameter_its_pipeline_does_not_read(ident, param, message):
    with pytest.raises(WorkbenchError, match=f"^{message}$"):
        run_example(ident, **{param: 5})
    assert run_cli(["example", ident, f"--{param}", "5"]) == (1, "", f"error: {message}\n")


# -- CLI robustness: malformed input ends as "error: ...", never a traceback --

CLI_BASELINE = {  # valid arguments for every subcommand
    "eval": ["--poly", "X + t"],
    "delta": ["--poly", "X^2 - t"],
    "classify": [],
    "induce": [],
    "cskp-check": ["--poly", "X + t", "--seq", "X @ 0"],
    "lift-cskp": ["--seq", "X @ 0"],
    "density": ["--f", "X + t", "--g", "X", "--alpha", "3"],
    "same-delta": ["--poly", "X^2 - t", "--alpha", "3"],
    "threshold": ["--poly", "X^2 + t", "--alpha", "3"],
    "pcs-classify": ["--generator", "exponential"],
    "kras": ["--center", "t^(1/2)", "--minpoly", "X^2 - t"],
    "example": ["6.2"],
    "selftest": [],
}

CLI_FAULTS = [
    ("config", "char = abc"), ("config", "char = 4"), ("config", "char = 1/0"),
    ("config", "precision = zz"), ("config", "precision = 1/0"),
    ("config", "precision = -3"), ("config", "ram_cap = x"), ("config", "ram_cap = 1.5"),
    ("config", "horizon = h"), ("config", "horizon = 2"), ("config", "window = w"),
    ("config", "seed = s"), ("config", "no equals sign"), ("config", "spec.kind = bogus"),
    ("config", "spec.kind = monomial\nspec.gamma = q"),
    ("config", "spec.kind = monomial\nspec.center = t^(1/0)\nspec.gamma = 1"),
    ("config", "spec.kind = pcslimit\nspec.generator = mixed-radix(2)"),
    ("config", "spec.kind = pcslimit\nspec.generator = artin-schreier(x)"),
    ("config", "spec.kind = keypoly\nspec.Q = X^^2\nspec.vQ = 1"),
    ("--prec", "zz"), ("--prec", "0"), ("--prec", "1/0"), ("--seed", "x"),
    ("--config", "missing.cfg"), ("--format", "xml"), ("--budget", "zz"),
    ("--budget", "1/0"), ("--generator", "mixed-radix(2)"),
    ("--generator", "mixed-radix(a,b)"), ("--generator", "artin-schreier(x)"),
    ("--generator", "mixed-radix(3,2)"), ("--generator", "mixed-radix(0,1)"),
    ("--generator", "artin-schreier(0)"), ("--generator", "artin-schreier(-3)"),
    ("config", "horizon = -5"), ("config", "window = 0"), ("config", "ram_cap = -1"),
    ("config", "char = -7"), ("--poly", "X^"), ("--poly", "X^(1/2)"),
    ("--poly", "(("), ("--seq", "X @"), ("--seq", "junk"), ("--alpha", "q"),
    ("--alpha", "(1,"), ("--center", "t^(1/0)"), ("--center", "t^x"),
    ("--minpoly", "X^2 -- "), ("--minpoly", ""), ("--f", "X^^"), ("--p", "x"), ("--q", "0"),
    ("--poly", f"[{'7' * 5000}]*X + 1"), ("--f", f"X + [{'7' * 5000} * t]"),
    ("--poly", "+"), ("--poly", "- +"), ("--seq", "- @ 1"), ("--minpoly", "+"), ("--f", "-"),
    ("config", "spec.kind = keypoly\nspec.Q = +\nspec.vQ = 1"), ("config", "horizon = 100000"),
    ("--seq", ";"), ("--seq", " ; "), ("--generator", None), ("config", "= 1"),
    ("config", "spec.gamma = 1"), ("config", "spec.kind = gauss\nspec.over = X"),
    ("config", "spec.kind = gauss\nspec.foo = 1"),
    ("config", "spec.kind = keypoly\nspec.Q = X^2 - t\nspec.vQ = 1"),
    ("config", "spec.kind = monomial\nspec.center = t\nspec.gamma = (1, 0)"),
    ("--seq", "X @ 1; X + [t] @ 0"), ("--alpha", "(1, 0)"), ("--g", "0"),
    ("config", "spec.kind = keypoly\nspec.Q = X^3 - t\nspec.vQ = 1\n"
               "spec.base.kind = pcslimit\nspec.base.generator = exponential"),
    ("config", "spec.kind = keypoly\nspec.Q = X^3 - t\nspec.vQ = 1\n"
               "spec.base.kind = keypoly\nspec.base.Q = X^2 - t\nspec.base.vQ = 1"),
]


@pytest.mark.parametrize("command, fault, message", [
    ("cskp-check", ("--seq", ";"), "empty key-polynomial sequence"),
    ("lift-cskp", ("--seq", " ; "), "empty key-polynomial sequence"),
    ("pcs-classify", ("--generator", None), "config spec is not a limit spec; pass --generator"),
    ("eval", ("config", "= 1"), "line 1: empty key"),
    ("eval", ("config", "spec.gamma = 1"),
     "spec.kind is required when any spec.* key is present"),
    ("eval", ("config", "spec.kind = gauss\nspec.over = X"),
     "spec.over must be K or Khat, got 'X'"),
    ("eval", ("config", "spec.kind = gauss\nspec.foo = 1"), "unknown spec key 'spec.foo'"),
    ("classify", ("config", "spec.kind = keypoly\nspec.Q = X^2 - t\nspec.vQ = 1"),
     "cannot classify a spec of kind 'keypoly'"),
    ("induce", ("config", "spec.kind = keypoly\nspec.Q = X^2 - t\nspec.vQ = 1"),
     "cannot classify a spec of kind 'keypoly'"),
    ("lift-cskp", ("config", "spec.kind = monomial\nspec.center = t\nspec.gamma = (1, 0)"),
     "unique-pair lifting needs the certified center"),
    ("cskp-check", ("--seq", "X @ 1; X + [t] @ 0"),
     "sequence deltas must strictly increase: 1 then 0"),
    ("threshold", ("--alpha", "(1, 0)"), "the threshold needs a rational alpha"),
    ("same-delta", ("--alpha", "(1, 0)"), "alpha must be a rational value"),
    ("density", ("--alpha", "(1, 0)"), "alpha must be a rational value"),
    ("density", ("--g", "0"), "the denominator g must be nonzero"),
    ("eval", ("config", "spec.kind = keypoly\nspec.Q = X^3 - t\nspec.vQ = 1\n"
                        "spec.base.kind = pcslimit\nspec.base.generator = exponential"),
     "spec.base.kind must be gauss or monomial, got 'pcslimit'"),
    ("eval", ("config", "spec.kind = keypoly\nspec.Q = X^3 - t\nspec.vQ = 1\n"
                        "spec.base.kind = keypoly\nspec.base.Q = X^2 - t\nspec.base.vQ = 1"),
     "spec.base.kind must be gauss or monomial, got 'keypoly'"),
])
def test_cli_fault_ends_with_its_message(tmp_path, command, fault, message):
    assert fault in CLI_FAULTS
    assert run_faulty_cli(tmp_path, command, [fault]) == (1, "", f"error: {message}\n", False)


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli_baseline.txt"


def test_every_subcommand_runs_its_baseline_line_to_completion(tmp_path, monkeypatch):
    # each valid line runs under a config it reads, and its exit code and report are pinned;
    # selftest runs a stub, which records the seed: --seed overrides the config's
    seeds = []

    def run_all(seed):
        seeds.append(seed)
        rep = Report("selftest")
        rep.check("selftest", digest(seed), True, f"stub at seed {seed}")
        return rep

    monkeypatch.setattr(selftest, "run_all", run_all)
    cfg = write_cfg(tmp_path, "spec.kind = gauss\nseed = 5\n")
    lines = [[command] + argv for command, argv in CLI_BASELINE.items()]
    transcript = ""
    for argv in lines + [["selftest", "--seed", "9"]]:
        code, out, err = run_cli(argv + ([] if argv[0] == "example" else ["--config", cfg]))
        assert err == "", (argv, err)
        transcript += f"$ valwb {shlex.join(argv)}\nexit {code}\n{out}"
    assert seeds == [5, 9]
    assert transcript == GOLDEN_CLI.read_text()


def test_cli_refuses_a_horizon_whose_prefix_exceeds_the_dense_size_bound(tmp_path):
    # the prefix a_0..a_h holds (h+1)(h+2)/2 terms; at horizon 1413 the exponential
    # sequence took 13 s and 634 MB, and beyond it grew without bound
    cfg = write_cfg(tmp_path, "horizon = 100000\n")
    start = time.perf_counter()
    assert run_cli(["pcs-classify", "--config", cfg, "--generator", "exponential"]) == (
        1, "", "error: horizon 100000 materializes 5000150001 terms, "
               "above the dense-size bound 1000000\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("entry",
                         ["0 @ 1", "1 @ 1", "[t] @ 1", "2*X @ 1", "X^2 + [1 / t]*X^3 @ 1"])
def test_cli_refuses_a_sequence_entry_that_is_no_key_polynomial(tmp_path, entry):
    # an entry is refused as spec.Q is, by both commands that read --seq
    cfg = write_cfg(tmp_path, "spec.kind = gauss\n")
    for argv in (["lift-cskp", "--seq", entry], ["cskp-check", "--poly", "X + t", "--seq", entry]):
        assert run_cli(argv + ["--config", cfg]) == (
            1, "", "error: key polynomial must be monic of degree >= 1\n")


# flags tried on every subcommand: those it does not take end as parser rejections
COMMON_FLAGS = ("--config", "--prec", "--seed", "--out", "--format")

# optional flags, read by the subcommands named here besides those above
CLI_OPTIONAL = {"--budget": ["lift-cskp"], "--center": ["lift-cskp"],
                "--minpoly": ["lift-cskp"], "--p": ["example"], "--q": ["example"]}


def run_faulty_cli(tmp_path, command, faults):
    cfg_text, argv = "spec.kind = gauss\n", list(CLI_BASELINE[command])
    for key, value in faults:
        if key == "config":
            cfg_text = value + "\n"
        elif value is None:  # the flag and its value left out
            if key in argv:
                del argv[argv.index(key):argv.index(key) + 2]
        elif key in argv:
            argv[argv.index(key) + 1] = value
        else:
            argv += [key, str(tmp_path / value) if key == "--config" else value]
    if "--config" not in argv and command != "example":  # example reads no config
        argv += ["--config", write_cfg(tmp_path, cfg_text)]
    err = io.StringIO()
    try:  # (code, out, err) and whether the parser rejected the command line
        with redirect_stderr(err):
            build_parser().parse_args([command] + argv)
    except SystemExit as exc:
        return exc.code, "", err.getvalue(), True
    return (*run_cli([command] + argv), False)


def test_cli_malformed_input_never_leaks_a_traceback(tmp_path, monkeypatch):
    # a valid config fault reaches selftest, whose suite reads no spec: a stub stands in for it
    monkeypatch.setattr(selftest, "run_all", lambda seed: Report("selftest"))
    rng = random.Random(0)
    commands = list(CLI_BASELINE)
    runs = []
    for fault in CLI_FAULTS:
        if fault[0] == "config" or fault[0] in COMMON_FLAGS:
            readers = commands
        else:  # the commands that read the flag, and two more that reject it
            readers = [c for c in commands if fault[0] in CLI_BASELINE[c]]
            readers += CLI_OPTIONAL.get(fault[0], []) + rng.sample(commands, 2)
        runs += [(c, [fault]) for c in readers]
    for command in commands:  # and every command under two random pairs of faults
        runs += [(command, rng.sample(CLI_FAULTS, 2)) for _ in range(2)]
    rejected = 0
    for command, faults in runs:
        code, _, err, parser = run_faulty_cli(tmp_path, command, faults)
        assert code in (0, 1, 2), (command, faults)
        assert "Traceback" not in err, (command, faults)
        if code == 1:
            assert err.startswith("error: "), (command, faults, err)
        if parser:  # exit 2 is kept for a check that ran and failed
            assert code == 1 and "usage:" not in err, (command, faults, err)
            rejected += 1
    assert rejected >= 30, rejected


@pytest.mark.parametrize("argv, message", [
    (["kras", "--center", "t"], "the following arguments are required: --minpoly"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["eval", "--poly", "X", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["eval", "--poly", "X", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["eval", "--poly", "X", "--prec", "1"], "unrecognized arguments: --prec 1"),
    (["eval", "--poly", "X", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["example", "6.2", "--config", "x"], "unrecognized arguments: --config x"),
])
def test_cli_parser_rejections_end_as_input_errors(argv, message):
    with pytest.raises(SystemExit) as exc, redirect_stderr(err := io.StringIO()):
        main(argv)
    assert exc.value.code == 1 and err.getvalue().startswith(f"error: {message}")
    assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["lift-cskp", "--seq", "X @ 0", "--minpoly", "junk ]]"], "--minpoly is read only with --center"),
    (["lift-cskp", "--seq", "X @ 0", "--minpoly", "X - t"], "--minpoly is read only with --center"),
    (["lift-cskp", "--seq", "X @ 0", "--center", ""], "argument --center: empty value"),
    (["lift-cskp", "--seq", "X @ 0", "--budget", ""], "argument --budget: empty value"),
    (["lift-cskp", "--seq", "X @ 0", "--center", "t", "--minpoly", " "],
     "argument --minpoly: empty value"),
    (["pcs-classify", "--generator", ""], "argument --generator: empty value"),
])
def test_cli_refuses_an_empty_or_unread_optional_value(tmp_path, argv, message):
    # an optional flag that this call does not read, or an empty value, is not taken as absent
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv + ["--config", write_cfg(tmp_path, "spec.kind = gauss\n")])
        except SystemExit as exc:
            code = exc.code
    assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("center, argv, span, lattice", [
    ("t", ["eval", "--poly", "[t^(999999/1000) + t^(1/999)]*X + 1"], 998999001, 999000),
    ("t^(1/1000)", ["delta", "--poly", "[t^(1/999) + t^1000]*X + 1"], 999000000, 999000),
    ("t", ["eval", "--poly", "[t^(1/999) + O(t^1002)]*X + 1"], 1000998, 999),
    ("t^(1/1000) + O(t^1001)", ["eval", "--poly", "X + 1"], 1001000, 1000),
    ("t", ["density", "--f", "[t^(1/1000)]*X", "--g", "[t^(999998/999)]*X + 1", "--alpha", "1"],
     999998000, 999000),
    ("t", ["lift-cskp", "--seq", "X + [t^(1/999)] @ 1", "--center", "t^(2001/1000)"],
     1998999, 999000),
    ("t", ["cskp-check", "--poly", "[t^(999999/1000)]*X^2 + 1", "--seq", "X^2 + [t^(1/999)]*X @ 1"],
     998999001, 999000),
])
def test_cli_refuses_a_common_lattice_span_above_the_dense_size_bound(
        tmp_path, monkeypatch, center, argv, span, lattice):
    # each number is at most DENSE_SIZE, but their common lattice spans more slots: refused
    # where the text is read, before any dense form (a packed value row) is built
    def packed(*args):
        raise AssertionError("the dense form was built")

    monkeypatch.setattr(polyx, "_packed_values", packed)
    cfg = write_cfg(tmp_path, f"spec.kind = monomial\nspec.center = {center}\nspec.gamma = 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(argv + ["--config", cfg])
    assert (code, out) == (1, "") and err == (
        f"error: exponents and caps span {span} slots of the lattice (1/{lattice})Z, "
        f"above the dense-size bound 1000000\n")
    assert time.perf_counter() - start < 1


def handler_reads(handler) -> set:
    """The args.<dest> names a CLI handler reads, with "config" for a _load_cfg(args) call."""
    reads = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(handler)))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            reads.add(node.attr)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load_cfg" \
                and node.args and getattr(node.args[0], "id", None) == "args":
            reads.add("config")
    return reads


def test_every_subcommand_reads_every_flag_it_accepts():
    # a flag that no handler reads changes nothing, so the parser must refuse it;
    # --out and --format are read once for every subcommand, by main
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS)
    for name, (_, handler, _) in COMMANDS.items():
        accepted = {a.dest for a in sub.choices[name]._actions} - {"help", "out", "format"}
        assert handler_reads(handler) == accepted, name


@pytest.mark.parametrize("cfg_text", [
    "spec.kind = monomial\nspec.gamma = inf\n",
    "spec.kind = keypoly\nspec.Q = X - t\nspec.vQ = inf\n",
    "spec.kind = keypoly\nspec.Q = X\nspec.vQ = 1\nspec.base.kind = monomial\n"
    "spec.base.gamma = inf\n",
])
def test_cli_refuses_an_infinite_weight_at_every_config_reader(tmp_path, cfg_text):
    cfg = write_cfg(tmp_path, cfg_text)
    for command, argv in CLI_BASELINE.items():
        if command == "example":  # runs built-in data and reads no config
            continue
        code, out, err = run_cli([command, "--config", cfg] + argv)
        assert (code, out, err) == (1, "", "error: a valuation weight cannot be infinite\n"), \
            command


@pytest.mark.parametrize("cfg_text, argv", [
    ("spec.kind = gauss\n", ["eval", "--poly", "[t / 0]"]),
    ("spec.kind = gauss\n", ["eval", "--poly", "[(1+t) / (t - t)]"]),
    ("spec.kind = gauss\n", ["eval", "--poly", "[t + O(t^(1/0))]*X + 1"]),
    ("spec.kind = monomial\nspec.center = t + O(t^(1/0))\nspec.gamma = 1\n",
     ["eval", "--poly", "X + t"]),
    ("spec.kind = keypoly\nspec.Q = [t / 0]*X + 1\nspec.vQ = 1\n", ["eval", "--poly", "X + t"]),
    ("spec.kind = keypoly\nspec.Q = X + [(1+t) / (t - t)]\nspec.vQ = 1\n",
     ["eval", "--poly", "X + t"]),
    ("spec.kind = gauss\n", ["kras", "--center", "t^(1/2) + O(t^(3/0))", "--minpoly", "X^2 - t"]),
], ids=["poly-zero", "poly-cancelled", "poly-O-term", "spec.center-O-term", "spec.Q-zero",
        "spec.Q-cancelled", "kras-center-O-term"])
def test_cli_refuses_a_zero_denominator_at_every_text_reader(tmp_path, cfg_text, argv):
    code, out, err = run_cli([argv[0], "--config", write_cfg(tmp_path, cfg_text)] + argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


MONOMIAL_AT_T = "spec.kind = monomial\nspec.center = t\nspec.gamma = 1\n"


@pytest.mark.parametrize("cfg_text, argv", [
    ("spec.kind = gauss\n", ["eval", "--poly", "[t^99999999999999999999]*X + 1"]),
    (MONOMIAL_AT_T, ["eval", "--poly", "[t^(1/99999999999999999999)]*X + 1"]),
    (MONOMIAL_AT_T, ["eval", "--poly", "[t^1000000000]*X + 1"]),
    ("spec.kind = gauss\n", ["eval", "--poly", "[1 + O(t^99999999999)]*X + 1"]),
    ("spec.kind = gauss\n", ["eval", "--poly", "X^99999999999"]),
    (None, ["example", "6.1", "--p", "2147483647"]),
], ids=["t-exponent", "t-exponent-denominator", "t-exponent-short", "cap", "X-degree",
        "example-p"])
def test_cli_refuses_a_size_above_the_dense_bound_where_it_is_read(tmp_path, cfg_text, argv):
    # each is refused before anything dense is built, so it ends fast with one error line
    start = time.perf_counter()
    config = ["--config", write_cfg(tmp_path, cfg_text)] if cfg_text else []  # example reads none
    code, out, err = run_cli([argv[0]] + config + argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "exceeds the dense-size bound 1000000" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("poly, k_error", [
    ("[t / 0]", "zero denominator in 't / 0'"),
    ("[(1+t) / (t - t)]*X + 1", "zero denominator in '(1+t) / (t - t)'"),
])
def test_cli_keeps_the_k_parser_message_when_both_parsers_fail(tmp_path, poly, k_error):
    # the series parser fails too, on "bad term"; the K parser's reason comes first
    cfg = write_cfg(tmp_path, "spec.kind = gauss\n")
    code, out, err = run_cli(["eval", "--config", cfg, "--poly", poly])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {k_error}; as series: bad term ") and err.count("\n") == 1, err


# -- centers of K in the config --------------------------------------------------
#
# spec.center and spec.base.center are read as elements of K first, then as series,
# as --poly is; an element of K stays the spec center's source.

def test_config_center_of_k_answers_as_the_spec_at_the_element(tmp_path):
    a = RatFunc.from_text(QQ, "1 / (1+t)")
    monomial = "char = 0\nspec.kind = monomial\nspec.center = 1 / (1+t)\nspec.gamma = 2\n"
    keypoly = ("char = 0\nspec.kind = keypoly\nspec.Q = X^2 - t\nspec.vQ = 3\n"
               "spec.base.kind = monomial\nspec.base.center = 1 / (1+t)\nspec.base.gamma = 2\n")
    want = ValuationSpec.monomial(a, GroupVal.fin(2))
    for text in (monomial, keypoly):
        spec = parse_config(text).spec
        center = (spec.base if spec.kind == "keypoly" else spec).center
        assert center.source == a and center == a.to_series()
        want_spec = ValuationSpec.keypoly(polyx_from_text(QQ, "X^2 - t"), GroupVal.fin(3), want) \
            if spec.kind == "keypoly" else want
        cfg = write_cfg(tmp_path, text)
        for poly in ("X + 1", "[1 + t]*X - 1", "X^3 + [t]*X + [t^3 / (1 + t^2)]"):
            value = eval_spec(want_spec, polyx_from_text(QQ, poly))
            assert eval_spec(spec, polyx_from_text(QQ, poly)) == value
            code, out, err = run_cli(["eval", "--config", cfg, "--poly", poly])
            assert (code, err) == (0, "") and f"[eval] {value.to_text()}\n" in out, (poly, out)


def test_cli_center_reads_k_text_first_as_the_config_does(tmp_path):
    # --center is read as an element of K first, then as a series: a center with a
    # pole reaches the command's own refusal instead of a parse error on its text
    for minpoly, message in (("X^2 - t", "Q(s) has valuation 0, decidably nonzero"),
                             ("X - [1 / (1 + t)]",
                              "the Krasner constant needs an element of degree >= 2")):
        code, out, err = run_cli(["kras", "--center", "1 / (1+t)", "--minpoly", minpoly])
        assert (code, out, err) == (1, "", f"error: {message}\n"), minpoly
    code, out, err = run_cli(["kras", "--center", "t^(1/2)", "--minpoly", "X^2 - t"])
    assert (code, err) == (0, "") and "[kras] 1/2\n" in out
    cfg = write_cfg(tmp_path, "char = 0\nspec.kind = gauss\n")
    code, out, err = run_cli(["lift-cskp", "--config", cfg, "--seq", "X @ 0",
                              "--center", "1 / (1+t)"])
    assert (code, err) == (0, "") and "[lift-cskp] X @ 0\n" in out
    code, _, err = run_cli(["kras", "--center", "1 / (1+", "--minpoly", "X^2 - t"])
    assert (code, err) == (1, "error: bad term '(1+'; as series: bad term '1 / (1+'\n")


NO_CERTIFICATE = "error: no certified minimal polynomial and no pure-ramification route\n"
BELOW_DEGREE_2 = "error: the Krasner constant needs an element of degree >= 2\n"


@pytest.mark.parametrize("char, center, minpoly, want", [
    # t + t^2 lies in K: a reducible Q of degree 2 certifies nothing, though a is its root
    (0, "t + t^2", "X^2 - [t^2 + 2*t^3 + t^4]", NO_CERTIFICATE),
    (0, "t + t^2", "X - [t + t^2]", BELOW_DEGREE_2),
    # a capped expansion has no known degree; F_7's twists still answer
    (0, "t^(1/3) + O(t^4)", "X^3 - t", NO_CERTIFICATE),
    (7, "t^(1/3) + O(t^4)", "X^3 - t", "[kras] 1/3\n"),
    # over F_3, X^3 - t = (X - t^(1/3))^3: a ramification of p is no degree
    (3, "t^(1/3)", "X^3 - t", NO_CERTIFICATE),
    (0, "t^(1/3)", "X^3 - t", "[kras] 1/3\n"),
    (0, "t^(1/3) + t^(5/3)", "X^3 - 3*t^2*X - [t + t^5]", "[kras] 1/3\n"),
    # exact tame centers over F_p: the twists answer
    (7, "t^(1/3)", "X^3 - t", "[kras] 1/3\n"), (7, "t^(1/2)", "X^2 - t", "[kras] 1/2\n"),
    (5, "t^(1/2) + t", "X^2 - 2*t*X + [t^2 - t]", "[kras] 1/2\n"),
    # 1/t expands to O(t^64): Q(a) = 0 is undecided, and so is the certificate
    (0, "t^(-1/3)", "X^3 - [1 / t]",
     "error: series indistinguishable from 0 at precision O(t^64)\n"),
    (7, "t^(-1/3)", "X^3 - [1 / t]",
     "error: series indistinguishable from 0 at precision O(t^64)\n"),
    (2, "t^(1/2)", "X^2 - t", NO_CERTIFICATE),  # wild
    # centers in K have degree 1
    (0, "1 / (1 - t)", "X - [1 / (1 - t)]", BELOW_DEGREE_2),
    (0, "1 / t", "X - [1 / t]", BELOW_DEGREE_2),
    # a certificate of the wrong degree certifies nothing; the twists answer where k has them
    (0, "t^(1/3)", "X^6 - t^2", NO_CERTIFICATE), (7, "t^(1/3)", "X^6 - t^2", "[kras] 1/3\n"),
    (0, "t^(1/2)", "X^4 - t^2", "[kras] 1/2\n"),
    # not a root
    (0, "1 / (1 - t)", "X^2 - t", "error: Q(s) has valuation 0, decidably nonzero\n"),
    (0, "t^(1/3)", "X^3 - t - t^9", "error: Q(s) has valuation 9, decidably nonzero\n"),
])
def test_cli_kras_certifies_a_minpoly_only_of_the_centers_degree_with_an_exact_root(
        tmp_path, char, center, minpoly, want):
    # kras prints the library's answer: krasner_constant(attach_minpoly(a, Q)) or its error
    code, out, err = run_cli(["kras", "--config", write_cfg(tmp_path, f"char = {char}\n"),
                              "--center", center, "--minpoly", minpoly])
    if want.startswith("error: "):
        assert (code, out, err) == (1, "", want)
    else:
        assert (code, out, err) == (0, (
            f"== kras ==\n{want}    because: maximal valuation of a difference of distinct "
            f"conjugates  (inputs {digest(center, minpoly)})\n-- ok: 1 verdicts --\n"), "")
    field = parse_config(f"char = {char}\n").field
    try:
        got = krasner_constant(attach_minpoly(parse_center(field, center).to_series(),
                                              polyx_from_text(field, minpoly, RATFUNC)))
        got = f"[kras] {got.to_text()}\n"
    except WorkbenchError as exc:
        got = f"error: {exc}\n"
    assert got == want


def test_lift_cskp_reads_a_center_whose_certificate_is_undecided(tmp_path):
    # kras refuses t^(-1/3) with X^3 - [1 / t] (its degree is undecided at O(t^64)); the
    # unique-pair root search reads no degree, and answers as before
    cfg = write_cfg(tmp_path, "spec.kind = monomial\nspec.center = 0\nspec.gamma = (1, 0)\n")
    code, out, err = run_cli(["lift-cskp", "--config", cfg, "--seq", "X @ 0",
                              "--center", "t^(-1/3)", "--minpoly", "X^3 - [1 / t]"])
    assert (code, err) == (0, "") and "[lift-cskp] X @ 0\n    because:" in out
    assert "caveat: inconclusive at budget 64: no ram-1 root; final certificate left in place\n" \
        in out


@pytest.mark.parametrize("flag", ["true", "false"])
def test_config_refuses_a_declared_cofinal_kind(tmp_path, flag):
    text = f"spec.kind = monomial\nspec.center = t\nspec.gamma = 1\nspec.declared_cofinal = {flag}\n"
    with pytest.raises(ParseError, match="needs an irrational weight"):
        parse_config(text)
    code, out, err = run_cli(["classify", "--config", write_cfg(tmp_path, text)])
    assert (code, out) == (1, "") and err.startswith("error: spec.declared_cofinal"), err


@pytest.mark.parametrize("center", ["t^(1/2)", "2*t", "1 + t + O(t^5)", "0", "t^(-1) + 3/2"])
def test_config_center_reads_series_text_as_before(center):
    spec = parse_config(f"spec.kind = monomial\nspec.center = {center}\nspec.gamma = 1\n").spec
    before = ValuationSpec.monomial(PuiseuxSeries.from_text(QQ, center), GroupVal.fin(1))
    assert spec.to_text().encode() == before.to_text().encode()


@pytest.mark.parametrize("cfg_text", [
    "spec.kind = monomial\nspec.center = {}\nspec.gamma = 1\n",
    "spec.kind = keypoly\nspec.Q = X\nspec.vQ = 1\nspec.base.kind = monomial\n"
    "spec.base.center = {}\nspec.base.gamma = 1\n",
], ids=["spec.center", "spec.base.center"])
@pytest.mark.parametrize("center, message", [
    ("1 / (1+", "error: bad term '(1+'; as series: bad term '1 / (1+'\n"),
    ("1 / 0", "error: zero denominator in '1 / 0'; as series: bad term '1 / 0'\n"),
    ("t^(1/2) / t", "error: polynomial exponent must be a nonnegative integer: 't^(1/2)'; "
                    "as series: bad term 't^(1/2) / t'\n"),
])
def test_config_bad_center_ends_as_one_error_line(tmp_path, cfg_text, center, message):
    cfg = write_cfg(tmp_path, cfg_text.format(center))
    assert run_cli(["eval", "--config", cfg, "--poly", "X + 1"]) == (1, "", message)
