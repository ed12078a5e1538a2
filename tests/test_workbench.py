"""Report format, config parsing, CLI exit codes, and the worked pipelines."""

import io
import random
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction

import pytest

from valwb.cli import build_parser, main
from valwb.config import WorkbenchConfig, parse_config
from valwb.errors import HorizonExceeded, ParseError, PrecisionExhausted, WorkbenchError
from valwb.examples import run_example
from valwb.field import GF, QQ
from valwb.groupval import GroupVal
from valwb.polyx import polyx_from_text
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
    cfg = parse_config("", env={})
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
    cfg = parse_config(text, env={})
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
    """, env={})
    assert kp.spec.kind == "keypoly" and kp.spec.base.kind == "monomial"
    pc = parse_config("spec.kind = pcslimit\nspec.generator = exponential\n",
                      env={})
    assert pc.spec.kind == "pcslimit" and pc.spec.gen.name == "exponential"


def test_parse_config_env_override():
    cfg = parse_config("precision = 10\n", env={"VALWB_PREC": "33/2"})
    assert cfg.precision == Fraction(33, 2)


def test_parse_config_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("char = 0\nbogus line\n", env={})
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n", env={})
    with pytest.raises(ParseError, match="unknown key"):
        parse_config("colour = red\n", env={})
    with pytest.raises(ParseError):
        parse_config("spec.kind = monomial\n", env={})  # gamma missing
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


def test_run_example_unknown():
    with pytest.raises(WorkbenchError):
        run_example("9.9")


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
    ("env", "abc"), ("env", "1/0"), ("env", ""),
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
    ("--minpoly", "X^2 -- "), ("--f", "X^^"), ("--p", "x"), ("--q", "0"),
]


COMMON_FLAGS = ("--config", "--prec", "--seed", "--out", "--format")

# optional flags, read by the subcommands named here besides those above
CLI_OPTIONAL = {"--budget": ["lift-cskp"], "--center": ["lift-cskp"],
                "--minpoly": ["lift-cskp"], "--p": ["example"], "--q": ["example"]}


def run_faulty_cli(tmp_path, monkeypatch, command, faults):
    cfg_text, argv = "spec.kind = gauss\n", list(CLI_BASELINE[command])
    monkeypatch.delenv("VALWB_PREC", raising=False)
    for key, value in faults:
        if key == "config":
            cfg_text = value + "\n"
        elif key == "env":
            monkeypatch.setenv("VALWB_PREC", value)
        elif key in argv:
            argv[argv.index(key) + 1] = value
        else:
            argv += [key, str(tmp_path / value) if key == "--config" else value]
    if "--config" not in argv:
        argv += ["--config", write_cfg(tmp_path, cfg_text)]
    err = io.StringIO()
    try:  # (code, out, err) and whether the parser rejected the command line
        with redirect_stderr(err):
            build_parser().parse_args([command] + argv)
    except SystemExit as exc:
        return exc.code, "", err.getvalue(), True
    return (*run_cli([command] + argv), False)


def test_cli_malformed_input_never_leaks_a_traceback(tmp_path, monkeypatch):
    rng = random.Random(0)
    commands = list(CLI_BASELINE)
    runs = []
    for fault in CLI_FAULTS:
        if fault[0] in ("config", "env") or fault[0] in COMMON_FLAGS:
            readers = commands  # every subcommand reads the config and common flags
        else:  # the commands that read the flag, and two more that reject it
            readers = [c for c in commands if fault[0] in CLI_BASELINE[c]]
            readers += CLI_OPTIONAL.get(fault[0], []) + rng.sample(commands, 2)
        runs += [(c, [fault]) for c in readers]
    for command in commands:  # and every command under two random pairs of faults
        runs += [(command, rng.sample(CLI_FAULTS, 2)) for _ in range(2)]
    rejected = 0
    for command, faults in runs:
        code, _, err, parser = run_faulty_cli(tmp_path, monkeypatch, command, faults)
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
])
def test_cli_parser_rejections_end_as_input_errors(argv, message):
    with pytest.raises(SystemExit) as exc, redirect_stderr(err := io.StringIO()):
        main(argv)
    assert exc.value.code == 1 and err.getvalue().startswith(f"error: {message}")
    assert err.getvalue().count("\n") == 1


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
        spec = parse_config(text, env={}).spec
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


@pytest.mark.parametrize("char, center, minpoly, want", [
    # t + t^2 lies in K: a reducible Q of degree 2 certifies nothing, though a is its root
    (0, "t + t^2", "X^2 - [t^2 + 2*t^3 + t^4]",
     "error: no certified minimal polynomial and no pure-ramification route\n"),
    (0, "t + t^2", "X - [t + t^2]",
     "error: the Krasner constant needs an element of degree >= 2\n"),
    # a capped expansion has no known degree
    (0, "t^(1/3) + O(t^4)", "X^3 - t",
     "error: no certified minimal polynomial and no pure-ramification route\n"),
    # over F_3, X^3 - t = (X - t^(1/3))^3: a ramification of p is no degree
    (3, "t^(1/3)", "X^3 - t",
     "error: no certified minimal polynomial and no pure-ramification route\n"),
    (0, "t^(1/3)", "X^3 - t", "[kras] 1/3\n"),
    (0, "t^(1/3) + t^(5/3)", "X^3 - 3*t^2*X - [t + t^5]", "[kras] 1/3\n"),
])
def test_cli_kras_certifies_a_minpoly_only_of_the_centers_degree_with_an_exact_root(
        tmp_path, char, center, minpoly, want):
    code, out, err = run_cli(["kras", "--config", write_cfg(tmp_path, f"char = {char}\n"),
                              "--center", center, "--minpoly", minpoly])
    if want.startswith("error: "):
        assert (code, out, err) == (1, "", want)
    else:
        assert (code, err) == (0, "") and want in out, (code, out, err)


@pytest.mark.parametrize("flag", ["true", "false"])
def test_config_refuses_a_declared_cofinal_kind(tmp_path, flag):
    text = f"spec.kind = monomial\nspec.center = t\nspec.gamma = 1\nspec.declared_cofinal = {flag}\n"
    with pytest.raises(ParseError, match="needs an irrational weight"):
        parse_config(text, env={})
    code, out, err = run_cli(["classify", "--config", write_cfg(tmp_path, text)])
    assert (code, out) == (1, "") and err.startswith("error: spec.declared_cofinal"), err


@pytest.mark.parametrize("center", ["t^(1/2)", "2*t", "1 + t + O(t^5)", "0", "t^(-1) + 3/2"])
def test_config_center_reads_series_text_as_before(center):
    spec = parse_config(f"spec.kind = monomial\nspec.center = {center}\nspec.gamma = 1\n",
                        env={}).spec
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
