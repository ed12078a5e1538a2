"""Command-line surface for the valuation workbench.

``COMMANDS`` is the one table of subcommands: each maps to its help text, one handler
and the flags that handler reads, and its parser offers exactly those flags plus --out
and --format.  A handler reads its config (field, precision, spec) and its flags, runs
one operation, and returns a citation-annotated report, written to stdout or --out in
human or structured form.  Exit codes: 0 success, 2 verdict-level failure (a check that
ran but did not hold, or a provable impossibility), 1 input/parse/precision errors.

One documented negative result has no subcommand on purpose: when the value
group extension is not cofinal (a unique-pair or Cauchy-limit spec), no
element of K(X) approximates the new elements of the completion's function
field, so there is nothing to compute; `density` raises the corresponding
refusal instead.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algnum import AlgElement, attach_minpoly, krasner_constant
from .config import (WorkbenchConfig, k_then_series, load_config, parse_center, parse_config,
                     parse_number)
from .errors import (
    DeltaTooLarge,
    ParseError,
    UnsupportedKind,
    WorkbenchError,
)
from .examples import run_example
from .groupval import GroupVal
from .lifting import (
    CskpSeq,
    Witness,
    approximate_density,
    approximate_same_delta,
    classify_extension,
    cskp_check,
    induce,
    lift_cskp,
    roots_matching_threshold,
)
from .pcs import CauchyWithLimit, classify_generator
from .polyx import RATFUNC, SERIES, PolyX, polyx_from_text
from .report import Report, digest
from .series import check_span
from .valuation import delta, eval_spec
from . import selftest as selftest_mod

VERDICT_FAILURE = 2
INPUT_ERROR = 1


class _Parser(argparse.ArgumentParser):  # a rejected command line ends as any bad input does
    def error(self, message):
        self.exit(INPUT_ERROR, f"error: {message}\n")


def _given(text: str) -> str:
    """An optional flag's value: an empty one is refused, not read as the flag's absence."""
    if not text.strip():
        raise argparse.ArgumentTypeError("empty value")
    return text


def _load_cfg(args, need_spec=True) -> WorkbenchConfig:
    cfg = load_config(args.config) if args.config else parse_config("")
    if need_spec and cfg.spec is None:
        raise ParseError("this command needs a spec.* block in the config")
    return cfg


def _spec_elements(spec) -> list:
    """The elements of K and series a spec holds: its center, its key polynomial's
    coefficients and those of its base spec."""
    if spec is None:
        return []
    held = [] if spec.center is None else [spec.center]
    return held + list(spec.Q.coeffs if spec.Q else ()) + _spec_elements(spec.base)


def _parse_poly(cfg: WorkbenchConfig, text: str, *joint) -> PolyX:
    """The polynomial of text, refused if its coefficients, the elements joint with it and the
    spec's span more than the dense-size bound on their common lattice."""
    f = k_then_series(lambda: polyx_from_text(cfg.field, text, RATFUNC),
                      lambda: polyx_from_text(cfg.field, text, SERIES))
    check_span([*f.coeffs, *joint, *_spec_elements(cfg.spec)])
    return f


def _parse_seq(cfg: WorkbenchConfig, text: str, *joint) -> CskpSeq:
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise ParseError(f"sequence entry {chunk!r} needs 'POLY @ DELTA'")
        poly, _, d = chunk.rpartition("@")
        entries.append((_parse_poly(cfg, poly.strip(), *joint), GroupVal.from_text(d.strip())))
    if not entries:
        raise ParseError("empty key-polynomial sequence")
    return CskpSeq(entries)


def _parse_center(cfg: WorkbenchConfig, center: str, minpoly) -> AlgElement:
    s = parse_center(cfg.field, center).to_series()
    Q = None if minpoly is None else polyx_from_text(cfg.field, minpoly, RATFUNC)
    check_span([s, *(Q.coeffs if Q else ()), *_spec_elements(cfg.spec)])
    # a root of Q, certified as its minimal polynomial where attach_minpoly can tell
    return AlgElement(s) if Q is None else attach_minpoly(s, Q)


def _report(command: str, inputs: str, outcome: str, citation: str, caveats=()) -> Report:
    rep = Report(command)
    rep.add(command, inputs, outcome, citation, caveats=caveats)
    return rep


def _eval(args) -> Report:
    cfg = _load_cfg(args)
    v = eval_spec(cfg.spec, _parse_poly(cfg, args.poly))
    return _report("eval", digest(cfg.spec.to_text(), args.poly), v.to_text(),
                   "minimum of recentered coefficient values with weighted degree")


def _delta(args) -> Report:
    cfg = _load_cfg(args)
    d = delta(cfg.spec, _parse_poly(cfg, args.poly))
    return _report("delta", digest(cfg.spec.to_text(), args.poly), d.to_text(),
                   "maximal root distance read off the recentered polygon")


def _classify(args) -> Report:
    spec = _load_cfg(args).spec
    return _report("classify", digest(spec.to_text()), classify_extension(spec),
                   "weight shape and generator dichotomy determine the kind")


def _induce(args) -> Report:
    spec = _load_cfg(args).spec
    ind, note = induce(spec)
    return _report("induce", digest(spec.to_text()), ind.to_text(),
                   "the extension over the completion is determined by the same data",
                   caveats=(note,))


def _cskp_check(args) -> Report:
    cfg = _load_cfg(args)
    f = _parse_poly(cfg, args.poly)
    seq = _parse_seq(cfg, args.seq, *f.coeffs)  # f is expanded in powers of each entry
    out = cskp_check(seq, f, cfg.spec)
    inputs = digest(cfg.spec.to_text(), args.poly, args.seq)
    if isinstance(out, Witness):
        return _report("cskp-check", inputs,
                       f"witness at index {out.index}, value {out.value.to_text()}",
                       "a sequence entry of no larger degree computes the value through its "
                       "digits")
    if out.undecidable:  # an undecidable entry is no evidence of incompleteness
        raise WorkbenchError(f"no witness among {out.tested} decided entries; "
                             f"{out.undecidable} undecidable, {out.notes[0]}")
    rep = Report("cskp-check")
    rep.check("cskp-check", inputs, False, f"no witness among {out.tested} admissible entries",
              "the sequence is incomplete for this polynomial")
    return rep


def _lift_cskp(args) -> Report:
    cfg = _load_cfg(args)
    if args.minpoly is not None and args.center is None:
        raise ParseError("--minpoly is read only with --center")
    center = None if args.center is None else _parse_center(cfg, args.center, args.minpoly)
    seq = _parse_seq(cfg, args.seq, *([center.expansion] if center else []))
    budget = cfg.precision if args.budget is None else \
        parse_number(Fraction, args.budget, "--budget")
    if budget <= 0:  # also where the spec never reads it
        raise WorkbenchError(f"root search budget must be positive, got {budget}")
    lifted, note = lift_cskp(seq, cfg.spec, center=center, budget=budget)
    return _report("lift-cskp", digest(cfg.spec.to_text(), args.seq), lifted.to_text(),
                   "entries of admissible degree survive; the completion's root or limit "
                   "supplies the final center", caveats=(note,))


def _density(args) -> Report:
    cfg = _load_cfg(args)
    f = _parse_poly(cfg, args.f)
    g = _parse_poly(cfg, args.g, *f.coeffs)
    res = approximate_density(f, g, GroupVal.from_text(args.alpha), cfg.spec)
    return _report("density", digest(cfg.spec.to_text(), args.f, args.g, args.alpha),
                   f"f' = {res.f_prime.to_text()} ; g' = {res.g_prime.to_text()}",
                   "all output conditions re-verified by direct evaluation",
                   caveats=(f"beta = {res.beta}, cutoff = {res.cutoff}", res.note))


def _same_delta(args) -> Report:
    cfg = _load_cfg(args)
    f = _parse_poly(cfg, args.poly)
    out = approximate_same_delta(f, GroupVal.from_text(args.alpha), cfg.spec)
    return _report("same-delta", digest(cfg.spec.to_text(), args.poly, args.alpha),
                   out.to_text(), "degree, value and delta re-verified after truncation")


def _threshold(args) -> Report:
    cfg = _load_cfg(args, need_spec=False)
    f = _parse_poly(cfg, args.poly)
    tau = roots_matching_threshold(f, GroupVal.from_text(args.alpha))
    return _report("threshold", digest(args.poly, args.alpha), tau.to_text(),
                   "perturbations above this bound keep a root pairing within alpha")


def _pcs_classify(args) -> Report:
    cfg = _load_cfg(args, need_spec=args.generator is None)
    if args.generator is None and cfg.spec.kind != "pcslimit":
        raise ParseError("config spec is not a limit spec; pass --generator")
    gen = cfg.spec.gen if args.generator is None else cfg.generator(args.generator)
    verdict = classify_generator(gen)
    if isinstance(verdict, CauchyWithLimit):
        return _report("pcs-classify", digest(gen.name, gen.horizon),
                       f"Cauchy with limit {verdict.limit.to_text()}",
                       "gaps grow without bound and the partial sums stabilize")
    return _report("pcs-classify", digest(gen.name, gen.horizon),
                   f"transcendental-type evidence: {verdict.criterion}",
                   "no polynomial value can stabilize along such a sequence",
                   caveats=(verdict.detail,))


def _kras(args) -> Report:
    cfg = _load_cfg(args, need_spec=False)
    a = _parse_center(cfg, args.center, args.minpoly)
    return _report("kras", digest(args.center, args.minpoly), krasner_constant(a).to_text(),
                   "maximal valuation of a difference of distinct conjugates")


def _example(args) -> Report:
    return run_example(args.id, p=args.p, q=args.q)


def _selftest(args) -> Report:
    cfg = _load_cfg(args, need_spec=False)  # checked even where --seed overrides its seed
    return selftest_mod.run_all(cfg.seed if args.seed is None else args.seed)


CONFIG = ("--config", {"help": "config file path"})
REQUIRED = {"required": True}
OPTIONAL = {"type": _given}

# subcommand: (help, handler, the flags the handler reads as (flag, add_argument options))
COMMANDS = {
    "eval": ("value of a polynomial under the configured spec", _eval,
             [CONFIG, ("--poly", REQUIRED)]),
    "delta": ("maximal root distance of a polynomial under the spec", _delta,
              [CONFIG, ("--poly", REQUIRED)]),
    "classify": ("extension kind of the configured spec", _classify, [CONFIG]),
    "induce": ("induced spec over the completion", _induce, [CONFIG]),
    "cskp-check": ("find a key-polynomial witness computing the value", _cskp_check,
                   [CONFIG, ("--poly", REQUIRED), ("--seq", REQUIRED)]),
    "lift-cskp": ("lift a key-polynomial sequence over the completion", _lift_cskp,
                  [CONFIG, ("--seq", REQUIRED), ("--center", OPTIONAL), ("--minpoly", OPTIONAL),
                   ("--budget", {**OPTIONAL, "help": "root search budget; the config's "
                                                     "precision by default"})]),
    "density": ("approximate f/g by a quotient over K", _density,
                [CONFIG, ("--f", REQUIRED), ("--g", REQUIRED), ("--alpha", REQUIRED)]),
    "same-delta": ("approximate f over K preserving degree, value, delta", _same_delta,
                   [CONFIG, ("--poly", REQUIRED), ("--alpha", REQUIRED)]),
    "threshold": ("root-matching perturbation threshold", _threshold,
                  [CONFIG, ("--poly", REQUIRED), ("--alpha", REQUIRED)]),
    "pcs-classify": ("Cauchy / transcendental-type dichotomy of a generator", _pcs_classify,
                     [CONFIG, ("--generator", OPTIONAL)]),
    "kras": ("maximal valuation of differences of distinct conjugates", _kras,
             [CONFIG, ("--center", REQUIRED), ("--minpoly", REQUIRED)]),
    "example": ("run a built-in worked pipeline", _example,
                [("id", {"choices": ("6.1", "6.2", "6.3")}), ("--p", {"type": int}),
                 ("--q", {"type": int})]),
    "selftest": ("run the full verification suite", _selftest,
                 [CONFIG, ("--seed", {"type": int, "help": "overrides the config's seed"})]),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="valwb",
        description="exact workbench for extensions of the t-adic valuation "
                    "to rational function fields and their completions")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (helptext, _, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        for flag, options in flags:
            sp.add_argument(flag, **options)
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("text", "structured"), default="text")
    return ap


def _emit(rep: Report, args) -> None:
    text = rep.to_structured() if args.format == "structured" else rep.to_human()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rep = COMMANDS[args.command][1](args)
    except (UnsupportedKind, DeltaTooLarge) as exc:
        rep = Report(args.command)
        citation = exc.citation if isinstance(exc, UnsupportedKind) else \
            "the target distance must exceed the polynomial's delta"
        rep.check(args.command, digest(args.command), False, str(exc), citation)
        _emit(rep, args)
        return VERDICT_FAILURE
    except (WorkbenchError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_ERROR
    _emit(rep, args)
    return VERDICT_FAILURE if rep.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
