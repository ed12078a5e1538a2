"""Command-line surface for the valuation workbench.

Every subcommand reads a config (field, precision, spec), runs one
operation, and writes a citation-annotated report to stdout or --out in
human or structured form.  Exit codes: 0 success, 2 verdict-level failure
(a check that ran but did not hold, or a provable impossibility), 1
input/parse/precision errors.

One documented negative result has no subcommand on purpose: when the value
group extension is not cofinal (a unique-pair or Cauchy-limit spec), no
element of K(X) approximates the new elements of the completion's function
field, so there is nothing to compute; `density` raises the corresponding
refusal instead.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction

from .algnum import AlgElement, attach_minpoly, krasner_constant
from .config import WorkbenchConfig, k_then_series, load_config, parse_config, parse_number
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
from .pcs import CauchyWithLimit, builtin_generator, classify_generator
from .polyx import RATFUNC, SERIES, PolyX, polyx_from_text
from .report import Report, digest
from .series import PuiseuxSeries, RatFunc
from .valuation import ValuationSpec, delta, eval_spec
from . import selftest as selftest_mod

VERDICT_FAILURE = 2
INPUT_ERROR = 1


def _add_common(sp):
    sp.add_argument("--config", help="config file path")
    sp.add_argument("--prec", help="lift-cskp's default --budget; series text is read exactly")
    sp.add_argument("--seed", type=int, help="seed override for sampled harnesses")
    sp.add_argument("--out", help="write the report here instead of stdout")
    sp.add_argument("--format", choices=("text", "structured"), default="text")


class _Parser(argparse.ArgumentParser):  # a rejected command line ends as any bad input does
    def error(self, message):
        self.exit(INPUT_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="valwb",
        description="exact workbench for extensions of the t-adic valuation "
                    "to rational function fields and their completions")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, helptext, extras in [
        ("eval", "value of a polynomial under the configured spec",
         [("--poly", True)]),
        ("delta", "maximal root distance of a polynomial under the spec",
         [("--poly", True)]),
        ("classify", "extension kind of the configured spec", []),
        ("induce", "induced spec over the completion", []),
        ("cskp-check", "find a key-polynomial witness computing the value",
         [("--poly", True), ("--seq", True)]),
        ("lift-cskp", "lift a key-polynomial sequence over the completion",
         [("--seq", True), ("--center", False), ("--minpoly", False),
          ("--budget", False)]),
        ("density", "approximate f/g by a quotient over K",
         [("--f", True), ("--g", True), ("--alpha", True)]),
        ("same-delta", "approximate f over K preserving degree, value, delta",
         [("--poly", True), ("--alpha", True)]),
        ("threshold", "root-matching perturbation threshold",
         [("--poly", True), ("--alpha", True)]),
        ("pcs-classify", "Cauchy / transcendental-type dichotomy of a generator",
         [("--generator", False)]),
        ("kras", "maximal valuation of differences of distinct conjugates",
         [("--center", True), ("--minpoly", True)]),
    ]:
        sp = sub.add_parser(name, help=helptext)
        _add_common(sp)
        for flag, required in extras:
            sp.add_argument(flag, required=required)

    sp = sub.add_parser("example", help="run a built-in worked pipeline")
    _add_common(sp)
    sp.add_argument("id", choices=("6.1", "6.2", "6.3"))
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)

    sp = sub.add_parser("selftest", help="run the full verification suite")
    _add_common(sp)
    return ap


def _load_cfg(args) -> WorkbenchConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = parse_config("")
    if args.prec:  # replace() runs the config's own checks on the new value
        cfg = replace(cfg, precision=parse_number(Fraction, args.prec, "--prec"))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _need_spec(cfg: WorkbenchConfig) -> ValuationSpec:
    if cfg.spec is None:
        raise ParseError("this command needs a spec.* block in the config")
    return cfg.spec


def _parse_poly(cfg: WorkbenchConfig, text: str) -> PolyX:
    return k_then_series(lambda: polyx_from_text(cfg.field, text, RATFUNC),
                         lambda: polyx_from_text(cfg.field, text, SERIES))


def _parse_seq(cfg: WorkbenchConfig, text: str) -> CskpSeq:
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise ParseError(f"sequence entry {chunk!r} needs 'POLY @ DELTA'")
        poly, _, d = chunk.rpartition("@")
        entries.append((_parse_poly(cfg, poly.strip()), GroupVal.from_text(d.strip())))
    if not entries:
        raise ParseError("empty key-polynomial sequence")
    return CskpSeq(entries)


def _parse_center(cfg: WorkbenchConfig, args) -> AlgElement:
    s = k_then_series(lambda: RatFunc.from_text(cfg.field, args.center).to_series(),
                      lambda: PuiseuxSeries.from_text(cfg.field, args.center))
    if getattr(args, "minpoly", None):  # a root of Q, not yet certified as its minimal polynomial
        return attach_minpoly(s, polyx_from_text(cfg.field, args.minpoly, RATFUNC))
    return AlgElement(s)


def _is_minpoly(Q: PolyX, s: PuiseuxSeries) -> bool:
    """Whether Q is s's minimal polynomial over K: deg Q is s's degree, 1 in K and e for an exact
    series of tame ramification e (its norm from K(t^(1/e))), and Q(s) = 0 exactly (or raises)."""
    if s.source is not None:  # an element of K with a pole, its expansion capped
        return Q.degree() == 1 and Q.evaluate(s.source).is_zero()
    p = s.field.char
    return s.prec is None and (not p or s.ram % p > 0) and Q.degree() == s.ram and \
        Q.value_at(s).is_inf


def _emit(rep: Report, args) -> None:
    text = rep.to_structured() if args.format == "structured" else rep.to_human()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args) -> tuple:
    """Dispatch; returns (report, verdict_failed)."""
    if args.command == "example":
        rep = run_example(args.id, p=args.p, q=args.q)
        return rep, rep.failed()
    if args.command == "selftest":
        cfg = _load_cfg(args)
        rep = selftest_mod.run_all(cfg.seed)
        return rep, rep.failed()

    cfg = _load_cfg(args)
    rep = Report(args.command)

    if args.command == "eval":
        spec = _need_spec(cfg)
        f = _parse_poly(cfg, args.poly)
        v = eval_spec(spec, f)
        rep.add("eval", digest(spec.to_text(), args.poly), v.to_text(),
                "minimum of recentered coefficient values with weighted degree")
        return rep, False
    if args.command == "delta":
        spec = _need_spec(cfg)
        d = delta(spec, _parse_poly(cfg, args.poly))
        rep.add("delta", digest(spec.to_text(), args.poly), d.to_text(),
                "maximal root distance read off the recentered polygon")
        return rep, False
    if args.command == "classify":
        spec = _need_spec(cfg)
        kind = classify_extension(spec)
        rep.add("classify", digest(spec.to_text()), kind,
                "weight shape and generator dichotomy determine the kind")
        return rep, False
    if args.command == "induce":
        spec = _need_spec(cfg)
        ind, note = induce(spec)
        rep.add("induce", digest(spec.to_text()), ind.to_text(),
                "the extension over the completion is determined by the same "
                "data", caveats=(note,))
        return rep, False
    if args.command == "cskp-check":
        spec = _need_spec(cfg)
        f = _parse_poly(cfg, args.poly)
        seq = _parse_seq(cfg, args.seq)
        out = cskp_check(seq, f, spec)
        inputs = digest(spec.to_text(), args.poly, args.seq)
        if isinstance(out, Witness):
            rep.add("cskp-check", inputs,
                    f"witness at index {out.index}, value {out.value.to_text()}",
                    "a sequence entry of no larger degree computes the value "
                    "through its digits")
            return rep, False
        if out.undecidable:  # an undecidable entry is no evidence of incompleteness
            raise WorkbenchError(f"no witness among {out.tested} decided entries; "
                                 f"{out.undecidable} undecidable, {out.notes[0]}")
        rep.check("cskp-check", inputs, False,
                  f"no witness among {out.tested} admissible entries",
                  "the sequence is incomplete for this polynomial")
        return rep, True
    if args.command == "lift-cskp":
        spec = _need_spec(cfg)
        seq = _parse_seq(cfg, args.seq)
        center = _parse_center(cfg, args) if args.center else None
        budget = parse_number(Fraction, args.budget, "--budget") if args.budget else cfg.precision
        if budget <= 0:  # also where the spec never reads it
            raise WorkbenchError(f"root search budget must be positive, got {budget}")
        lifted, note = lift_cskp(seq, spec, center=center, budget=budget)
        rep.add("lift-cskp", digest(spec.to_text(), args.seq), lifted.to_text(),
                "entries of admissible degree survive; the completion's root "
                "or limit supplies the final center", caveats=(note,))
        return rep, False
    if args.command == "density":
        spec = _need_spec(cfg)
        f, g = _parse_poly(cfg, args.f), _parse_poly(cfg, args.g)
        alpha = GroupVal.from_text(args.alpha)
        res = approximate_density(f, g, alpha, spec)
        rep.add("density", digest(spec.to_text(), args.f, args.g, args.alpha),
                f"f' = {res.f_prime.to_text()} ; g' = {res.g_prime.to_text()}",
                "all output conditions re-verified by direct evaluation",
                caveats=(f"beta = {res.beta}, cutoff = {res.cutoff}", res.note))
        return rep, False
    if args.command == "same-delta":
        spec = _need_spec(cfg)
        f = _parse_poly(cfg, args.poly)
        alpha = GroupVal.from_text(args.alpha)
        out = approximate_same_delta(f, alpha, spec)
        rep.add("same-delta", digest(spec.to_text(), args.poly, args.alpha),
                out.to_text(),
                "degree, value and delta re-verified after truncation")
        return rep, False
    if args.command == "threshold":
        f = _parse_poly(cfg, args.poly)
        alpha = GroupVal.from_text(args.alpha)
        tau = roots_matching_threshold(f, alpha)
        rep.add("threshold", digest(args.poly, args.alpha), tau.to_text(),
                "perturbations above this bound keep a root pairing within "
                "alpha")
        return rep, False
    if args.command == "pcs-classify":
        if args.generator:
            gen = builtin_generator(args.generator, cfg.horizon, window=cfg.window,
                                    ram_cap=cfg.ram_cap)
        else:
            spec = _need_spec(cfg)
            if spec.kind != "pcslimit":
                raise ParseError("config spec is not a limit spec; pass --generator")
            gen = spec.gen
        verdict = classify_generator(gen)
        if isinstance(verdict, CauchyWithLimit):
            rep.add("pcs-classify", digest(gen.name, gen.horizon),
                    f"Cauchy with limit {verdict.limit.to_text()}",
                    "gaps grow without bound and the partial sums stabilize")
        else:
            rep.add("pcs-classify", digest(gen.name, gen.horizon),
                    f"transcendental-type evidence: {verdict.criterion}",
                    "no polynomial value can stabilize along such a sequence",
                    caveats=(verdict.detail,))
        return rep, False
    if args.command == "kras":
        a = _parse_center(cfg, args)
        a.irreducible_certified = _is_minpoly(a.minpoly, a.expansion)
        v = krasner_constant(a)
        rep.add("kras", digest(args.center, args.minpoly), v.to_text(),
                "maximal valuation of a difference of distinct conjugates")
        return rep, False
    raise ParseError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rep, verdict_failed = _run(args)
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
    return VERDICT_FAILURE if verdict_failed else 0


if __name__ == "__main__":
    sys.exit(main())
