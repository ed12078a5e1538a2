"""Citation-annotated verdict reports.

A report is an ordered list of verdicts, each carrying the operation name, a
digest of its inputs, the outcome, a citation string naming the mathematical
fact (or "plumbing" for artifact machinery), and caveats.  The structured
format is line-oriented text with exact-rational encoding and round-trips to
an equal value; determinism of the structured bytes under a fixed seed is an
acceptance criterion, so nothing time- or environment-dependent may appear.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import HorizonExceeded, ParseError, PrecisionExhausted

PLUMBING = "plumbing"
FAIL = "FAIL"
UNDECIDABLE = (PrecisionExhausted, HorizonExceeded)  # counted apart or redrawn, never evidence


def digest(*parts) -> str:
    """Canonical sha256 digest of the textual inputs of an operation."""
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


@dataclass
class Verdict:
    operation: str
    inputs: str
    outcome: str
    citation: str
    caveats: tuple = ()

    def is_failure(self) -> bool:
        return self.outcome.startswith(FAIL)


@dataclass
class Evidence:
    """What a bounded search that found nothing saw: ``tested`` candidates decided,
    ``undecidable`` ones that were not (no evidence), and their reasons as ``notes``."""
    tested: int
    undecidable: int = 0
    notes: tuple = ()

    def caveats(self, what: str = "samples") -> tuple:
        return (f"{self.undecidable} undecidable {what}",) if self.undecidable else ()


def search(candidates, hit, label=None):
    """The first candidate c with hit(c) true, or the Evidence of a miss.  A candidate
    whose hit raises an UNDECIDABLE error counts apart, never as tested; its note is
    the reason, after label(c) when a label is given."""
    tested, notes = 0, []
    for c in candidates:
        try:
            if hit(c):
                return c
        except UNDECIDABLE as exc:
            notes.append(f"{label(c)}: {exc}" if label else str(exc))
            continue
        tested += 1
    return Evidence(tested, len(notes), tuple(notes))


class Report:
    """Ordered verdicts with human and structured renderings."""

    def __init__(self, title: str = "report"):
        self.title = title
        self.verdicts = []

    def add(self, operation: str, inputs: str, outcome: str,
            citation: str = PLUMBING, caveats=()) -> Verdict:
        for text in (operation, inputs, outcome, citation, *caveats):
            if "\n" in text:
                raise ParseError("verdict fields must be single-line")
        v = Verdict(operation, inputs, outcome, citation, tuple(caveats))
        self.verdicts.append(v)
        return v

    def check(self, operation: str, inputs: str, ok: bool, detail: str,
              citation: str = PLUMBING, caveats=()) -> Verdict:
        """Record a pass/fail verdict; failures are prefixed for exit-code logic."""
        outcome = f"ok: {detail}" if ok else f"{FAIL}: {detail}"
        return self.add(operation, inputs, outcome, citation, caveats)

    def failed(self) -> bool:
        return any(v.is_failure() for v in self.verdicts)

    def __eq__(self, other):
        return (isinstance(other, Report) and self.title == other.title
                and self.verdicts == other.verdicts)

    # -- renderings ----------------------------------------------------------

    def to_structured(self) -> str:
        lines = [f"report {self.title}", "version 1"]
        for v in self.verdicts:
            lines.append("verdict")
            lines.append(f"  operation: {v.operation}")
            lines.append(f"  inputs: {v.inputs}")
            lines.append(f"  outcome: {v.outcome}")
            lines.append(f"  citation: {v.citation}")
            for c in v.caveats:
                lines.append(f"  caveat: {c}")
            lines.append("end")
        lines.append(f"summary {'FAIL' if self.failed() else 'ok'} "
                     f"{len(self.verdicts)} verdicts")
        return "\n".join(lines) + "\n"

    def to_human(self) -> str:
        lines = [f"== {self.title} =="]
        for v in self.verdicts:
            lines.append(f"[{v.operation}] {v.outcome}")
            lines.append(f"    because: {v.citation}  (inputs {v.inputs})")
            for c in v.caveats:
                lines.append(f"    caveat: {c}")
        lines.append(f"-- {'FAIL' if self.failed() else 'ok'}: "
                     f"{len(self.verdicts)} verdicts --")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_structured(text: str) -> "Report":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("report "):
            raise ParseError("line 1: expected 'report <title>'")
        if len(lines) < 2 or lines[1] != "version 1":
            raise ParseError("line 2: expected 'version 1'")
        rep = Report(lines[0][len("report "):])
        i = 2
        while i < len(lines):
            line = lines[i]
            if line.startswith("summary "):
                i += 1
                continue
            if line != "verdict":
                raise ParseError(f"line {i + 1}: expected 'verdict', got {line!r}")
            fields = {}
            caveats = []
            i += 1
            while i < len(lines) and lines[i] != "end":
                body = lines[i]
                if not body.startswith("  ") or ": " not in body:
                    raise ParseError(f"line {i + 1}: expected '  key: value'")
                key, _, value = body[2:].partition(": ")
                if key == "caveat":
                    caveats.append(value)
                else:
                    fields[key] = value
                i += 1
            if i == len(lines):
                raise ParseError("unterminated verdict block")
            i += 1  # skip 'end'
            try:
                rep.verdicts.append(Verdict(fields["operation"], fields["inputs"],
                                            fields["outcome"], fields["citation"],
                                            tuple(caveats)))
            except KeyError as exc:
                raise ParseError(f"verdict missing field {exc}") from None
        return rep
