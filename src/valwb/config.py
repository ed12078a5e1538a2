"""Workbench configuration: base field, precision, and valuation spec.

Config files are line-oriented ``key = value`` text with ``#`` comments.
Grammar (all keys optional unless a spec kind requires them):

    char = 0 | <prime p>                  # base field: Q or F_p
    precision = <p/q>                     # lift-cskp's budget (default 64)
    ram_cap = <int>                       # a limit spec's ramification cap (default 64)
    horizon = <int>                       # sequence horizon (default 12)
    window = <int>                        # stabilization window (default 3)
    seed = <int>                          # selftest's seed
    spec.kind = gauss | monomial | keypoly | pcslimit
    spec.center = <K or series text>      # monomial; K text is tried first
    spec.gamma = <value text>             # monomial; "p/q" or "(z, p/q)"
    spec.Q = <polynomial text>            # keypoly
    spec.vQ = <value text>                # keypoly
    spec.base.kind = gauss | monomial     # keypoly digit valuation
    spec.base.center, spec.base.gamma     # when base.kind = monomial
    spec.generator = <generator name>     # pcslimit; e.g. "exponential"
    spec.over = K | Khat

Each key has one source, this text, and no environment variable is read.  Two keys
have one CLI override each: ``precision``, only lift-cskp's root search budget, by its
--budget, and ``seed``, only selftest's seed, by its --seed.  Series text in --poly,
--seq, --f and --g is read exactly, as spec.center is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParseError, WorkbenchError
from .field import GF, QQ, BaseField
from .groupval import GroupVal
from .pcs import DEFAULT_HORIZON, DEFAULT_RAM_CAP, DEFAULT_WINDOW, builtin_generator, check_bounds
from .polyx import RATFUNC, polyx_from_text
from .series import DEFAULT_PREC as DEFAULT_PRECISION, PuiseuxSeries, RatFunc
from .valuation import OVER_K, OVER_KHAT, ValuationSpec


@dataclass
class WorkbenchConfig:
    field: BaseField
    precision: Fraction = DEFAULT_PRECISION
    ram_cap: int = DEFAULT_RAM_CAP
    horizon: int = DEFAULT_HORIZON
    window: int = DEFAULT_WINDOW
    seed: int = 0
    spec: Optional[ValuationSpec] = None

    def __post_init__(self):
        if self.precision <= 0:
            raise WorkbenchError("precision must be positive")
        check_bounds(self.horizon, self.window, self.ram_cap)

    def generator(self, name: str):
        """The built-in generator ``name`` at this config's horizon, window and ram_cap."""
        return builtin_generator(name, self.horizon, window=self.window, ram_cap=self.ram_cap)


def parse_config(text: str) -> WorkbenchConfig:
    """Parse config text; the text is the config's one source."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)
    return build_config(entries)


def load_config(path: str) -> WorkbenchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def parse_number(kind, text: str, what: str):
    """``kind(text)`` for kind int or Fraction; malformed text is a ParseError."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} must be a number, got {text!r}") from None


def k_then_series(as_k, as_series):
    """as_k(), or as_series() where K text fails to parse; the K error leads the message,
    and a series error that says the same is not repeated."""
    try:
        return as_k()
    except WorkbenchError as exc:
        try:
            return as_series()
        except WorkbenchError as series_exc:
            same = str(series_exc) == str(exc)
            raise ParseError(str(exc) if same else f"{exc}; as series: {series_exc}") from None


def parse_center(field: BaseField, text: str):
    """A center read as an element of K first, which stays its series' source, else as a
    series."""
    return k_then_series(lambda: RatFunc.from_text(field, text),
                         lambda: PuiseuxSeries.from_text(field, text))


def build_config(entries: dict) -> WorkbenchConfig:
    entries = dict(entries)
    char = parse_number(int, entries.pop("char")[1], "char") if "char" in entries else 0
    field = QQ if char == 0 else GF(char)
    kinds = {"precision": Fraction, "ram_cap": int, "horizon": int, "window": int, "seed": int}
    given = {key: parse_number(kind, entries.pop(key)[1], key)  # an absent key keeps
             for key, kind in kinds.items() if key in entries}  # the WorkbenchConfig default
    cfg = WorkbenchConfig(field, **given)
    spec_entries = {k: v for k, v in entries.items() if k.startswith("spec.")}
    for k in spec_entries:
        entries.pop(k)
    if entries:
        key, (lineno, _) = next(iter(entries.items()))
        raise ParseError(f"line {lineno}: unknown key {key!r}")
    if spec_entries:
        cfg.spec = build_spec(
            {k[len("spec."):]: v[1] for k, v in spec_entries.items()}, cfg)
    return cfg


def build_spec(fields: dict, cfg: WorkbenchConfig) -> ValuationSpec:
    fields = dict(fields)
    kind = fields.pop("kind", None)
    if kind is None:
        raise ParseError("spec.kind is required when any spec.* key is present")
    over = fields.pop("over", OVER_K)
    if over not in (OVER_K, OVER_KHAT):
        raise ParseError(f"spec.over must be K or Khat, got {over!r}")
    if "declared_cofinal" in fields:  # no flag stands in for a weight valwb cannot hold
        raise ParseError("spec.declared_cofinal is gone: a cofinal kind needs an irrational weight")
    if kind == "gauss":
        spec = ValuationSpec.gauss(cfg.field, over=over)
    elif kind == "monomial":
        center = parse_center(cfg.field, fields.pop("center", "0"))
        gamma = GroupVal.from_text(_require(fields, "gamma"))
        spec = ValuationSpec.monomial(center, gamma, over=over)
    elif kind == "keypoly":
        Q = polyx_from_text(cfg.field, _require(fields, "Q"), RATFUNC)
        vQ = GroupVal.from_text(_require(fields, "vQ"))
        base_fields = {k[len("base."):]: v for k, v in list(fields.items())
                       if k.startswith("base.")}
        for k in base_fields:
            fields.pop("base." + k)
        base_fields = base_fields or {"kind": "gauss"}
        if (base_kind := base_fields.get("kind", "gauss")) not in ("gauss", "monomial"):
            raise ParseError(f"spec.base.kind must be gauss or monomial, got {base_kind!r}")
        base = build_spec(base_fields, cfg)
        spec = ValuationSpec.keypoly(Q, vQ, base, over=over)
    elif kind == "pcslimit":
        spec = ValuationSpec.pcslimit(cfg.generator(_require(fields, "generator")), over=over)
    else:
        raise ParseError(f"unknown spec.kind {kind!r}")
    if fields:
        raise ParseError(f"unknown spec key 'spec.{next(iter(fields))}'")
    return spec


def _require(fields: dict, key: str) -> str:
    if key not in fields:
        raise ParseError(f"spec.{key} is required for this spec kind")
    return fields.pop(key)
