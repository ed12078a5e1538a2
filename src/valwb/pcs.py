"""Pseudo-Cauchy sequences at desk scale.

A sequence {a_m} with strictly increasing gamma_m = v(a_m - a_{m+1}) is
materialized up to a finite horizon; every "for all m" claim of the theory
becomes "for all materialized m" with the horizon recorded in the verdict.
Classification reads only the materialized elements: it separates sequences
that are Cauchy with a representable limit from those showing
transcendental-type evidence, support denominators that outgrow the
ramification cap.  Gammas that strictly increase below a bound cannot stay on
one lattice (1/e)Z, so they show up as growing denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import HorizonExceeded, NotPcs, ParseError, PrecisionExhausted, WorkbenchError
from .field import GF, QQ, BaseField
from .groupval import GroupVal
from .polyx import PolyX
from .series import DENSE_SIZE, PuiseuxSeries, min_prec

DEFAULT_HORIZON = 12
DEFAULT_WINDOW = 3
DEFAULT_RAM_CAP = 64


def check_bounds(horizon: int, window: int, ram_cap: int) -> None:
    """Refuse sequence bounds no verdict can be read under, or whose prefix a_0..a_h is too
    large to materialize: the one check of all three.  Each a_m of a built-in generator
    holds m + 1 terms, so the prefix holds (h+1)(h+2)/2, at most DENSE_SIZE."""
    if ram_cap < 1:
        raise WorkbenchError("ram_cap must be at least 1")
    if horizon < 3:
        raise WorkbenchError("horizon must be at least 3")
    if (terms := (horizon + 1) * (horizon + 2) // 2) > DENSE_SIZE:
        raise WorkbenchError(f"horizon {horizon} materializes {terms} terms, "
                             f"above the dense-size bound {DENSE_SIZE}")
    if window < 1:
        raise WorkbenchError("window must be at least 1")


class PcsGenerator:
    """A closed-form or explicit pseudo-Cauchy sequence and its bounds: the horizon,
    the window its stabilization verdicts read and the ramification cap."""

    def __init__(self, name: str, field: BaseField, items, horizon: int = DEFAULT_HORIZON,
                 window: int = DEFAULT_WINDOW, ram_cap: int = DEFAULT_RAM_CAP):
        check_bounds(horizon, window, ram_cap)
        self.name = name
        self.field = field
        self._items = items  # callable m -> PuiseuxSeries, or a list
        self.horizon = horizon
        self.window = window
        self.ram_cap = ram_cap
        self._elements = None
        self._gammas = None

    def element(self, m: int) -> PuiseuxSeries:
        if m > self.horizon:
            raise HorizonExceeded(f"index {m} beyond horizon {self.horizon}")
        if callable(self._items):
            return self._items(m)
        return self._items[m]

    def elements(self) -> list:
        if self._elements is None:
            self._elements = [self.element(m) for m in range(self.horizon + 1)]
        return self._elements

    def gammas(self) -> list:
        """gamma_m = v(a_m - a_{m+1}) for m < horizon; validates the prefix."""
        if self._gammas is None:
            self._gammas = validate_prefix(self.elements())
        return self._gammas


def validate_prefix(prefix: list) -> list:
    """Check the pseudo-Cauchy condition on a materialized prefix.

    Returns the strictly increasing gamma_m = v(z_m - z_{m+1}).  They decide
    v(z_m - z_r) = gamma_m for every m < r (Kaplansky, "Maximal fields with
    valuations", Duke Math. J. 9 (1942), Lemma 1), caps included: for x <=
    gamma_m every d_k = z_k - z_{k+1} with k >= m is decided at x, because
    gamma_k < cap(d_k), and vanishes there for k > m.  So the coefficients of
    z_m - z_r up to gamma_m telescope to those of d_m.
    """
    if len(prefix) < 3:
        raise WorkbenchError("a pseudo-Cauchy prefix needs at least 3 elements")
    gammas = []
    for m in range(len(prefix) - 1):
        g = prefix[m].val_sub(prefix[m + 1])  # PrecisionExhausted propagates
        if g.is_inf:
            raise NotPcs(m, f"consecutive elements {m}, {m + 1} coincide")
        if gammas and g <= gammas[-1]:
            raise NotPcs(m, f"gamma_{m} = {g.to_text()} does not exceed gamma_{m - 1}")
        gammas.append(g)
    return gammas


def is_limit(y: PuiseuxSeries, gen: PcsGenerator) -> bool:
    """True iff v(y - a_m) = gamma_m for every materialized m."""
    gammas = gen.gammas()
    elems = gen.elements()
    for m, g in enumerate(gammas):
        try:
            if y.val_sub(elems[m]) != g:
                return False
        except PrecisionExhausted:
            # undecidable beyond the cap of y - a_m; consistent iff gamma_m
            # lies at or beyond it
            if g < GroupVal.fin(min_prec(y.prec, elems[m].prec)):
                return False
    return True


@dataclass
class UltimatelyConstant:
    value: GroupVal
    from_index: int


@dataclass
class StrictlyIncreasingAtHorizon:
    last: GroupVal


def values_along(f: PolyX, gen: PcsGenerator):
    """(values, trend) for v f(a_m) along the sequence.

    UltimatelyConstant requires the last ``window`` entries to agree; a
    strictly increasing tail means f's value has not stabilized and is the
    signature of f vanishing at the limit.  Both verdicts read ``window``
    values, also when f(a_m) runs out of precision before the horizon.
    """
    vals, capped, images = [], False, {}
    for a in gen.elements():  # each keeps its integer images in its center plan
        if a.prec not in images:  # built once per cap, so once per call for exact a_m
            images[a.prec] = f.horner_images(a.prec)
        try:
            vals.append(f.value_at(a, images[a.prec]))  # no f(a_m) is built
        except PrecisionExhausted:
            # f(a_m) vanished beyond the working precision: the value grew
            # past everything representable, the increasing-tail signature
            capped = True
            break
    W = gen.window
    if capped:  # the same evidence as below: the last `window` values increase
        if len(vals) < max(W, 2):
            raise PrecisionExhausted(f"f(a_m) undecidable at working precision after {len(vals)} "
                                     f"values, fewer than the {max(W, 2)} a window of {W} reads")
        if all(vals[j] < vals[j + 1] for j in range(len(vals) - W, len(vals) - 1)):
            return vals, StrictlyIncreasingAtHorizon(vals[-1])
        raise PrecisionExhausted(f"f(a_m) undecidable at working precision after {len(vals)} "
                                 f"values, the last {W} not strictly increasing")
    if len(vals) < W:
        raise HorizonExceeded("window exceeds the materialized horizon")
    tail = vals[-W:]
    if all(v == tail[0] for v in tail):
        i = len(vals) - 1
        while i > 0 and vals[i - 1] == tail[0]:
            i -= 1
        return vals, UltimatelyConstant(tail[0], i)
    if all(tail[j] < tail[j + 1] for j in range(W - 1)):
        return vals, StrictlyIncreasingAtHorizon(tail[-1])
    raise HorizonExceeded("value sequence neither constant nor increasing over the window")


@dataclass
class CauchyWithLimit:
    limit: PuiseuxSeries


@dataclass
class TranscendentalTypeEvidence:
    criterion: str
    detail: str


def classify_generator(gen: PcsGenerator):
    """Desk-scale dichotomy for the sequence.

    Evidence of transcendental type fires on one pattern: support
    denominators exceeding gen.ram_cap.  Otherwise stable denominators give a
    Cauchy verdict and the materialized limit, and denominators still growing
    within the cap raise HorizonExceeded.  Verdicts are evidence, not proofs.
    """
    gammas = gen.gammas()
    elems = gen.elements()
    rams = [a.ram for a in elems]
    if max(rams) > gen.ram_cap:
        return TranscendentalTypeEvidence(
            "unbounded ramification denominators",
            f"support denominators reach {max(rams)} > cap {gen.ram_cap} "
            f"within horizon {gen.horizon}")
    if rams[-1] != rams[0]:
        raise HorizonExceeded(f"support denominators still grow within the cap: {rams}")
    limit = elems[-1]
    return CauchyWithLimit(PuiseuxSeries(limit.field, limit.ram, limit.coeffs,
                                         Fraction(gammas[-1].q)))


# ---------------------------------------------------------------------------
# built-in sequences
# ---------------------------------------------------------------------------

# Each factory passes its keyword ``bounds`` (window, ram_cap) on to PcsGenerator.

def artin_schreier_generator(p: int, horizon: int = DEFAULT_HORIZON, **bounds) -> PcsGenerator:
    """a_m = sum of t^(p^n) for n <= m over F_p; gamma_m = p^(m+1)."""
    field = GF(p)

    def items(m):
        return PuiseuxSeries(field, 1, {p**n: field.one() for n in range(m + 1)}, None)

    return PcsGenerator(f"artin-schreier({p})", field, items, horizon, **bounds)


def exponential_generator(horizon: int = DEFAULT_HORIZON, **bounds) -> PcsGenerator:
    """a_m = sum of t^n / n! for n <= m over Q; gamma_m = m + 1."""

    def items(m):
        return PuiseuxSeries(QQ, 1, {n: Fraction(1, factorial(n)) for n in range(m + 1)}, None)

    return PcsGenerator("exponential", QQ, items, horizon, **bounds)


def mixed_radix_generator(p: int, q: int, horizon: int = DEFAULT_HORIZON,
                          **bounds) -> PcsGenerator:
    """a_m = sum of t^(q^n / p^n) for n <= m; gamma_m = (q/p)^(m+1).

    Needs p < q so the gammas increase; the support denominators p^m grow
    without bound, the signature pattern of transcendental type.
    """
    if not 0 < p < q:
        raise WorkbenchError("mixed-radix sequence needs 0 < p < q")

    def items(m):  # t^(q^n / p^n) at key q^n p^(m - n) on the lattice of p^m
        return PuiseuxSeries(QQ, p**m, {q**n * p**(m - n): QQ.one() for n in range(m + 1)},
                             None)

    return PcsGenerator(f"mixed-radix({p},{q})", QQ, items, horizon, **bounds)


def builtin_generator(name: str, horizon: int = DEFAULT_HORIZON, **bounds) -> PcsGenerator:
    """Resolve "artin-schreier(p)", "exponential", "mixed-radix(p,q)"."""
    name = name.strip()
    if name == "exponential":
        return exponential_generator(horizon, **bounds)
    try:
        if name.startswith("artin-schreier(") and name.endswith(")"):
            return artin_schreier_generator(int(name[15:-1]), horizon, **bounds)
        if name.startswith("mixed-radix(") and name.endswith(")"):
            p, q = name[12:-1].split(",")
            return mixed_radix_generator(int(p), int(q), horizon, **bounds)
    except ValueError:
        raise ParseError(f"generator {name!r} needs integer arguments") from None
    raise WorkbenchError(f"unknown generator {name!r}")
