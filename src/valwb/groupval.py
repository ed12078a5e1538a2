"""Ordered abelian value groups: Q, (Z (+) Q)_lex and +infinity.

A :class:`GroupVal` is one of

* ``Fin(q)``     -- a rational, an element of Q,
* ``Lex(z, q)``  -- an element of the lexicographically ordered Z (+) Q,
* ``PosInf``     -- the absorbing maximum, the value of 0.

``Fin(q)`` and ``Lex(0, q)`` denote the same element; ``Fin`` is the normal
form whenever the integer part is zero, so equality is plain structural
equality after construction.  The embedding q |-> Lex(0, q) is order
preserving and additive, which is all the group theory the workbench needs:
rational values live inside the lex group whenever both occur together.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import ParseError, WorkbenchError

RationalLike = Union[int, str, Fraction]


def _as_fraction(q: RationalLike) -> Fraction:
    if isinstance(q, Fraction):
        return q
    return Fraction(q)


class GroupVal:
    """An element of Q, of (Z (+) Q)_lex, or +infinity.

    Immutable; supports +, -, int scalar multiplication, and total ordering.
    """

    __slots__ = ("z", "q", "inf")

    def __init__(self, z: int, q: Fraction, inf: bool = False):
        # Use the Fin/Lex/posinf constructors; __init__ is internal.
        self.z = z
        self.q = q
        self.inf = inf

    # -- constructors -------------------------------------------------

    @staticmethod
    def fin(q: RationalLike) -> "GroupVal":
        return GroupVal(0, _as_fraction(q))

    @staticmethod
    def lex(z: int, q: RationalLike) -> "GroupVal":
        return GroupVal(int(z), _as_fraction(q))

    @staticmethod
    def posinf() -> "GroupVal":
        return GroupVal(0, Fraction(0), inf=True)

    # -- predicates ----------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return self.inf

    @property
    def is_fin(self) -> bool:
        """True iff the element lies in the embedded copy of Q."""
        return not self.inf and self.z == 0

    def is_torsion_mod_base(self) -> bool:
        """True iff the value lies in Q = v(Kbar), i.e. is torsion modulo vK.

        PosInf is rejected: the zero element has no class modulo the base.
        """
        if self.inf:
            raise WorkbenchError("is_torsion_mod_base undefined for PosInf")
        return self.z == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "GroupVal") -> "GroupVal":
        if not isinstance(other, GroupVal):
            return NotImplemented
        if self.inf or other.inf:
            return GroupVal.posinf()
        return GroupVal(self.z + other.z, self.q + other.q)

    def __neg__(self) -> "GroupVal":
        if self.inf:
            raise WorkbenchError("PosInf has no negative")
        return GroupVal(-self.z, -self.q)

    def __sub__(self, other: "GroupVal") -> "GroupVal":
        if not isinstance(other, GroupVal):
            return NotImplemented
        if self.inf and other.inf:
            raise WorkbenchError("PosInf - PosInf is undefined")
        if other.inf:
            raise WorkbenchError("cannot subtract PosInf")
        if self.inf:
            return GroupVal.posinf()
        return GroupVal(self.z - other.z, self.q - other.q)

    def __mul__(self, n: int) -> "GroupVal":
        if not isinstance(n, int):
            return NotImplemented
        if self.inf:
            if n == 0:
                raise WorkbenchError("0 * PosInf is undefined")
            if n < 0:
                raise WorkbenchError("negative multiple of PosInf is undefined")
            return GroupVal.posinf()
        return GroupVal(n * self.z, n * self.q)

    __rmul__ = __mul__

    # -- ordering --------------------------------------------------------

    def _key(self):
        return (1, 0, 0) if self.inf else (0, self.z, self.q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupVal):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "GroupVal") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "GroupVal") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "GroupVal") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "GroupVal") -> bool:
        return self._key() >= other._key()

    def __hash__(self):
        return hash(self._key())

    # -- text ----------------------------------------------------------

    def __repr__(self):
        if self.inf:
            return "PosInf"
        if self.z == 0:
            return f"Fin({self.q})"
        return f"Lex({self.z}, {self.q})"

    def to_text(self) -> str:
        """Compact exact text form: "p/q", "(z, p/q)" or "inf"."""
        if self.inf:
            return "inf"
        if self.z == 0:
            return str(self.q)
        return f"({self.z}, {self.q})"

    @staticmethod
    def from_text(text: str) -> "GroupVal":
        s = text.strip()
        if s == "inf":
            return GroupVal.posinf()
        try:
            if s.startswith("(") and s.endswith(")"):
                z_part, q_part = s[1:-1].split(",")
                return GroupVal.lex(int(z_part.strip()), Fraction(q_part.strip()))
            return GroupVal.fin(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad value-group element {text!r}: {exc}") from None


FIN0 = GroupVal.fin(0)
