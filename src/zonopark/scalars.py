"""Exact scalar arithmetic: rationals extended by a one-sided infinitesimal.

:class:`EpsRational` adjoins to :class:`fractions.Fraction` a single formal
infinitesimal ``eps`` with ``0 < eps < r`` for every positive rational
``r``; values have the form ``a + b*eps`` with rational ``a`` and integer
``b``.  This is exactly what is needed to place a shift parameter "just
below" or "just above" a rational threshold without ever rounding.

No floating point is used anywhere.  The ``EpsRational`` constructor is the
one exactness check: its base must be an ``int`` or a ``Fraction``, so a
float or a string raises ``TypeError``, and every coercion goes through it.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

_EPS_RE = re.compile(
    r"""^\s*
        (?P<base>[+-]?\d+(?:/\d+)?)?          # optional rational part
        (?:(?P<sign>[+-])(?P<coeff>\d*)eps)?  # optional infinitesimal part
        \s*$""",
    re.VERBOSE,
)


class EpsRational:
    """An exact number ``base + eps_coeff * eps``.

    The ordering is lexicographic on ``(base, eps_coeff)``, which is the
    order induced by interpreting ``eps`` as a positive infinitesimal.
    Values are immutable and hashable; an ``EpsRational`` with zero
    ``eps_coeff`` compares (and hashes) equal to the plain rational it
    represents, while one with nonzero ``eps_coeff`` is never equal to any
    rational.

    Only addition, subtraction and multiplication by a rational scalar are
    defined.  Products of two infinitesimal-carrying values are rejected:
    nothing here needs ``eps**2``.
    """

    __slots__ = ("base", "eps_coeff")

    def __init__(self, base, eps_coeff: int = 0):
        if not isinstance(base, (int, Fraction)):
            raise TypeError(f"cannot interpret {base!r} as an exact rational")
        if isinstance(eps_coeff, bool) or not isinstance(eps_coeff, int):
            raise TypeError(f"eps coefficient must be an integer, got {eps_coeff!r}")
        object.__setattr__(self, "base", Fraction(base))
        object.__setattr__(self, "eps_coeff", eps_coeff)

    def __setattr__(self, name, value):
        raise AttributeError("EpsRational is immutable")

    # -- ordering ----------------------------------------------------------

    def _key(self):
        return (self.base, self.eps_coeff)

    @staticmethod
    def _coerce(other) -> "EpsRational | None":
        if isinstance(other, EpsRational):
            return other
        try:
            return EpsRational(other)
        except TypeError:
            return None

    def _compare(self, other, op):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return op(self._key(), o._key())

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __hash__(self):
        if self.eps_coeff == 0:
            return hash(self.base)
        return hash(self._key())

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EpsRational(self.base + o.base, self.eps_coeff + o.eps_coeff)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EpsRational(self.base - o.base, self.eps_coeff - o.eps_coeff)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EpsRational(o.base - self.base, o.eps_coeff - self.eps_coeff)

    def __neg__(self):
        return EpsRational(-self.base, -self.eps_coeff)

    def __mul__(self, other):
        if isinstance(other, EpsRational):
            raise TypeError("product of two EpsRational values is not defined")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        coeff = self.eps_coeff * Fraction(other)
        if coeff.denominator != 1:
            raise ValueError(
                f"scaling by {other!r} does not keep the eps coefficient integral"
            )
        return EpsRational(self.base * other, int(coeff))

    __rmul__ = __mul__

    # -- rounding ----------------------------------------------------------

    def __floor__(self) -> int:
        # eps only matters when the rational part sits exactly on an integer
        if self.base.denominator == 1 and self.eps_coeff < 0:
            return int(self.base) - 1
        return math.floor(self.base)

    def __ceil__(self) -> int:
        if self.base.denominator == 1 and self.eps_coeff > 0:
            return int(self.base) + 1
        return math.ceil(self.base)

    def is_integer(self) -> bool:
        """True iff the value equals a plain integer (no eps, integral base)."""
        return self.eps_coeff == 0 and self.base.denominator == 1

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        text = str(self.base)
        b = self.eps_coeff
        if b == 0:
            return text
        sign = "+" if b > 0 else "-"
        mult = "" if abs(b) == 1 else str(abs(b))
        return f"{text}{sign}{mult}eps"

    def __repr__(self) -> str:
        return f"EpsRational({self.base!r}, {self.eps_coeff})"


def as_eps_rational(value) -> EpsRational:
    """Coerce an int, Fraction or EpsRational to EpsRational; anything else raises TypeError."""
    if isinstance(value, EpsRational):
        return value
    return EpsRational(value)


def parse_scalar(text: str) -> EpsRational:
    """Parse the textual scalar form: ``p/q``, ``p/q+eps``, ``p/q-eps``.

    An integer rational part prints as a bare ``p``; an eps coefficient of
    magnitude > 1 prints as e.g. ``2-2eps``.  Parsing accepts exactly what
    :meth:`EpsRational.__str__` produces (plus a bare ``eps`` term with the
    rational part omitted) and round-trips bit-exactly.
    """
    match = _EPS_RE.match(text)
    if match is None or (match.group("base") is None and match.group("sign") is None):
        raise ValueError(f"cannot parse scalar {text!r}")
    try:
        base = Fraction(match.group("base") or 0)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse scalar {text!r}: zero denominator") from None
    coeff = 0
    if match.group("sign"):
        magnitude = int(match.group("coeff")) if match.group("coeff") else 1
        coeff = magnitude if match.group("sign") == "+" else -magnitude
    return EpsRational(base, coeff)
