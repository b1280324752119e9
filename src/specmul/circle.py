"""Points on the unit circle and distances between them.

Angles are measured in *turns* (fractions of a full revolution), so the point
``exp(2*pi*i*t)`` is stored as ``t in [0, 1)``.  A point is either exact — a
reduced rational angle kept as arbitrary-precision integers — or approximate,
a float angle with an attached uncertainty bound.  Products and distances of
exact points stay exact; anything touching an approximate point degrades to
floats.

The central metric is the scaled argument distance

    d(z, w) = |arg(z / w)| / (2*pi)  in  [0, 1/2],

i.e. the shorter arc between the two points in turns.  The chord length
``|z - w|`` relates to it by ``chord <= 2*pi*d <= pi*chord``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import _typed

__all__ = [
    "DEFAULT_ANGLE_TOL",
    "RationalAngle",
    "UnitPoint",
    "ONE",
    "arg_distance",
    "chord_distance",
    "nearest_root_of_unity",
    "points_equal",
]

# Tolerance used when comparing approximate angles for equality.
DEFAULT_ANGLE_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RationalAngle:
    """A reduced fraction ``num/den`` of a turn, normalized into [0, 1).

    Represents the unit-circle point ``exp(2*pi*i*num/den)``.  Arithmetic is
    exact; numerators and denominators are plain Python integers, so no
    overflow is possible.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        n = self.num % self.den
        g = gcd(n, self.den)
        object.__setattr__(self, "num", n // g)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "RationalAngle":
        return cls(f.numerator, f.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def turns(self) -> float:
        return self.num / self.den

    def to_complex(self) -> complex:
        t = _TWO_PI * self.num / self.den
        return complex(math.cos(t), math.sin(t))

    def __add__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalAngle") -> "RationalAngle":
        return self + (-other)

    def __neg__(self) -> "RationalAngle":
        return RationalAngle(-self.num, self.den)

    def times(self, n: int) -> "RationalAngle":
        """The angle scaled by an integer, i.e. the n-th power of the point."""
        return RationalAngle(self.num * n, self.den)

    def distance(self, other: "RationalAngle") -> Fraction:
        """Circle distance in turns: min(d, 1-d) for the angle gap d."""
        d = (self - other).as_fraction()
        return min(d, 1 - d)


@dataclass(frozen=True)
class UnitPoint:
    """A point on the unit circle: exact rational angle or float angle.

    ``err`` bounds the angle uncertainty (in turns) for approximate points;
    exact points always carry ``err == 0``.
    """

    angle: Union[RationalAngle, float]
    err: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.angle, RationalAngle):
            if self.err != 0.0:
                raise ValueError("exact points carry no uncertainty")
        else:
            object.__setattr__(self, "angle", float(self.angle) % 1.0)
            if self.err < 0.0:
                raise ValueError("uncertainty must be non-negative")

    @classmethod
    def exact(cls, num: int, den: int = 1) -> "UnitPoint":
        return cls(RationalAngle(num, den))

    @classmethod
    def approx(cls, angle: float, err: float = 0.0) -> "UnitPoint":
        return cls(float(angle), err)

    @classmethod
    def from_complex(cls, z: complex, err: float = 0.0) -> "UnitPoint":
        t = math.atan2(z.imag, z.real) / _TWO_PI
        return cls(t % 1.0, err)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.angle, RationalAngle)

    @property
    def turns(self) -> float:
        return self.angle.turns if self.is_exact else self.angle

    def to_complex(self) -> complex:
        if self.is_exact:
            return self.angle.to_complex()
        t = _TWO_PI * self.angle
        return complex(math.cos(t), math.sin(t))

    def conj(self) -> "UnitPoint":
        """Complex conjugate, which on the circle is also the inverse."""
        if self.is_exact:
            return UnitPoint(-self.angle)
        return UnitPoint((-self.angle) % 1.0, self.err)

    inverse = conj

    def __mul__(self, other: "UnitPoint") -> "UnitPoint":
        if self.is_exact and other.is_exact:
            return UnitPoint(self.angle + other.angle)
        return UnitPoint((self.turns + other.turns) % 1.0, self.err + other.err)

    def pow(self, n: int) -> "UnitPoint":
        if self.is_exact:
            return UnitPoint(self.angle.times(n))
        return UnitPoint((self.angle * n) % 1.0, self.err * abs(n))


ONE = UnitPoint.exact(0)


def _float_circle_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return d if d <= 0.5 else 1.0 - d


def arg_distance(z: UnitPoint, w: UnitPoint) -> Union[Fraction, float]:
    """Scaled argument distance |arg(z/w)|/(2*pi) in turns, in [0, 1/2].

    Exact for two exact points (returns a Fraction), float otherwise.
    """
    if z.is_exact and w.is_exact:
        return z.angle.distance(w.angle)
    return _float_circle_distance(z.turns, w.turns)


def chord_distance(z: UnitPoint, w: UnitPoint) -> float:
    """Euclidean distance |z - w| = 2*sin(pi * arg_distance)."""
    return 2.0 * math.sin(math.pi * float(arg_distance(z, w)))


def nearest_root_of_unity(z: UnitPoint, q: int) -> RationalAngle:
    """The q-th root of unity closest to z, as a reduced angle j/q.

    Ties (z exactly halfway between two adjacent roots) are broken toward the
    smaller exponent j in [0, q).
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    j0 = math.floor(z.angle.as_fraction() * q if z.is_exact else z.turns * q)
    return RationalAngle(min((j0 % q, (j0 + 1) % q), key=lambda j: (
        arg_distance(z, UnitPoint.exact(j, q)), j)), q)


def points_equal(z: UnitPoint, w: UnitPoint) -> bool:
    """Equality test: exact rational equality when possible, else within
    ``DEFAULT_ANGLE_TOL``."""
    if z.is_exact and w.is_exact:
        return z.angle == w.angle
    return _float_circle_distance(z.turns, w.turns) <= DEFAULT_ANGLE_TOL


def _point_to_json(p: UnitPoint) -> dict:
    """JSON form of a point: ``{"num", "den"}`` exact, ``{"angle", "err"}``
    approximate (JSON floats round-trip bit for bit)."""
    if p.is_exact:
        return {"num": p.angle.num, "den": p.angle.den}
    return {"angle": p.angle, "err": p.err}


def _point_from_json(d: dict) -> UnitPoint:
    """Inverse of ``_point_to_json``; also reads angles written as strings.
    A non-finite angle or error bound is a ``ValueError``."""
    if "num" in d:
        return UnitPoint.exact(_typed(d, "num", int), _typed(d, "den", int))
    angle, err = float(d["angle"]), float(d.get("err", 0.0))
    if not (math.isfinite(angle) and math.isfinite(err)):
        raise ValueError(f"non-finite angle or err in {d!r}")
    return UnitPoint.approx(angle, err)


def _frac_str(f: Optional[Fraction]) -> Optional[str]:
    """``"num/den"`` for a Fraction, whole numbers included; None stays None."""
    return None if f is None else f"{f.numerator}/{f.denominator}"
