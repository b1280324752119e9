"""Unitary matrices with structure-aware spectra.

Four representations are kept as long as possible, because their spectra are
known in closed form and stay exact when the entries are exact:

* ``Diagonal`` — diagonal of unit-circle points;
* ``MonomialCycle`` — ``D @ C**k`` for a diagonal ``D`` and the cyclic shift
  ``C`` (ones on the superdiagonal plus a one in the corner);
* ``BlockDiag`` — block diagonal of the above;
* ``Dense`` — anything else; its spectrum comes from the dense eigensolver
  and is never exact.

Products dispatch to the most specific closed form: monomial times monomial
stays monomial (``(D_A C^k)(D_B C^l) = (D_A sigma_k(D_B)) C^{k+l}`` with
``sigma_k`` the cyclic shift of diagonal entries), block-diagonal products
with matching block sizes multiply blockwise, and everything else falls back
to a dense product that records the loss of exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .circle import (
    ONE,
    UnitPoint,
    _point_from_json,
    _point_to_json,
)
from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    MalformedJsonError,
    NonUnitaryError,
    _complex,
    _is,
    _loading,
    _typed,
)

__all__ = [
    "UNITARITY_TOL",
    "MODULUS_TOL",
    "KEY_TOL",
    "Spectrum",
    "UMatrix",
    "Diagonal",
    "MonomialCycle",
    "BlockDiag",
    "Dense",
    "monomial_cycle",
    "block_diag",
    "identity_like",
    "matmul",
    "eigensolve_dense",
    "general_spectrum",
    "spectral_radius",
    "match_spectra",
    "matrix_to_json",
    "matrix_from_json",
]

UNITARITY_TOL = 1e-9
MODULUS_TOL = 1e-8
KEY_TOL = 1e-7


def _shift(entries: tuple, k: int) -> tuple:
    """Cyclic left shift: result[i] = entries[(i + k) % n]."""
    n = len(entries)
    k %= n
    return entries[k:] + entries[:k]


@dataclass(frozen=True)
class Spectrum:
    """Multiset of unit-circle eigenvalues, sorted by angle."""

    points: tuple[UnitPoint, ...]
    exact: bool
    dim: int

    @classmethod
    def from_points(cls, points: Sequence[UnitPoint]) -> "Spectrum":
        pts = tuple(sorted(points, key=lambda p: (p.turns, not p.is_exact)))
        return cls(pts, all(p.is_exact for p in pts), len(pts))

    def angles(self) -> np.ndarray:
        return np.array([p.turns for p in self.points], dtype=float)

    def values(self) -> list[complex]:
        return [p.to_complex() for p in self.points]

    def common_denominator(self) -> int:
        if not self.exact:
            raise ValueError("approximate spectrum has no common denominator")
        return math.lcm(*(p.angle.den for p in self.points))

    def int_angles(self, scale: int) -> tuple[int, ...]:
        """Distinct angle numerators over the common denominator ``scale``."""
        return tuple(sorted({p.angle.num * (scale // p.angle.den) for p in self.points}))


class UMatrix:
    """Base class for the structured unitary representations."""

    dim: int

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    def spectrum(self) -> Spectrum:
        raise NotImplementedError

    def inverse(self) -> "UMatrix":
        raise NotImplementedError

    @property
    def exact(self) -> bool:
        raise NotImplementedError

    def canonical_key(self):
        """Hashable key identifying the matrix up to rounding at ``KEY_TOL``."""
        return _dense_key(self.to_dense())

    def __matmul__(self, other: "UMatrix") -> "UMatrix":
        return matmul(self, other)

    def to_json_dict(self) -> dict:
        raise NotImplementedError


def _dense_key(a: np.ndarray):
    return _dense_keys(a[None])[0]


def _dense_keys(stack: np.ndarray) -> list:
    """The rounded-entry key of every matrix of an (m, d, d) stack: its
    entries over ``KEY_TOL``, rounded, as int64 bytes of the real and the
    imaginary parts."""
    scaled = np.round(stack / KEY_TOL)
    d = stack.shape[-1]
    width = d * d * 8
    re = scaled.real.astype(np.int64).tobytes()
    im = scaled.imag.astype(np.int64).tobytes()
    return [("dense", d, re[lo:lo + width], im[lo:lo + width])
            for lo in range(0, len(stack) * width, width)]


@dataclass(frozen=True)
class Diagonal(UMatrix):
    entries: tuple[UnitPoint, ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def exact(self) -> bool:
        return all(p.is_exact for p in self.entries)

    def to_dense(self) -> np.ndarray:
        return np.diag([p.to_complex() for p in self.entries])

    def spectrum(self) -> Spectrum:
        return Spectrum.from_points(self.entries)

    def inverse(self) -> "Diagonal":
        return Diagonal(tuple(p.conj() for p in self.entries))

    def canonical_key(self):
        if self.exact:
            return ("diag", tuple((p.angle.num, p.angle.den) for p in self.entries))
        return _dense_key(self.to_dense())

    def to_json_dict(self) -> dict:
        return {
            "variant": "diagonal",
            "dim": self.dim,
            "entries": [_point_to_json(p) for p in self.entries],
        }


@dataclass(frozen=True)
class MonomialCycle(UMatrix):
    """The matrix D @ C**k: entry (i, (i+k) mod p) equals d[i]."""

    d: tuple[UnitPoint, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", self.k % len(self.d))

    @property
    def dim(self) -> int:
        return len(self.d)

    @property
    def exact(self) -> bool:
        return all(p.is_exact for p in self.d)

    def to_dense(self) -> np.ndarray:
        p = self.dim
        a = np.zeros((p, p), dtype=complex)
        for i in range(p):
            a[i, (i + self.k) % p] = self.d[i].to_complex()
        return a

    def spectrum(self) -> Spectrum:
        # The underlying permutation splits into gcd(k, p) cycles of equal
        # length; each cycle of weight w contributes the L-th roots of w.
        p = self.dim
        pts: list[UnitPoint] = []
        seen = [False] * p
        for start in range(p):
            if seen[start]:
                continue
            w = ONE
            i = start
            length = 0
            while not seen[i]:
                seen[i] = True
                w = w * self.d[i]
                i = (i + self.k) % p
                length += 1
            if w.is_exact:
                base = w.angle.as_fraction()
                for t in range(length):
                    f = (base + t) / length
                    pts.append(UnitPoint.exact(f.numerator, f.denominator))
            else:
                for t in range(length):
                    pts.append(UnitPoint.approx((w.turns + t) / length, w.err / length))
        return Spectrum.from_points(pts)

    def inverse(self) -> UMatrix:
        # (D C^k)^{-1} = sigma_{-k}(D^{-1}) C^{-k}
        inv = tuple(p.conj() for p in self.d)
        return monomial_cycle(_shift(inv, -self.k), -self.k)

    def canonical_key(self):
        if self.exact:
            return ("mono", self.k, tuple((p.angle.num, p.angle.den) for p in self.d))
        return _dense_key(self.to_dense())

    def to_json_dict(self) -> dict:
        return {
            "variant": "monomial_cycle",
            "dim": self.dim,
            "d": [_point_to_json(p) for p in self.d],
            "k": self.k,
        }


def monomial_cycle(d: Sequence[UnitPoint], k: int) -> UMatrix:
    """Build D @ C**k, collapsing to Diagonal when k is a multiple of p."""
    d = tuple(d)
    if k % len(d) == 0:
        return Diagonal(d)
    return MonomialCycle(d, k)


@dataclass(frozen=True)
class BlockDiag(UMatrix):
    blocks: tuple[UMatrix, ...]

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def exact(self) -> bool:
        return all(b.exact for b in self.blocks)

    def to_dense(self) -> np.ndarray:
        n = self.dim
        a = np.zeros((n, n), dtype=complex)
        off = 0
        for b in self.blocks:
            a[off:off + b.dim, off:off + b.dim] = b.to_dense()
            off += b.dim
        return a

    def spectrum(self) -> Spectrum:
        pts: list[UnitPoint] = []
        for b in self.blocks:
            pts.extend(b.spectrum().points)
        return Spectrum.from_points(pts)

    def inverse(self) -> "BlockDiag":
        return BlockDiag(tuple(b.inverse() for b in self.blocks))

    def canonical_key(self):
        return ("block", tuple(b.canonical_key() for b in self.blocks))

    def to_json_dict(self) -> dict:
        return {
            "variant": "block_diag",
            "dim": self.dim,
            "blocks": [b.to_json_dict() for b in self.blocks],
        }


def block_diag(blocks: Sequence[UMatrix]) -> UMatrix:
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    if len(blocks) == 1:
        return blocks[0]
    return BlockDiag(blocks)


@dataclass(frozen=True)
class Dense(UMatrix):
    a: np.ndarray
    unitary: Optional[bool] = None
    exactness_lost: bool = False

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.a, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError("dense matrix must be square")
        object.__setattr__(self, "a", arr)
        if self.unitary is None:
            object.__setattr__(self, "unitary", _is_unitary(arr))
        elif self.unitary and not _is_unitary(arr):
            raise NonUnitaryError("matrix flagged unitary fails the check")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def exact(self) -> bool:
        return False

    def to_dense(self) -> np.ndarray:
        return self.a

    def spectrum(self) -> Spectrum:
        if not self.unitary:
            raise NonUnitaryError("spectrum on the unit circle needs a unitary matrix")
        return _dense_spectra(self.a[None])[0]

    def inverse(self) -> "Dense":
        if not self.unitary:
            raise NonUnitaryError("inverse via conjugate transpose needs unitarity")
        return Dense(self.a.conj().T, unitary=True,
                     exactness_lost=self.exactness_lost)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dense) and np.array_equal(self.a, other.a)

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def to_json_dict(self) -> dict:
        return {
            "variant": "dense",
            "dim": self.dim,
            "entries": [[[z.real, z.imag] for z in row] for row in self.a],
            "unitary": bool(self.unitary),
        }


def _unitarity_gaps(a: np.ndarray) -> np.ndarray:
    """max |A^H A - I| of a matrix, or of each matrix of a stack.  Entries
    too large or not finite give a gap of inf or nan, which fails every
    ``<= UNITARITY_TOL`` test without a warning."""
    n = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(np.swapaxes(a.conj(), -1, -2) @ a - np.eye(n)),
                      axis=(-2, -1))


def _is_unitary(a: np.ndarray) -> bool:
    return bool(_unitarity_gaps(a) <= UNITARITY_TOL)


# Bytes of matrices per stacked eigensolve in ``_dense_spectra`` (and per
# unitarity check in ``_require_unitary``).  Each of its (n, d, d)
# temporaries then stays under the allocator's 128 KB mmap threshold;
# freeing larger ones raised the peak RSS of a dense run by about 0.5 MB.
_EIG_BLOCK_BYTES = 1 << 16


def _eig_blocks(stack: np.ndarray):
    """The blocks of an (n, d, d) stack, ``_EIG_BLOCK_BYTES`` each."""
    step = max(1, _EIG_BLOCK_BYTES // (16 * stack.shape[-1] ** 2))
    return (stack[lo:lo + step] for lo in range(0, len(stack), step))


def _require_unitary(stack: np.ndarray) -> None:
    """``Dense.spectrum``'s unitarity refusal for an (n, d, d) stack."""
    for part in _eig_blocks(stack):
        if not np.all(_unitarity_gaps(part) <= UNITARITY_TOL):
            raise NonUnitaryError("spectrum on the unit circle needs a unitary matrix")


def _dense_spectra(stack: np.ndarray) -> list[Spectrum]:
    """The spectrum of every matrix of an (n, d, d) stack of unitary
    matrices, from one stacked eigensolve per block: the one dense spectrum
    routine, behind ``Dense.spectrum`` and an exhaustive dense scan's k class
    representatives.  Unitarity is the caller's check; an eigenvalue
    modulus off the unit circle raises ``NonUnitaryError``."""
    spectra = []
    for part in _eig_blocks(stack):
        eigs, errs = eigensolve_dense(part)
        if np.any(np.abs(np.abs(eigs) - 1.0) > MODULUS_TOL):
            raise NonUnitaryError("eigenvalue modulus off the unit circle")
        spectra.extend(
            Spectrum.from_points([UnitPoint.from_complex(z, err=e / (2.0 * math.pi))
                                  for z, e in zip(row_z, row_e)])
            for row_z, row_e in zip(eigs.tolist(), errs.tolist()))
    return spectra


def identity_like(m: UMatrix) -> UMatrix:
    """Identity matrix in the same representation family as ``m``."""
    if isinstance(m, (Diagonal, MonomialCycle)):
        return Diagonal((ONE,) * m.dim)
    if isinstance(m, BlockDiag):
        return BlockDiag(tuple(identity_like(b) for b in m.blocks))
    return Dense(np.eye(m.dim, dtype=complex), unitary=True)


def _mono_parts(m: UMatrix) -> Optional[tuple[tuple[UnitPoint, ...], int]]:
    if isinstance(m, Diagonal):
        return m.entries, 0
    if isinstance(m, MonomialCycle):
        return m.d, m.k
    return None


def matmul(a: UMatrix, b: UMatrix) -> UMatrix:
    """Product in the most specific representation that stays closed."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"{a.dim} x {a.dim} times {b.dim} x {b.dim}")
    pa, pb = _mono_parts(a), _mono_parts(b)
    if pa is not None and pb is not None:
        (da, ka), (db, kb) = pa, pb
        d = tuple(x * y for x, y in zip(da, _shift(db, ka)))
        return monomial_cycle(d, ka + kb)
    if isinstance(a, BlockDiag) and isinstance(b, BlockDiag):
        if tuple(x.dim for x in a.blocks) == tuple(y.dim for y in b.blocks):
            return BlockDiag(tuple(matmul(x, y) for x, y in zip(a.blocks, b.blocks)))
    dense = a.to_dense() @ b.to_dense()
    return Dense(dense, exactness_lost=a.exact and b.exact)


def eigensolve_dense(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a square complex matrix with residual error bounds.

    Returns ``(eigs, errs)`` with eigenvalues sorted by angle then modulus.
    For a normal matrix the residual ``|A v - lambda v|`` of a unit
    eigenvector bounds the distance from ``lambda`` to the true spectrum.
    An (..., d, d) stack is solved in one call, each matrix exactly as on
    its own; ``eigs`` and ``errs`` then have shape (..., d).
    """
    a = np.asarray(a, dtype=complex)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceFailureError(str(exc)) from exc
    norms = np.linalg.norm(v, axis=-2)
    norms[norms == 0.0] = 1.0
    res = np.linalg.norm(a @ v - v * w[..., None, :], axis=-2) / norms
    ang = np.angle(w) / (2.0 * math.pi) % 1.0
    order = np.lexsort((np.abs(w), ang), axis=-1)
    return (np.take_along_axis(w, order, axis=-1),
            np.take_along_axis(res, order, axis=-1))


def general_spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of an arbitrary square matrix, deterministically sorted."""
    eigs, _ = eigensolve_dense(a)
    return eigs


def spectral_radius(x) -> float:
    """max |lambda| over the spectrum; exactly 1 for unitary inputs."""
    if isinstance(x, UMatrix):
        if isinstance(x, Dense):
            return float(np.max(np.abs(general_spectrum(x.a))))
        return 1.0
    if hasattr(x, "nonzero_eigenvalue"):
        return abs(x.nonzero_eigenvalue())
    return float(np.max(np.abs(general_spectrum(np.asarray(x, dtype=complex)))))


def match_spectra(a, b) -> float:
    """Best cyclic alignment distance between two equal-size angle multisets.

    Sorts both angle lists, tries every cyclic offset of the second against
    the first, and returns the smallest achievable maximum circle distance.
    Accepts Spectrum objects or bare angle sequences.
    """
    ta = a.angles() if isinstance(a, Spectrum) else np.asarray(a, dtype=float)
    tb = b.angles() if isinstance(b, Spectrum) else np.asarray(b, dtype=float)
    if len(ta) != len(tb):
        raise DimensionMismatchError("spectra of different sizes")
    n = len(ta)
    if n == 0:
        return 0.0
    sa, sb = np.sort(ta % 1.0), np.sort(tb % 1.0)
    # row s: the circle distance of sa[i] to sb[(i + s) % n] for every i
    d = np.abs(sa - sb[np.add.outer(np.arange(n), np.arange(n)) % n]) % 1.0
    return float(np.where(d <= 0.5, d, 1.0 - d).max(axis=1).min())


def matrix_to_json(m: UMatrix) -> dict:
    return m.to_json_dict()


def matrix_from_json(d: dict) -> UMatrix:
    """Inverse of ``to_json_dict``; raises ``MalformedJsonError`` on input
    without that structure, of dimension 0, or whose ``dim`` is not the
    decoded matrix's."""
    variant = d.get("variant") if isinstance(d, dict) else None
    if variant not in ("diagonal", "monomial_cycle", "block_diag", "dense"):
        raise MalformedJsonError(f"unknown matrix variant: {variant!r}")
    with _loading(f"{variant} matrix"):
        if variant == "diagonal":
            m = Diagonal(tuple(_point_from_json(e) for e in d["entries"]))
        elif variant == "monomial_cycle":
            m = MonomialCycle(tuple(_point_from_json(e) for e in d["d"]),
                              _typed(d, "k", int))
        elif variant == "block_diag":
            m = BlockDiag(tuple(matrix_from_json(b) for b in d["blocks"]))
        else:
            a = np.array([[_complex(*z) for z in row] for row in d["entries"]])
            m = Dense(a, unitary=_typed(d, "unitary", bool, nullable=True)
                      if "unitary" in d else None)
        if not m.dim:
            raise ValueError("a matrix of dimension 0")
        if "dim" in d and not (_is(d["dim"], int) and d["dim"] == m.dim):
            raise ValueError(f"declares dim {d['dim']!r} but has dimension {m.dim}")
    return m
