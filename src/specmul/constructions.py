"""Families of matrices built to sit at the edge of spectral submultiplicativity.

* ``tadpole`` — a 2p x 2p block-diagonal family (a monomial "head" D @ C^k on
  p-th and arbitrary unit angles, and a diagonal "tail" of p^2-th roots of
  unity).  The family is closed under products; pairs whose product has a
  diagonal head realize defects right at 1/(2 p^2).
* ``miller_moreno`` — generator pairs (X, Y) built from q-th-root diagonal
  blocks and scaled cycle blocks.  Their closures are small nonabelian groups
  whose exhaustive defect exceeds 1/(2 n^2) by a comfortable margin.
* ``sr_sample`` — scaled rank-one perturbations of a matrix unit; a semigroup
  under multiplication whose relative spectral defect stays below
  4 r^2 / (1 - r^2)^2.
* ``q_set`` — for a prime p and a level eps < 1/(2p), the finite set of primes
  q whose fractions k/q all avoid the open windows around odd multiples of
  1/(2p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .circle import (
    ONE,
    RationalAngle,
    UnitPoint,
    _frac_str,
    _point_from_json,
    _point_to_json,
)
from .errors import (
    DeterminantNotOneError,
    InvalidParamsError,
    PrimeMismatchError,
    _loading,
    _typed,
    _typed_items,
)
from .linalg import (
    Diagonal,
    MonomialCycle,
    Spectrum,
    UMatrix,
    block_diag,
    monomial_cycle,
)

__all__ = [
    "cycle_matrix",
    "spectrum_dck",
    "TadpoleParams",
    "tadpole",
    "tadpole_mul",
    "tadpole_identity",
    "tadpole_inverse",
    "tadpole_case",
    "random_det1_diagonal",
    "sample_tadpole",
    "adversarial_case4_pair",
    "tadpole_sampler",
    "MillerMorenoParams",
    "default_miller_moreno",
    "miller_moreno",
    "MmGapReport",
    "mm_gap_analysis",
    "SrParams",
    "SrElement",
    "sr_sample",
    "sr_sampler",
    "sr_pair_gamma",
    "sr_ratio_bound",
    "QSetParams",
    "QSetResult",
    "q_set",
    "is_prime",
    "primes_up_to",
]

DET_TOL = 1e-9


# ---------------------------------------------------------------------------
# shared small helpers

# Miller-Rabin over the prime bases 2 ... 41 is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017),
# which is this.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; n at or above
    ``_MR_LIMIT``, where the bases would no longer prove it, is refused."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise InvalidParamsError(f"primality is decided only below {_MR_LIMIT}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    r = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    d = (n - 1) >> r
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def _mod1(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x % 1.0`` of a float array as ``x - floor(x)``, into ``out`` if
    given.  Both round the exact x - floor(x) once, so they agree bit for
    bit (+0.0 for integers and -0.0, nan for +-inf); the subtraction costs a
    fraction of numpy's float remainder."""
    return np.subtract(x, np.floor(x), out=out)


def cycle_matrix(p: int) -> UMatrix:
    """The p x p cyclic shift: ones on the superdiagonal and in the corner."""
    if p < 2:
        raise InvalidParamsError("cycle matrix needs p >= 2")
    return MonomialCycle((ONE,) * p, 1)


def spectrum_dck(d: Sequence[UnitPoint], k: int, p: int) -> Spectrum:
    """Spectrum of D @ C^k for a determinant-one diagonal D, closed form.

    For k divisible by p this is just the diagonal; otherwise (p prime, so
    the shift is a single p-cycle) it is exactly the p-th roots of unity.
    """
    d = tuple(d)
    if len(d) != p:
        raise InvalidParamsError("diagonal length must equal p")
    det = math.prod(d, start=ONE)
    if det.is_exact:
        if det.angle.num != 0:
            raise DeterminantNotOneError(f"det angle {det.angle.num}/{det.angle.den}")
    else:
        off = min(det.turns, 1.0 - det.turns)
        if off > DET_TOL:
            raise DeterminantNotOneError(f"det angle off by {off:.3e}")
    if k % p == 0:
        return Spectrum.from_points(d)
    return Spectrum.from_points([UnitPoint.exact(t, p) for t in range(p)])


# ---------------------------------------------------------------------------
# tadpole family

@dataclass(frozen=True)
class TadpoleParams:
    """Parameters (D, k, a) of one 2p x 2p tadpole matrix.

    The head block is ``D @ C^k`` with det(D) = 1.  The tail block is the
    diagonal of ``xi^(j*k + a_j*p)`` for j = 0..p-1 with a_0 fixed to 0,
    where xi is the primitive p^2-th root of unity.
    """

    p: int
    d: tuple[UnitPoint, ...]
    k: int
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.p
        if len(self.d) != p:
            raise InvalidParamsError("diagonal must have length p")
        if not is_prime(p):
            raise InvalidParamsError("p must be prime")
        if not 0 <= self.k < p:
            raise InvalidParamsError("k out of range")
        if len(self.a) != p - 1 or any(not 0 <= x < p for x in self.a):
            raise InvalidParamsError("need p-1 tail exponents in [0, p)")
        det = math.prod(self.d, start=ONE)
        if det.is_exact:
            if det.angle.num != 0:
                raise InvalidParamsError("det(D) must be 1")
        elif min(det.turns, 1.0 - det.turns) > DET_TOL:
            raise InvalidParamsError("det(D) must be 1 within tolerance")

    @property
    def exact(self) -> bool:
        return all(x.is_exact for x in self.d)

    def tail_points(self) -> tuple[UnitPoint, ...]:
        p = self.p
        pts = [UnitPoint.exact(0)]
        for j in range(1, p):
            pts.append(UnitPoint.exact(j * self.k + self.a[j - 1] * p, p * p))
        return tuple(pts)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "a": list(self.a),
                "d": [_point_to_json(x) for x in self.d]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TadpoleParams":
        """Inverse of ``to_json_dict``; raises ``MalformedJsonError`` on
        input without that structure."""
        with _loading("tadpole parameters"):
            pts = tuple(_point_from_json(e) for e in _typed(d, "d", list))
            return cls(_typed(d, "p", int), pts, _typed(d, "k", int),
                       _typed_items(d, "a", int))


def tadpole(params: TadpoleParams) -> UMatrix:
    head = monomial_cycle(params.d, params.k)
    tail = Diagonal(params.tail_points())
    return block_diag((head, tail))


def tadpole_mul(a: TadpoleParams, b: TadpoleParams) -> TadpoleParams:
    """Product parameters; matches tadpole(a) @ tadpole(b) entrywise.

    Heads compose like monomials: D_AB = D_A * sigma_k(D_B), r = k + l mod p.
    Tail exponents add, with a shift correction +j exactly when k + l wraps
    past p.
    """
    if a.p != b.p:
        raise PrimeMismatchError("tadpole product needs matching p")
    p = a.p
    k, l = a.k, b.k
    r = (k + l) % p
    wrap = (k + l) // p
    d = tuple(x * y for x, y in zip(a.d, b.d[k:] + b.d[:k]))
    c = tuple((a.a[j - 1] + b.a[j - 1] + j * wrap) % p for j in range(1, p))
    return TadpoleParams(p, d, r, c)


def tadpole_identity(p: int) -> TadpoleParams:
    return TadpoleParams(p, (ONE,) * p, 0, (0,) * (p - 1))


def tadpole_inverse(a: TadpoleParams) -> TadpoleParams:
    p = a.p
    dinv = tuple(x.conj() for x in a.d)
    if a.k == 0:
        return TadpoleParams(p, dinv, 0, tuple((-x) % p for x in a.a))
    ki = p - a.k
    d = dinv[-a.k % p:] + dinv[: -a.k % p]
    c = tuple((-a.a[j - 1] - j) % p for j in range(1, p))
    return TadpoleParams(p, d, ki, c)


def tadpole_case(a: TadpoleParams, b: TadpoleParams) -> int:
    """Case split by which of the three heads are diagonal.

    1: both factors diagonal; 2: exactly one factor diagonal; 3: neither
    factor nor the product diagonal; 4: both factors non-diagonal but the
    product diagonal (k + l = p).
    """
    return int(_tadpole_cases(np.asarray(a.k), np.asarray(b.k), a.p))


def _tadpole_cases(ka: np.ndarray, kb: np.ndarray, p: int) -> np.ndarray:
    """``tadpole_case`` of the pairs whose head shifts are ``ka`` and ``kb``."""
    return np.select([(ka == 0) & (kb == 0), (ka == 0) | (kb == 0),
                      (ka + kb) % p == 0], [1, 2, 4], 3)


def random_det1_diagonal(
    p: int,
    rng: np.random.Generator,
    exact: bool = False,
) -> tuple[UnitPoint, ...]:
    """p uniform unit angles with the last one correcting the product to 1:
    the batch of one head of ``_det1_heads``.

    With ``exact`` the angles are random rationals over p^2 or 2p^2, so
    determinants cancel exactly."""
    return _head_points(_det1_heads(p, rng, 1, exact)[0], p, exact)


def _det1_heads(p: int, rng: np.random.Generator, n: int, exact: bool) -> np.ndarray:
    """n heads (n, p) of ``random_det1_diagonal``: angles in turns, or with
    ``exact`` int64 numerators over 2p^2; the last entry of a row makes its
    sum 0 mod 1.

    Float rows are ``rng.random((n, p - 1))``.  Exact rows pick each
    denominator by ``rng.integers(0, 2, (n, p - 1))`` (0 for p^2, 1 for
    2p^2), then its numerator by ``rng.integers(0, over)`` with that array."""
    if exact:
        den = 2 * p * p
        over = np.where(rng.integers(0, 2, (n, p - 1)) == 1, den, p * p)
        nums = rng.integers(0, over) * (den // over)
        return np.concatenate([nums, -nums.sum(axis=1, keepdims=True) % den], axis=1)
    angles = rng.random((n, p - 1))
    # the correcting angle, then UnitPoint's own % 1.0
    last = _mod1(_mod1(-angles.sum(axis=1, keepdims=True)))
    return np.concatenate([angles, last], axis=1)


def _head_points(d: np.ndarray, p: int, exact: bool) -> tuple[UnitPoint, ...]:
    """The points of one head row of ``_det1_heads``."""
    return tuple(UnitPoint.exact(x, 2 * p * p) if exact else UnitPoint.approx(x)
                 for x in d.tolist())


def _draw_tadpoles(p: int, rng: np.random.Generator, n: int, exact: bool):
    """n tadpoles as arrays (d (n, p), k (n,), a (n, p-1)): the heads of
    ``_det1_heads``, then ``rng.integers(0, p, (n, p))`` for each shift and
    its tail exponents."""
    d = _det1_heads(p, rng, n, exact)
    ints = rng.integers(0, p, (n, p))
    return d, ints[:, 0], ints[:, 1:]


def _tadpole_params(p: int, d: np.ndarray, k, a: np.ndarray,
                    exact: bool) -> TadpoleParams:
    return TadpoleParams(p, _head_points(d, p, exact), int(k), tuple(a.tolist()))


def sample_tadpole(
    p: int,
    rng: np.random.Generator,
    exact: bool = False,
) -> TadpoleParams:
    """Random tadpole: uniform head angles (det corrected on the last entry),
    uniform k and tail exponents; the batch of one of ``_draw_tadpoles``."""
    d, k, a = _draw_tadpoles(p, rng, 1, exact)
    return _tadpole_params(p, d[0], k[0], a[0], exact)


def _head_angles(d: np.ndarray, k: np.ndarray, p: int) -> np.ndarray:
    """Head spectra of float D @ C^k, one row (D, k) each, in turns.

    The same float steps as ``MonomialCycle.spectrum``: k = 0 leaves the
    diagonal; otherwise D's entries fold along the single cycle 0, k, 2k, ...
    into a weight w with ``% 1.0`` after each product, and the eigenvalues
    are ``(w + t) / p`` for t = 0..p-1.
    """
    cycle = np.take_along_axis(d, np.arange(p) * k[:, None] % p, axis=1)
    w = cycle[:, 0].copy()
    for i in range(1, p):
        w += cycle[:, i]
        _mod1(w, out=w)
    roots = _mod1((w[:, None] + np.arange(p)) / p)
    return np.where(k[:, None] == 0, d, roots)


def _head_numerators(d: np.ndarray, k: np.ndarray, p: int) -> np.ndarray:
    """``_head_angles`` of exact heads: numerators over 2p^3 from D's
    numerators ``d`` over 2p^2, the roots (w + t) / p of the weight w."""
    den = 2 * p * p
    roots = (d.sum(axis=1)[:, None] + np.arange(p) * den) % (den * p)
    return np.where(k[:, None] == 0, d * p, roots)


def _tail_exponents(k: np.ndarray, a: np.ndarray, p: int) -> np.ndarray:
    """Tail exponents j*k + a_j*p mod p^2 (a_0 = 0) over xi = exp(2 pi i/p^2)."""
    a0 = np.concatenate([np.zeros((len(k), 1), dtype=np.int64), a], axis=1)
    return (np.arange(p) * k[:, None] + a0 * p) % (p * p)


@dataclass(frozen=True, eq=False)
class TadpoleBatch:
    """Sampled pairs of tadpoles as parameter arrays.

    Row t is the t-th pair; along the second axis, 0 is the left factor A and
    1 the right factor B.  ``d (m, 2, p)`` holds the head angles, in turns or
    with ``exact`` as int64 numerators over 2p^2, ``k (m, 2)`` the shifts and
    ``a (m, 2, p-1)`` the tail exponents.
    """

    p: int
    d: np.ndarray
    k: np.ndarray
    a: np.ndarray
    exact: bool = False

    @classmethod
    def concat(cls, batches: Sequence["TadpoleBatch"]) -> "TadpoleBatch":
        """The pairs of ``batches`` in order, as one batch."""
        if len(batches) == 1:
            return batches[0]
        return cls(batches[0].p, np.concatenate([b.d for b in batches]),
                   np.concatenate([b.k for b in batches]),
                   np.concatenate([b.a for b in batches]), batches[0].exact)

    def take(self, t: int) -> "TadpoleBatch":
        """Pair t alone, as a batch that holds no view of this one."""
        pick = slice(t, t + 1)
        return TadpoleBatch(self.p, self.d[pick].copy(), self.k[pick].copy(),
                            self.a[pick].copy(), self.exact)

    @property
    def scale(self) -> int:
        """The denominator 2p^3 of the numerators of exact ``spectra``."""
        return 2 * self.p ** 3

    def params(self, t: int, side: int) -> TadpoleParams:
        return _tadpole_params(self.p, self.d[t, side], self.k[t, side],
                               self.a[t, side], self.exact)

    def pair(self, t: int) -> tuple[UMatrix, UMatrix]:
        return tadpole(self.params(t, 0)), tadpole(self.params(t, 1))

    def spectra(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (m, 2p) of sigma(A), sigma(B) and sigma(AB), equal as
        multisets to the spectra of the matrices and their product: angles
        in turns, or with ``exact`` int64 numerators over ``scale``.

        The product follows ``tadpole_mul``: D_AB = D_A * sigma_k(D_B) (with
        ``% 1.0`` as in ``UnitPoint.__mul__``, or mod 2p^2), r = k + l mod p,
        and the tail exponents add mod p^2.
        """
        p, sq = self.p, self.p * self.p
        (da, db), (ka, kb) = self.d.transpose(1, 0, 2), self.k.T
        ea = _tail_exponents(ka, self.a[:, 0], p)
        eb = _tail_exponents(kb, self.a[:, 1], p)
        dab = da + np.take_along_axis(db, (np.arange(p) + ka[:, None]) % p, axis=1)
        if self.exact:
            heads, tails = _head_numerators, lambda e: e * (2 * p)
            dab %= 2 * sq
        else:
            heads, tails = _head_angles, lambda e: e / sq
            _mod1(dab, out=dab)
        return tuple(np.concatenate([heads(d, k, p), tails(e)], axis=1)
                     for d, k, e in ((da, ka, ea), (db, kb, eb),
                                     (dab, (ka + kb) % p, (ea + eb) % sq)))


@dataclass(frozen=True)
class TadpoleSampler:
    """Tadpole pairs drawn by ``batch``; a call, rng -> tadpole matrix, is
    one ``sample_tadpole`` draw.

    A plain object rather than a closure so process pools can ship it to
    workers.
    """

    p: int
    exact: bool = False

    # Pairs from which a sampled run sends its groups to the pool.  Medians
    # of 15 interleaved runs on 2 vCPUs, the pool forced at every size,
    # --workers 2 against 1, p = 5: in one process 1.66x as long at 10,000
    # pairs, 0.88x at 15,000 and 0.93x at 20,000; each run in a fresh
    # interpreter 1.12x, 0.93x and 0.89x.
    PARALLEL_MIN_PAIRS = 20_000

    def __call__(self, rng: np.random.Generator) -> UMatrix:
        return tadpole(sample_tadpole(self.p, rng, exact=self.exact))

    def batch(self, rng: np.random.Generator, count: int) -> TadpoleBatch:
        """The next ``count`` pairs: 2*count tadpoles drawn at once by
        ``_draw_tadpoles``, tadpoles 2t and 2t + 1 the pair t.  Works with
        any bit generator."""
        p = self.p
        if not is_prime(p):
            raise InvalidParamsError("p must be prime")
        d, k, a = _draw_tadpoles(p, rng, 2 * count, self.exact)
        return TadpoleBatch(p, d.reshape(count, 2, p), k.reshape(count, 2),
                            a.reshape(count, 2, p - 1), self.exact)


def tadpole_sampler(p: int, exact: bool = False) -> TadpoleSampler:
    return TadpoleSampler(p, exact)


def adversarial_case4_pair(
    p: int,
    k: int = 1,
    d_a: Optional[Sequence[UnitPoint]] = None,
) -> tuple[TadpoleParams, TadpoleParams]:
    """An exact pair whose product head lands halfway between p^2-th roots.

    Picks D_B so that D_A * sigma_k(D_B) is a diagonal E with p-1 entries at
    angle 1/(2 p^2) and the last entry correcting the determinant; paired
    with l = p - k the product is diagonal and its head eigenvalues sit at
    scaled distance exactly 1/(2 p^2) from the p^2-th roots of unity.
    """
    if not 1 <= k < p:
        raise InvalidParamsError("need 1 <= k < p")
    if d_a is None:
        d_a = tuple(UnitPoint.exact(t, p * p) for t in range(p - 1))
        last = (-sum((x.angle.as_fraction() for x in d_a), Fraction(0))) % 1
        d_a = d_a + (UnitPoint.exact(last.numerator, last.denominator),)
    else:
        d_a = tuple(d_a)
    e = [UnitPoint.exact(1, 2 * p * p)] * (p - 1)
    e.append(UnitPoint.exact(-(p - 1), 2 * p * p))
    quot = tuple(x.conj() * y for x, y in zip(d_a, e))  # D_A^{-1} E
    d_b = quot[-k % p:] + quot[: -k % p]  # sigma_{-k}
    pa = TadpoleParams(p, d_a, k, (0,) * (p - 1))
    pb = TadpoleParams(p, d_b, p - k, (0,) * (p - 1))
    return pa, pb


# ---------------------------------------------------------------------------
# Miller-Moreno generator pairs

@dataclass(frozen=True)
class MillerMorenoParams:
    """Generator-pair data: m cycle blocks of size p plus scalar slots.

    ``theta_exponents`` holds one exponent row per block; row entries are
    nonzero residues mod q summing to 0 mod q, so each X block is a
    non-scalar determinant-one diagonal of exact order q.  ``beta_angles``
    gives one unit scalar of p-power order per block and per trailing scalar
    slot (the first m entries scale the cycle blocks).
    """

    p: int
    q: int
    theta_exponents: tuple[tuple[int, ...], ...]
    beta_angles: tuple[RationalAngle, ...]

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if not (is_prime(p) and is_prime(q)) or p == q:
            raise InvalidParamsError("need distinct primes p, q")
        if not self.theta_exponents:
            raise InvalidParamsError("need at least one exponent row")
        if len(self.beta_angles) < len(self.theta_exponents):
            raise InvalidParamsError("fewer scalars than cycle blocks")
        for row in self.theta_exponents:
            if len(row) != p:
                raise InvalidParamsError("exponent rows must have length p")
            if any(e % q == 0 for e in row):
                raise InvalidParamsError("exponents must be nonzero mod q")
            if len({e % q for e in row}) == 1:
                raise InvalidParamsError("exponent rows must be nonconstant")
            if sum(row) % q != 0:
                raise InvalidParamsError("exponent rows must sum to 0 mod q")
        for b in self.beta_angles:
            den = b.den
            while den % p == 0:
                den //= p
            if den != 1:
                raise InvalidParamsError("scalar order must be a power of p")

    @property
    def m(self) -> int:
        return len(self.theta_exponents)

    @property
    def n(self) -> int:
        return self.m * self.p + (len(self.beta_angles) - self.m)


def default_miller_moreno(p: int, q: int) -> MillerMorenoParams:
    """Smallest faithful instance: one block, exponent row (g^0, ..., g^{p-1})
    for g of multiplicative order p mod q, scalar 1."""
    if not (is_prime(p) and is_prime(q)):
        raise InvalidParamsError("p and q must be prime")
    if (q - 1) % p != 0:
        raise PrimeMismatchError("need q = 1 (mod p) for an order-p residue")
    g = None
    for a in range(2, q):
        c = pow(a, (q - 1) // p, q)
        if c != 1:
            g = c
            break
    assert g is not None
    row = tuple(pow(g, i, q) for i in range(p))
    assert sum(row) % q == 0
    return MillerMorenoParams(p, q, (row,), (RationalAngle(0, 1),))


def miller_moreno(params: MillerMorenoParams) -> tuple[UMatrix, UMatrix]:
    """The generator pair (X, Y) as structured matrices."""
    p, q = params.p, params.q
    xblocks: list[UMatrix] = []
    yblocks: list[UMatrix] = []
    for i, row in enumerate(params.theta_exponents):
        beta = UnitPoint(params.beta_angles[i])
        xblocks.append(Diagonal(tuple(UnitPoint.exact(e, q) for e in row)))
        yblocks.append(MonomialCycle((beta,) * p, 1))
    for b in params.beta_angles[params.m:]:
        xblocks.append(Diagonal((ONE,)))
        yblocks.append(Diagonal((UnitPoint(b),)))
    return block_diag(xblocks), block_diag(yblocks)


@dataclass(frozen=True)
class MmGapReport:
    """What the product-set geometry guarantees for one instance."""

    p: int
    q: int
    n: int
    distinct_products: int
    product_bound: int
    widest_gap: Fraction
    gap_midpoint: RationalAngle
    midpoint_distance: Fraction
    midpoint_lower_bound: Fraction
    nearest_qth_root: RationalAngle
    root_distance: Fraction
    root_distance_lower_bound: Fraction
    asm_threshold: Fraction

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "distinct_products": self.distinct_products,
            "product_bound": self.product_bound,
            "widest_gap": _frac_str(self.widest_gap),
            "gap_midpoint": _frac_str(self.gap_midpoint.as_fraction()),
            "midpoint_distance": _frac_str(self.midpoint_distance),
            "midpoint_lower_bound": _frac_str(self.midpoint_lower_bound),
            "nearest_qth_root": _frac_str(self.nearest_qth_root.as_fraction()),
            "root_distance": _frac_str(self.root_distance),
            "root_distance_lower_bound": _frac_str(self.root_distance_lower_bound),
            "asm_threshold": _frac_str(self.asm_threshold),
        }


def mm_gap_analysis(params: MillerMorenoParams) -> MmGapReport:
    """Geometry of the product set sigma(Y) * sigma(Y^{-1}).

    Counts its distinct points against the closed-form bound
    n^2 - n - m p^2 + p + m p, locates the widest gap, and measures how far
    the q-th root of unity nearest the gap midpoint stays from the set —
    the quantity that forces the exhaustive defect above
    1/(2 (n^2 - 1)) - 1/q.
    """
    p, q, m, n = params.p, params.q, params.m, params.n
    _, y = miller_moreno(params)
    sy = y.spectrum()
    syi = y.inverse().spectrum()
    prods = sorted({(a.angle + b.angle).as_fraction()
                    for a in sy.points for b in syi.points})
    bound = n * n - n - m * p * p + p + m * p

    # each gap between neighbours on the circle: (width, midpoint)
    gaps = [(hi - lo, (hi + lo) / 2) for lo, hi in zip(prods, prods[1:] + [prods[0] + 1])]
    widest, mid = max(gaps, key=lambda g: g[0])

    def arc(f: Fraction, g: Fraction) -> Fraction:
        d = (f - g) % 1
        return min(d, 1 - d)

    # nontrivial q-th roots only: those are the points realized in sigma(X^k)
    root = RationalAngle(min(range(1, q), key=lambda j: arc(Fraction(j, q), mid)), q)
    return MmGapReport(
        p=p,
        q=q,
        n=n,
        distinct_products=len(prods),
        product_bound=bound,
        widest_gap=widest,
        gap_midpoint=RationalAngle.from_fraction(mid % 1),
        midpoint_distance=min(arc(mid, s) for s in prods),
        midpoint_lower_bound=Fraction(1, 2 * (n * n - 1)),
        nearest_qth_root=root,
        root_distance=min(arc(root.as_fraction(), s) for s in prods),
        root_distance_lower_bound=Fraction(1, 2 * (n * n - 1)) - Fraction(1, q),
        asm_threshold=Fraction(1, 2 * n * n),
    )


# ---------------------------------------------------------------------------
# rank-one semigroup

@dataclass(frozen=True)
class SrParams:
    """Sampling box for the rank-one semigroup: vectors of norm < r."""

    r: float
    n: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise InvalidParamsError("need 0 < r < 1")
        if self.n < 2:
            raise InvalidParamsError("need dimension at least 2")


@dataclass(frozen=True)
class SrElement:
    """lam * [[1, x*], [y, y x*]] for vectors x, y in C^{n-1}.

    Rank one, so the single nonzero eigenvalue is lam * (1 + <x, y>).
    ``row`` is the vector whose conjugate forms the first row; ``col`` the
    first column below the corner.
    """

    lam: complex
    row: tuple[complex, ...]
    col: tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.row) + 1

    def matrix(self) -> np.ndarray:
        x = np.array(self.row, dtype=complex)
        y = np.array(self.col, dtype=complex)
        n = self.n
        a = np.empty((n, n), dtype=complex)
        a[0, 0] = 1.0
        a[0, 1:] = x.conj()
        a[1:, 0] = y
        a[1:, 1:] = np.outer(y, x.conj())
        return self.lam * a

    def nonzero_eigenvalue(self) -> complex:
        x = np.array(self.row, dtype=complex)
        y = np.array(self.col, dtype=complex)
        return self.lam * (1.0 + np.vdot(x, y))

    def spectral_radius(self) -> float:
        return abs(self.nonzero_eigenvalue())


# Vectors are drawn in the ball of radius SR_MARGIN * r, inside the open r-ball.
SR_MARGIN = 0.999


def sr_sample(params: SrParams, rng: np.random.Generator) -> SrElement:
    """One random element: unit-modulus lam, vectors uniform in the r-ball;
    the batch of one of ``_draw_sr``."""
    return _draw_sr(params, rng, 1)._element(0)


def _draw_sr(params: SrParams, rng: np.random.Generator, n: int) -> SrBatch:
    """n elements, drawn by ``rng.random(n)`` (the turns u of lam =
    exp(2 pi i u)), ``rng.standard_normal((n, 2, 2*dim))`` (the directions of
    x and y, real parts first) and ``rng.random((n, 2))`` (their radii
    SR_MARGIN * r * u^(1/(2*dim)), uniform in the ball); normals that are all
    0 give the vector 0."""
    dim = params.n - 1
    turns = rng.random(n)
    gauss = rng.standard_normal((n, 2, 2 * dim))
    radii = params.r * SR_MARGIN * rng.random((n, 2)) ** (1.0 / (2 * dim))
    v = gauss[..., :dim] + 1j * gauss[..., dim:]
    nrm = np.linalg.norm(v, axis=-1, keepdims=True)
    vec = v / np.where(nrm, nrm, 1.0) * radii[..., None]
    return SrBatch(np.exp(2j * np.pi * turns), vec[:, 0], vec[:, 1])


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise <x, y> = x^H y of stacked vectors, rounded as ``np.vdot`` of
    one pair rounds (both reach BLAS's dot kernel with the same strides)."""
    return np.matmul(x.conj()[..., None, :], y[..., :, None])[..., 0, 0]


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b over complex arrays, rounded as the scalar product rounds:
    array ``*`` may fuse a multiply into the add and differ in the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True, eq=False)
class SrBatch:
    """Sampled pairs of rank-one elements as arrays.

    Element 2t is the left factor A of pair t, element 2t + 1 the right
    factor B.  ``lam (2m,)`` holds the scalars, ``row`` and ``col``
    ``(2m, n-1)`` the vectors of ``SrElement``.
    """

    lam: np.ndarray
    row: np.ndarray
    col: np.ndarray

    @classmethod
    def of(cls, elements: Sequence[SrElement]) -> "SrBatch":
        """The batch of the elements A_0, B_0, A_1, B_1, ..."""
        return cls(np.array([e.lam for e in elements], dtype=complex),
                   np.array([e.row for e in elements], dtype=complex),
                   np.array([e.col for e in elements], dtype=complex))

    @classmethod
    def concat(cls, batches: Sequence["SrBatch"]) -> "SrBatch":
        """The pairs of ``batches`` in order, as one batch."""
        if len(batches) == 1:
            return batches[0]
        return cls(np.concatenate([b.lam for b in batches]),
                   np.concatenate([b.row for b in batches]),
                   np.concatenate([b.col for b in batches]))

    def take(self, t: int) -> "SrBatch":
        """Pair t alone, as a batch that holds no view of this one."""
        pick = slice(2 * t, 2 * t + 2)
        return SrBatch(self.lam[pick].copy(), self.row[pick].copy(),
                       self.col[pick].copy())

    def _element(self, i: int) -> SrElement:
        return SrElement(complex(self.lam[i]), tuple(self.row[i]), tuple(self.col[i]))

    def pair(self, t: int) -> tuple[SrElement, SrElement]:
        return self._element(2 * t), self._element(2 * t + 1)

    def eigenvalues(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero eigenvalues alpha of A, beta of B and gamma of AB as
        complex arrays (m,), equal bit for bit to ``nonzero_eigenvalue`` and
        ``sr_pair_gamma``: gamma = lam_A lam_B (1 + <x_A, y_B>)(1 + <x_B, y_A>).
        """
        lam, x, y = self.lam, self.row, self.col
        eig = _cmul(lam, 1.0 + _dots(x, y))
        gamma = _cmul(_cmul(_cmul(lam[0::2], lam[1::2]),
                            1.0 + _dots(x[0::2], y[1::2])),
                      1.0 + _dots(x[1::2], y[0::2]))
        return eig[0::2], eig[1::2], gamma


@dataclass(frozen=True)
class SrSampler:
    """``sr`` pairs drawn by ``batch``; a call, rng -> element, is one
    ``sr_sample`` draw.  A plain object so process pools can ship it."""

    params: SrParams

    # Pairs from which a sampled run sends its groups to the pool; ``sr``
    # draws and scores cheaply, so the pool pays later than for tadpoles.
    # Measured as for ``TadpoleSampler``, r = 0.5: in one process 1.04x as
    # long at 30,000 pairs, 1.05x at 50,000, 0.84x at 100,000 and 0.83x at
    # 150,000; in fresh interpreters 1.12x, 1.13x, 0.84x and 0.80x.
    PARALLEL_MIN_PAIRS = 100_000

    def __call__(self, rng: np.random.Generator) -> SrElement:
        return sr_sample(self.params, rng)

    def batch(self, rng: np.random.Generator, count: int) -> SrBatch:
        """The next ``count`` pairs: 2*count elements drawn at once by
        ``_draw_sr``, elements 2t and 2t + 1 the pair t.  Works with any bit
        generator."""
        return _draw_sr(self.params, rng, 2 * count)


def sr_sampler(params: SrParams) -> SrSampler:
    return SrSampler(params)


def sr_pair_gamma(a: SrElement, b: SrElement) -> complex:
    """Closed-form nonzero eigenvalue of the product matrix a @ b."""
    ay = np.vdot(np.array(a.row), np.array(b.col))
    xb = np.vdot(np.array(b.row), np.array(a.col))
    return a.lam * b.lam * (1.0 + ay) * (1.0 + xb)


def sr_ratio_bound(r: float) -> float:
    """Supremum of |gamma/(alpha beta) - 1| over the r-ball family."""
    return 4.0 * r * r / (1.0 - r * r) ** 2


# ---------------------------------------------------------------------------
# admissible prime sets

@dataclass(frozen=True)
class QSetParams:
    p: int
    epsilon: Fraction

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise InvalidParamsError("p must be prime")
        if not 0 < self.epsilon < Fraction(1, 2 * self.p):
            raise InvalidParamsError("need 0 < epsilon < 1/(2p)")

    @property
    def delta(self) -> Fraction:
        return Fraction(1, 2 * self.p) - self.epsilon

    @property
    def cutoff(self) -> int:
        """No prime above 1/(2 delta) can qualify: the windows are wider than
        the 1/q spacing of its fractions."""
        return math.floor(Fraction(1, 2 * self.delta))


@dataclass(frozen=True)
class QSetResult:
    params: QSetParams
    members: tuple[int, ...]
    cutoff: int
    verdicts: tuple[tuple[int, bool, Optional[Fraction]], ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.params.p,
            "epsilon": _frac_str(self.params.epsilon),
            "delta": _frac_str(self.params.delta),
            "cutoff": self.cutoff,
            "members": list(self.members),
            "verdicts": [
                {
                    "q": q,
                    "member": ok,
                    "witness": _frac_str(w),
                }
                for q, ok, w in self.verdicts
            ],
        }


def _window_witness(q: int, p: int, delta: Fraction) -> Optional[Fraction]:
    """First fraction k/q inside an open window around an odd multiple of
    1/(2p), or None when q qualifies.  Works modulo the 1/p period."""
    half = Fraction(1, 2 * p)
    period = Fraction(1, p)
    for k in range(1, q):
        x = Fraction(k, q) % period
        if abs(x - half) < delta:
            return Fraction(k, q)
    return None


def q_set(params: QSetParams, q_max: Optional[int] = None) -> QSetResult:
    """Primes q (up to the cutoff and optional q_max) whose fractions all
    avoid the forbidden windows; exact rational comparisons throughout."""
    top = params.cutoff if q_max is None else min(params.cutoff, q_max)
    verdicts = []
    members = []
    for q in primes_up_to(top):
        w = _window_witness(q, params.p, params.delta)
        verdicts.append((q, w is None, w))
        if w is None:
            members.append(q)
    return QSetResult(params, tuple(members), params.cutoff, tuple(verdicts))
