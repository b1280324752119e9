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

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _ziggurat
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

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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


def _mod1(x: np.ndarray, out: Optional[np.ndarray] = None,
          floor: Optional[np.ndarray] = None) -> np.ndarray:
    """``x % 1.0`` of a float array as ``x - floor(x)``, into ``out`` (and
    ``floor`` as scratch) if given.  Both round the exact x - floor(x) once,
    so they agree bit for bit (+0.0 for integers and -0.0, nan for +-inf);
    the subtraction costs a fraction of numpy's float remainder."""
    return np.subtract(x, np.floor(x, out=floor), out=out)


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
    """p uniform unit angles with the last one correcting the product to 1.

    With ``exact`` the angles are random rationals over p^2 or 2p^2, so
    determinants cancel exactly."""
    if exact:
        return tuple(UnitPoint.exact(x, 2 * p * p) for x in _exact_head(p, rng))
    angles = rng.random(p - 1)
    pts = [UnitPoint.approx(float(t)) for t in angles]
    pts.append(UnitPoint.approx(float((-angles.sum()) % 1.0)))
    return tuple(pts)


def _exact_head(p: int, rng: np.random.Generator) -> list[int]:
    """``random_det1_diagonal(exact=True)`` as numerators over 2p^2: p - 1
    uniform over p^2 or 2p^2, the last making the sum 0 mod 1."""
    den = 2 * p * p
    nums = []
    for _ in range(p - 1):
        # the integer and the generator state of rng.choice((p * p, den)),
        # without the np.prod that every choice call makes
        over = (p * p, den)[int(rng.integers(0, 2))]
        nums.append(int(rng.integers(0, over)) * (den // over))
    return nums + [-sum(nums) % den]


def sample_tadpole(
    p: int,
    rng: np.random.Generator,
    exact: bool = False,
) -> TadpoleParams:
    """Random tadpole: uniform head angles (det corrected on the last entry),
    uniform k and tail exponents."""
    pts = random_det1_diagonal(p, rng, exact=exact)
    k = int(rng.integers(0, p))
    a = tuple(int(x) for x in rng.integers(0, p, size=p - 1))
    return TadpoleParams(p, pts, k, a)


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
        d = tuple(UnitPoint.exact(x, 2 * self.p * self.p) if self.exact
                  else UnitPoint.approx(x) for x in self.d[t, side].tolist())
        return TadpoleParams(self.p, d, int(self.k[t, side]),
                             tuple(self.a[t, side].tolist()))

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
    the one-element draw that the tests replay batches against.

    A plain object rather than a closure so process pools can ship it to
    workers.
    """

    p: int
    exact: bool = False

    def __call__(self, rng: np.random.Generator) -> UMatrix:
        return tadpole(sample_tadpole(self.p, rng, exact=self.exact))

    def batch(self, rng: np.random.Generator, count: int) -> TadpoleBatch:
        """The next ``count`` pairs, drawn from ``rng`` as 2*count calls
        would draw them and leaving it where they would.  Exact draws make
        those calls' own ``integers`` calls; float draws are replayed from
        raw words and raise ``TypeError`` for a bit generator other than
        PCG64."""
        p = self.p
        if not is_prime(p):
            raise InvalidParamsError("p must be prime")
        if self.exact:
            draws = np.array([(*_exact_head(p, rng), rng.integers(0, p),
                               *rng.integers(0, p, size=p - 1))
                              for _ in range(2 * count)], dtype=np.int64)
            d, ints = np.split(draws.reshape(2 * count, 2 * p), [p], axis=1)
        else:
            _require_pcg64(rng)
            angles, ints = _tadpole_draws(rng, p, 2 * count)
            # random_det1_diagonal's last angle, then UnitPoint's own % 1.0
            last = _mod1(_mod1(-angles.sum(axis=1)))
            d = np.concatenate([angles, last[:, None]], axis=1)
        return TadpoleBatch(p, d.reshape(count, 2, p),
                            ints[:, 0].reshape(count, 2),
                            ints[:, 1:].reshape(count, 2, p - 1), self.exact)


# random() is (word >> 11) * 2**-53, one PCG64 word per double
_WORD_TO_UNIT = 2.0 ** -53
_LOW32 = np.uint64(0xFFFFFFFF)


def _require_pcg64(rng: np.random.Generator) -> None:
    if type(rng.bit_generator) is not np.random.PCG64:
        raise TypeError(f"batched draws replay PCG64 only, not "
                        f"{type(rng.bit_generator).__name__}")


def _replay_words(bitgen: np.random.PCG64, p: int, n: int):
    """n rounds of ``random(p - 1)``, ``integers(0, p)`` and ``integers(0, p,
    size=p - 1)`` replayed from raw PCG64 words: (angles (n, p-1), integers
    (n, p), the first round holding a rejected draw or None).

    ``integers`` takes p draws of ``next_uint32``, each the buffered high half
    of an earlier word if there is one, else the low half of a new word whose
    high half it buffers; ``random`` and ``random_raw`` leave that buffer
    alone.  Lemire's method maps a draw u to (u * p) >> 32 and rejects it when
    (u * p) mod 2**32 < 2**32 mod p.  Sets the buffer as the rounds leave it.
    """
    state = bitgen.state
    has, held = state["has_uint32"], state["uinteger"]
    # the buffer at the start of each round: p draws flip it when p is odd
    buffered = (has + np.arange(n) * p) % 2
    lengths = p - 1 + (p + 1 - buffered) // 2
    pos = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    words = bitgen.random_raw(len(pos))
    is_double = pos < p - 1
    angles = (words[is_double] >> np.uint64(11)) * _WORD_TO_UNIT
    int_words = words[~is_double]
    halves = np.empty(has + 2 * len(int_words), dtype=np.uint64)
    halves[:has] = held
    halves[has::2] = int_words & _LOW32
    halves[has + 1::2] = int_words >> np.uint64(32)
    scaled = halves[:n * p].reshape(n, p) * np.uint64(p)
    rejected = np.flatnonzero(((scaled & _LOW32) < (1 << 32) % p).any(axis=1))
    state = bitgen.state
    state["has_uint32"] = len(halves) - n * p
    if len(int_words):
        state["uinteger"] = int(halves[-1])
    bitgen.state = state
    return (angles.reshape(n, p - 1), (scaled >> np.uint64(32)).astype(np.int64),
            int(rejected[0]) if rejected.size else None)


def _tadpole_draws(rng: np.random.Generator, p: int, n: int):
    """What n rounds of ``random(p - 1)``, ``integers(0, p)`` and
    ``integers(0, p, size=p - 1)`` draw from a PCG64 generator, as angles
    (n, p-1) and integers (n, p).  A round that holds a rejected draw (for
    p = 5, one round in about 8.6e8) is drawn by those three calls; the
    rounds before it are replayed again from the saved state."""
    bitgen = rng.bit_generator
    angles, ints = [], []
    while True:
        state = bitgen.state
        got_angles, got_ints, bad = _replay_words(bitgen, p, n)
        if bad is None:
            angles.append(got_angles)
            ints.append(got_ints)
            return np.concatenate(angles), np.concatenate(ints)
        bitgen.state = state
        got_angles, got_ints, _ = _replay_words(bitgen, p, bad)
        angles += [got_angles, rng.random(p - 1)[None]]
        k = rng.integers(0, p)
        ints += [got_ints, np.array([[k, *rng.integers(0, p, size=p - 1)]])]
        n -= bad + 1


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


def _ball_point(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """A uniform point of the complex ``dim``-ball of ``radius``: a normal
    direction, then a radius draw; normals that are all 0 give the point 0."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    nrm = np.linalg.norm(v)
    u = float(rng.random()) ** (1.0 / (2 * dim))
    return v / (nrm or 1.0) * (radius * u)


def sr_sample(params: SrParams, rng: np.random.Generator) -> SrElement:
    """One random element: unit-modulus lam, vectors uniform in the r-ball."""
    dim = params.n - 1
    radius = params.r * SR_MARGIN
    lam = cmath.exp(2j * math.pi * float(rng.random()))
    x = _ball_point(rng, dim, radius)
    y = _ball_point(rng, dim, radius)
    return SrElement(lam, tuple(x), tuple(y))


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
    params: SrParams

    def __call__(self, rng: np.random.Generator) -> SrElement:
        return sr_sample(self.params, rng)

    def batch(self, rng: np.random.Generator, count: int) -> SrBatch:
        """The next ``count`` pairs, drawn from ``rng`` as 2*count
        ``sr_sample`` calls would draw them and leaving it where they would.
        Raises ``TypeError`` for a bit generator other than PCG64, whose
        stream is not replayed."""
        _require_pcg64(rng)
        return self.assemble(*_sr_draws(rng.bit_generator, self.params.n - 1,
                                        2 * count))

    def assemble(self, turns: np.ndarray, gauss: np.ndarray,
                 radii: np.ndarray) -> SrBatch:
        """The batch of the draws of ``_sr_draws``; a vector whose normals
        are all 0 is 0, as ``_ball_point`` makes it.

        Every step rounds as its scalar twin in ``sr_sample`` does: norms
        through the same dot kernel, powers in Python floats.
        """
        dim = self.params.n - 1
        radius = self.params.r * SR_MARGIN
        v = gauss[..., :dim] + 1j * gauss[..., dim:]
        # np.linalg.norm: real and imaginary parts as strided dot products
        re, im = v.real[..., None, :], v.imag[..., None, :]
        nrm = np.sqrt(np.matmul(re, re.swapaxes(-1, -2))
                      + np.matmul(im, im.swapaxes(-1, -2)))[..., 0, 0]
        power = 1.0 / (2 * dim)
        scale = np.array([radius * u ** power for u in radii.ravel().tolist()])
        nrm = np.where(nrm, nrm, 1.0)
        vec = v / nrm[..., None] * scale.reshape(radii.shape)[..., None]
        lam = np.array([cmath.exp(2j * math.pi * u) for u in turns.tolist()])
        return SrBatch(lam, vec[:, 0], vec[:, 1])


def _sr_draws(bitgen: np.random.PCG64, dim: int, m: int):
    """What m ``sr_sample`` calls draw: the turns of lam (m,), the normals of
    x and y (m, 2, 2*dim) and their radius draws (m, 2).  Each call is
    ``random()``, ``normal(size=2*dim)``, ``random()``, ``normal(size=2*dim)``
    and ``random()``."""
    vector = [True] * (2 * dim) + [False]
    values = _pcg64_draws(bitgen, [False] + 2 * vector, m)
    rest = values[:, 1:].reshape(m, 2, 2 * dim + 1)
    return values[:, 0], rest[..., :-1], rest[..., -1]


# normal() is numpy's ziggurat: the low byte of a word picks one of 256
# layers, bit 8 the sign and bits 9-60 a magnitude, which returns at once
# when it is below the layer's KI entry (for about 98.5% of words)
_KI, _WI, _FI = _ziggurat.KI, _ziggurat.WI, _ziggurat.FI
# the same as Python numbers, for the draw-by-draw replay
_TABLES = (_KI.tolist(), _WI.tolist(), _FI.tolist())
_LOW8 = np.uint64(0xFF)
_MAG52 = np.uint64((1 << 52) - 1)


def _ziggurat_first(words: np.ndarray):
    """Layers and magnitudes of words as the first of a ``normal()`` draw."""
    return (words & _LOW8).astype(np.intp), (words >> np.uint64(9)) & _MAG52


def _ziggurat_fast(words: np.ndarray) -> np.ndarray:
    """The value x of each word as the first of a ``normal()`` draw: the
    draw itself when the word returns at once or its wedge accepts it."""
    layer, mag = _ziggurat_first(words)
    x = mag * _WI[layer]
    # bit 8 of the word is the sign; x >= 0, so or-ing it in negates x
    x.view(np.uint64)[...] |= (words & np.uint64(0x100)) << np.uint64(55)
    return x


def _unit(word) -> float:
    return (int(word) >> 11) * _WORD_TO_UNIT


def _slow_words(words: np.ndarray, start: int = 0) -> tuple[list, list]:
    """The positions p >= start of the words that do not return at once as
    the first of a ``normal()`` draw, and for each whether the draw ends at
    the next word: a wedge (layer > 0) whose test accepts x, the common
    case, for which the draw is x and ``_slow_normal`` is not needed."""
    layer, mag = _ziggurat_first(words[start:])
    p = np.flatnonzero(mag >= _KI[layer])
    layer, pos = layer[p], p + start
    x = _ziggurat_fast(words[pos])
    u = (words[np.minimum(pos + 1, len(words) - 1)] >> np.uint64(11)) * _WORD_TO_UNIT
    edge = [math.exp(t) for t in (-0.5 * x * x).tolist()]
    quick = ((layer > 0) & (pos + 1 < len(words))
             & ((_FI[layer - 1] - _FI[layer]) * u + _FI[layer] < edge))
    return pos.tolist(), quick.tolist()


def _slow_normal(words: np.ndarray, p: int) -> tuple[float, int]:
    """The ``normal()`` draw starting at a word that does not return at once,
    as numpy's ``random_standard_normal`` takes it, and the number of words
    it uses; IndexError when ``words`` ends first.

    A word of layer i > 0 falls in the layer's wedge: one more ``random()``
    u accepts x when (FI[i-1] - FI[i]) u + FI[i] < exp(-x^2/2).  Layer 0
    draws from the tail beyond R: pairs u1, u2 until yy + yy > xx^2, with
    xx = -log1p(-u1)/R and yy = -log1p(-u2), give R + xx, signed by bit 17
    of the first word.  A rejected wedge starts over at the next word.
    """
    ki, wi, fi = _TABLES
    start = p
    while True:
        w = int(words[p])
        idx, mag = w & 0xFF, (w >> 9) & 0xFFFFFFFFFFFFF
        x = -(mag * wi[idx]) if w >> 8 & 1 else mag * wi[idx]
        if mag < ki[idx]:
            return x, p + 1 - start
        if idx == 0:
            while True:
                xx = -_ziggurat.INV_R * math.log1p(-_unit(words[p + 1]))
                yy = -math.log1p(-_unit(words[p + 2]))
                p += 2
                if yy + yy > xx * xx:
                    z = _ziggurat.R + xx
                    return (-z if mag >> 8 & 1 else z), p + 1 - start
        if ((fi[idx - 1] - fi[idx]) * _unit(words[p + 1]) + fi[idx]
                < math.exp(-0.5 * x * x)):
            return x, p + 2 - start
        p += 2


def _more_words(bitgen: np.random.PCG64, words: np.ndarray, slow: list,
                quick: list):
    """``words`` with more drawn after them, and ``_slow_words``' lists
    extended over the new ones."""
    start = len(words)
    words = np.concatenate([words, bitgen.random_raw(start // 2 + 16)])
    more, more_quick = _slow_words(words, start)
    return words, slow + more, quick + more_quick


def _pcg64_draws(bitgen: np.random.PCG64, pattern: Sequence[bool],
                 repeats: int) -> np.ndarray:
    """What ``repeats`` rounds of calls draw from a PCG64 generator, replayed
    from its raw words, as an array (repeats, len(pattern)): a round makes one
    ``normal()`` call per True entry of ``pattern`` and one ``random()`` call
    per False entry, in order.  Leaves the generator where the calls leave
    it, 32-bit buffer included.

    ``random()`` takes one word.  ``normal()`` takes one unless its first
    word misses the ziggurat's fast test.  Only those words are walked here,
    each one the start of a draw only under the words the walk has added so
    far; a wedge that accepts adds one word, and ``_slow_normal`` replays
    the rest.  Every call's first word is then gathered through one
    cumulative sum of the added words.
    """
    size = len(pattern)
    n = size * repeats
    state = bitgen.state
    words = bitgen.random_raw(n + n // 32)
    slow, quick = _slow_words(words)
    added = np.zeros(n, dtype=np.int64)
    replayed = {}
    # words added so far, the next call, the next slow word
    off = call = j = 0
    while True:
        if j == len(slow):
            if n + off <= len(words):
                break
            words, slow, quick = _more_words(bitgen, words, slow, quick)
            continue
        k = slow[j] - off
        if k >= n:
            break
        j += 1
        if k < call or not pattern[k % size]:
            continue
        if quick[j - 1]:
            used = 2
        else:
            try:
                replayed[k], used = _slow_normal(words, slow[j - 1])
            except IndexError:
                words, slow, quick = _more_words(bitgen, words, slow, quick)
                j -= 1
                continue
        added[k] = used - 1
        off += used - 1
        call = k + 1
    drawn = words[np.arange(n) + np.cumsum(added) - added].reshape(repeats, size)
    out = (drawn >> np.uint64(11)) * _WORD_TO_UNIT
    normal = np.asarray(pattern, dtype=bool)
    out[:, normal] = _ziggurat_fast(drawn[:, normal])
    out.ravel()[list(replayed)] = list(replayed.values())
    # normal() returns 0.0 + 1.0 * z, which turns -0.0 into 0.0
    out += 0.0
    has, held = state["has_uint32"], state["uinteger"]
    bitgen.state = state
    bitgen.advance(n + off)  # advance empties the 32-bit buffer
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has, held
    bitgen.state = state
    return out


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
