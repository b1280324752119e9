"""Defect measurement: how far products stray from the product of spectra.

For unitary matrices the *asm defect* of an ordered pair (A, B) is

    max over gamma in sigma(AB) of  min over (alpha, beta) in
    sigma(A) x sigma(B) of  |arg(alpha beta / gamma)| / (2 pi),

computed exactly (rational arithmetic over a common denominator) whenever
all three spectra are exact, and in floats otherwise.  Spectra enter as
sets: multiplicities never change a defect.

For general matrices the *sub defect* replaces the argument distance by the
chord |gamma - alpha beta| scaled by the spectral radii, with zero
eigenvalues left out on both sides (the convention is recorded in reports).

``measure_asm`` takes the maximum over all ordered pairs of a complete
closure; ``measure_asm_sampled`` and ``measure_sub`` stream sampled pairs
from a seeded generator.  All of them produce an ``AsmReport`` that
serializes to JSON and round-trips.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Union

import numpy as np

from .circle import UnitPoint, _frac_str, _point_from_json, _point_to_json
from .constructions import (
    SrBatch,
    SrElement,
    TadpoleSampler,
    _cmul,
    _mod1,
    sr_pair_gamma,
)
from .errors import (
    ClosureInvariantError,
    IncompleteClosureError,
    InvalidParamsError,
    ZeroSpectralRadiusError,
    _complex,
    _loading,
    _typed,
    _typed_items,
)
from .groups import GroupClosure
from .linalg import (
    Dense,
    Spectrum,
    UMatrix,
    _dense_spectra,
    _require_unitary,
    general_spectrum,
    matmul,
    matrix_to_json,
)

__all__ = [
    "Histogram",
    "PairDefect",
    "AsmReport",
    "pair_defect",
    "pair_sub_defect",
    "measure_asm",
    "measure_asm_sampled",
    "measure_sub",
    "conversion_check",
]

DEFAULT_BINS = 20
SUB_ZERO_TOL = 1e-9

# Pool startup dwarfs the work below this many pairs, so small jobs stay
# in-process regardless of the requested worker count.  Medians of 31
# in-process runs on 2 vCPUs, sizes and worker order interleaved,
# --workers 1 against 2 (float draws): p = 5 tadpoles at 16,000 pairs
# 0.131 s against 0.129 s, at 20,000 0.177 s against 0.156 s, at 24,000
# 0.206 s against 0.167 s; sr at 16,000 0.094 s against 0.110 s, at 20,000
# 0.141 s against 0.127 s, at 24,000 0.160 s against 0.135 s.  Both break
# even between 16,000 and 20,000 pairs (21 other rounds: tadpoles even at
# 12,000, sr 4% behind at 20,000; both ahead at 24,000 to 64,000), so one
# floor serves both.
PARALLEL_MIN_BATCHED_PAIRS = 20_000

# Sampled runs are split into a fixed number of logical chunks, each with its
# own spawned seed stream, so the drawn pairs do not depend on how many
# workers execute the chunks.
SAMPLE_CHUNKS = 64

# Pairs of one stacked group of batched chunks, scored by one kernel call.
# Medians of 21 in-process runs on 2 vCPUs, three rounds each: p = 5
# tadpoles at 5,000 pairs take 0.044-0.064 s with groups of 400 pairs,
# 0.045-0.058 s with 800 and 0.049-0.053 s with 1,600, and sr at 12,000
# pairs 0.068-0.084, 0.064-0.074 and 0.078-0.085 s; against 800, peak RSS
# is equal at 400, 0.5 MB higher at 1,600, and 3 MB (tadpoles) or 6.5 MB
# (sr) higher when a whole run is one group.
SAMPLE_GROUP_PAIRS = 800


# ---------------------------------------------------------------------------
# defect cores

# Elements of one (pairs, |sigma(AB)|, |sigma(A)||sigma(B)|) block of arc
# distances: larger batches go through the kernel block by block, so its
# transient memory stays under 1 MB whatever the batch size.  One call of
# ``_gap_defects`` allocates its block buffers once and reuses them for
# every block: a 256 KB block lies above glibc's 128 KB mmap threshold, so
# a fresh one would be mapped, faulted in and unmapped block by block.
_KERNEL_BLOCK = 1 << 15


def _gap_buffers(m: int, sa: np.ndarray, sb: np.ndarray, sab: np.ndarray) -> tuple:
    """Buffers of ``_arc_gaps`` for up to m pairs of angles shaped and typed
    as ``sa``, ``sb`` and ``sab``: products and their floors (m, na*nb),
    distances d and scale - d (m, nab, na*nb)."""
    prods = np.empty((m, sa.shape[1] * sb.shape[1]), dtype=sab.dtype)
    diff = np.empty((m, sab.shape[1], prods.shape[1]), dtype=sab.dtype)
    return prods, np.empty_like(prods), diff, np.empty_like(diff)


def _arc_gaps(sa: np.ndarray, sb: np.ndarray, sab: np.ndarray, scale=1.0,
              buffers: Optional[tuple] = None) -> np.ndarray:
    """Arc distance from every gamma to every product alpha*beta, batched.

    ``sa (m, |sigma(A)|)``, ``sb (m, |sigma(B)|)`` and ``sab (m, |sigma(AB)|)``
    hold angles as multiples of 1 / ``scale``: float turns at scale 1.0, or
    integer numerators (int64 while 2 * scale fits, Python ints otherwise)
    at their common denominator; row t is one pair.  Returns
    ``min(d, scale - d)`` for ``d = |gamma - (alpha + beta) % scale|`` as an
    array ``(m, |sigma(AB)|, |sigma(A)||sigma(B)|)``, written into the
    leading rows of ``buffers`` (from ``_gap_buffers``; fresh ones if None).
    """
    m, na, nb = len(sa), sa.shape[1], sb.shape[1]
    prods, floor, diff, flip = (b[:m] for b in buffers or _gap_buffers(m, sa, sb, sab))
    np.add(sa[:, :, None], sb[:, None, :], out=prods.reshape(m, na, nb))
    if prods.dtype.kind == "f":
        _mod1(prods, out=prods, floor=floor)
    else:
        np.remainder(prods, scale, out=prods)
    np.subtract(sab[:, :, None], prods[:, None, :], out=diff)
    np.abs(diff, out=diff)
    np.subtract(scale, diff, out=flip)
    return np.minimum(diff, flip, out=diff)


def _gap_defects(sa: np.ndarray, sb: np.ndarray, sab: np.ndarray,
                 scale=1.0) -> np.ndarray:
    """Defects of m pairs given as angle arrays (see ``_arc_gaps``), block by
    block through one set of buffers, in the angles' dtype."""
    m, nab = sab.shape
    na, nb = sa.shape[1], sb.shape[1]
    step = max(1, min(m, _KERNEL_BLOCK // (nab * na * nb)))
    buffers = _gap_buffers(step, sa, sb, sab)
    out = np.empty(m, dtype=sab.dtype)
    for lo in range(0, m, step):
        part = slice(lo, lo + step)
        out[part] = _arc_gaps(sa[part], sb[part], sab[part], scale,
                              buffers).min(axis=2).max(axis=1)
    return out


def _defect_exact(sa, sb, sab, scale):
    """Exact defect of one triple of integer angle numerators mod ``scale``
    on the grid of ``_arc_gaps``, with its witnesses: (defect numerator,
    gamma, alpha, beta) for the first gamma attaining the maximum, its
    nearest product (the one above gamma on a tie) and the first (alpha,
    beta) in row-major order giving that product."""
    dtype = np.int64 if 2 * scale <= np.iinfo(np.int64).max else object
    sa, sb, sab = (np.array(s, dtype=dtype) for s in (sa, sb, sab))
    dist = _arc_gaps(sa[None], sb[None], sab[None], scale)[0]
    per_g = dist.min(axis=1)
    gi = int(per_g.argmax())
    up = np.remainder(np.add.outer(sa, sb).reshape(-1) - sab[gi], scale)
    ai, bi = divmod(int(np.lexsort((up, dist[gi]))[0]), len(sb))
    return int(per_g[gi]), int(sab[gi]), int(sa[ai]), int(sb[bi])


def _exact_defects(sa: np.ndarray, sb: np.ndarray, sab: np.ndarray,
                   scale: int) -> np.ndarray:
    """Exact defect numerators of m triples: ``_gap_defects`` at ``scale``,
    found by a sorted-neighbour search instead of the full grid.

    ``sa (m, wa)``, ``sb (m, wb)`` and ``sab (m, wab)`` are int64 angle
    numerators mod ``scale``; row t is one triple, padded with repeats of an
    entry of its row (repeats change neither the min nor the max).  Each
    block sorts its rows of products (a + b) % scale, shifts row r by
    r * 2 * scale so that one ``searchsorted`` over the flattened block finds
    every gamma's circular neighbours, and takes the arc distance
    min(t, scale - t) to the nearer one.  Sums a + b lie in [0, 2 * scale)
    and gaps gamma - neighbour in (-scale, scale), so a wrap-min on uint64
    views, min(u, u - scale) and min(t, t + scale), reduces each mod
    ``scale`` without a division.  When even one shifted row would not fit
    in int64, all rows go through ``_gap_defects`` at once as Python ints.
    """
    m = len(sab)
    width = sa.shape[1] * sb.shape[1]
    step = max(1, _KERNEL_BLOCK // width)
    # shifted values stay below rows * 2 * scale, sums (a + b) below 2 * scale
    step = min(step, np.iinfo(np.int64).max // (2 * scale))
    out = np.empty(m, dtype=np.int64)
    if step < 1:
        out[:] = _gap_defects(sa.astype(object), sb.astype(object),
                              sab.astype(object), scale)
        return out
    for lo in range(0, m, step):
        part = slice(lo, lo + step)
        rows = np.arange(len(sab[part]), dtype=np.int64)[:, None]
        prods = np.add(sa[part, :, None], sb[part, None, :]).reshape(len(rows), width)
        u = prods.view(np.uint64)
        np.minimum(u, u - scale, out=u)
        prods.sort(axis=1)
        shift = rows * (2 * scale)
        prods += shift
        gam = sab[part] + shift
        # each gamma's upper neighbour in its row and the entry before it,
        # both wrapping round the row
        flat, start = prods.reshape(-1), rows * width
        hi = np.searchsorted(flat, gam) - start
        near = np.stack((flat[start + hi % width], flat[start + (hi - 1) % width]))
        t = (gam - near).view(np.uint64)
        np.minimum(t, t + scale, out=t)
        out[part] = np.minimum(t, scale - t).min(axis=0).max(axis=1)
    return out


def _chords(gamma: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
            scale) -> np.ndarray:
    """|gamma - alpha beta| / ``scale`` over broadcast complex arrays, rounded
    as scalars round (the product written out, moduli by ``np.hypot``); an
    eigenvalue that is not finite, or that overflows, has no defect."""
    gap = gamma - _cmul(alpha, beta)
    t = np.hypot(gap.real, gap.imag) / scale
    if not np.isfinite(t).all():
        raise InvalidParamsError("chord defect is not finite; every eigenvalue "
                                 "and their products must be finite")
    return t


def _chord_defects(alpha: np.ndarray, beta: np.ndarray,
                   gamma: np.ndarray) -> np.ndarray:
    """Chord defects |gamma - alpha beta| / (|alpha| |beta|) of m pairs of
    rank-one elements given their nonzero eigenvalues as complex arrays (m,):
    ``pair_sub_defect`` batched."""
    ra = np.hypot(alpha.real, alpha.imag)
    rb = np.hypot(beta.real, beta.imag)
    if not (ra.all() and rb.all()):
        raise ZeroSpectralRadiusError("spectral radius vanishes; defect undefined")
    return _chords(gamma, alpha, beta, ra * rb)


def _defect_float(sa: np.ndarray, sb: np.ndarray, sab: np.ndarray):
    """Float defect of one pair with its witness indices: the batch of one."""
    diff = _arc_gaps(sa[None, :], sb[None, :], sab[None, :])[0]
    per_g = diff.min(axis=1)
    gi = int(per_g.argmax())
    pj = int(diff[gi].argmin())
    ai, bi = divmod(pj, len(sb))
    return float(per_g[gi]), gi, ai, bi


# ---------------------------------------------------------------------------
# result containers

@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    counts: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"edges": list(self.edges), "counts": list(self.counts)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Histogram":
        with _loading("histogram"):
            return cls(tuple(map(float, _typed_items(d, "edges", (int, float)))),
                       _typed_items(d, "counts", int))


def _make_histogram(values: np.ndarray, bins: int, vmax: Optional[float],
                    weights: Optional[np.ndarray] = None) -> Histogram:
    """Histogram of ``values``; integer ``weights`` count each value that
    many times."""
    if vmax is None:
        vmax = float(values.max()) if values.size and float(values.max()) > 0 else 1.0
    counts, edges = np.histogram(values, bins=bins, range=(0.0, vmax),
                                 weights=weights)
    return Histogram(tuple(float(e) for e in edges), tuple(int(c) for c in counts))


def _eig_json(p) -> dict:
    """A unit-circle point, or a chord report's complex eigenvalue."""
    if isinstance(p, UnitPoint):
        return _point_to_json(p)
    z = complex(p)
    return {"re": z.real, "im": z.imag}


def _eig_from_json(d: dict):
    """Inverse of ``_eig_json``; a part that is not a JSON number is a
    ``TypeError``, a non-finite one a ``ValueError``."""
    if "re" in d:
        z = _complex(d["re"], d["im"])
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"non-finite eigenvalue {d!r}")
        return z
    return _point_from_json(d)


def _frac_parse(s: Optional[str]) -> Optional[Fraction]:
    return None if s is None else Fraction(s)


@dataclass
class PairDefect:
    """One measured pair with enough context to replot it."""

    kind: str
    defect: float
    defect_exact: Optional[Fraction]
    pair: tuple
    witness_gamma: object
    witness_alpha: object
    witness_beta: object
    spectrum_a: tuple
    spectrum_b: tuple
    spectrum_ab: tuple
    matrix_a: Optional[dict] = None
    matrix_b: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "defect": self.defect,
            "defect_exact": _frac_str(self.defect_exact),
            "pair": list(self.pair),
            "witness": {
                "gamma": _eig_json(self.witness_gamma),
                "alpha": _eig_json(self.witness_alpha),
                "beta": _eig_json(self.witness_beta),
            },
            "spectra": {
                "a": [_eig_json(p) for p in self.spectrum_a],
                "b": [_eig_json(p) for p in self.spectrum_b],
                "ab": [_eig_json(p) for p in self.spectrum_ab],
            },
            "matrix_a": self.matrix_a,
            "matrix_b": self.matrix_b,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PairDefect":
        with _loading("pair"):
            w = d["witness"]
            sp = d["spectra"]
            return cls(
                kind=_typed(d, "kind", str),
                defect=float(_typed(d, "defect", (int, float))),
                defect_exact=_frac_parse(_typed(d, "defect_exact", str, nullable=True)),
                pair=tuple(_typed(d, "pair", list)),
                witness_gamma=_eig_from_json(w["gamma"]),
                witness_alpha=_eig_from_json(w["alpha"]),
                witness_beta=_eig_from_json(w["beta"]),
                spectrum_a=tuple(_eig_from_json(p) for p in sp["a"]),
                spectrum_b=tuple(_eig_from_json(p) for p in sp["b"]),
                spectrum_ab=tuple(_eig_from_json(p) for p in sp["ab"]),
                matrix_a=d.get("matrix_a"),
                matrix_b=d.get("matrix_b"),
            )


@dataclass
class AsmReport:
    kind: str
    mode: str
    bound: str
    epsilon: float
    epsilon_exact: Optional[Fraction]
    exact: bool
    pair_total: int
    sample_count: Optional[int]
    seed: Optional[int]
    group_order: Optional[int]
    worst: Optional[PairDefect]
    histogram: Histogram
    gamma_convention: Optional[str] = None
    pair_rows: Optional[list] = None

    def to_json_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "mode": self.mode,
            "bound": self.bound,
            "epsilon": self.epsilon,
            "epsilon_exact": _frac_str(self.epsilon_exact),
            "exact": self.exact,
            "pair_total": self.pair_total,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "group_order": self.group_order,
            "worst": None if self.worst is None else self.worst.to_json_dict(),
            "histogram": self.histogram.to_json_dict(),
            "gamma_convention": self.gamma_convention,
        }
        if self.pair_rows is not None:
            d["pair_rows"] = [list(r) for r in self.pair_rows]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "AsmReport":
        """Inverse of ``to_json_dict``; raises ``MalformedJsonError`` on input
        without that structure."""
        with _loading("report"):
            return cls(
                kind=_typed(d, "kind", str),
                mode=_typed(d, "mode", str),
                bound=_typed(d, "bound", str),
                epsilon=float(_typed(d, "epsilon", (int, float))),
                epsilon_exact=_frac_parse(_typed(d, "epsilon_exact", str, nullable=True)),
                exact=_typed(d, "exact", bool),
                pair_total=_typed(d, "pair_total", int),
                sample_count=_typed(d, "sample_count", int, nullable=True),
                seed=_typed(d, "seed", int, nullable=True),
                group_order=_typed(d, "group_order", int, nullable=True),
                worst=None if d["worst"] is None else PairDefect.from_json_dict(d["worst"]),
                histogram=Histogram.from_json_dict(d["histogram"]),
                gamma_convention=(_typed(d, "gamma_convention", str, nullable=True)
                                  if "gamma_convention" in d else None),
                pair_rows=[tuple(r) for r in d["pair_rows"]] if "pair_rows" in d else None,
            )


# ---------------------------------------------------------------------------
# single pairs

def pair_defect(a: UMatrix, b: UMatrix, pair: tuple = ("explicit",),
                with_matrices: bool = True) -> PairDefect:
    """Asm defect of the ordered pair (a, b) with deterministic witnesses."""
    return _spectra_pair(a.spectrum(), b.spectrum(), matmul(a, b).spectrum(),
                         pair, (a, b) if with_matrices else None)


def _spectra_pair(sa: Spectrum, sb: Spectrum, sab: Spectrum, pair: tuple,
                  matrices: Optional[tuple] = None) -> PairDefect:
    """``pair_defect`` of the spectra sigma(A), sigma(B) and sigma(AB), with
    the matrices (A, B) when given; exact when all three spectra are.  An
    exhaustive scan passes the class representatives' spectra it scored."""
    if sa.exact and sb.exact and sab.exact:
        scale = math.lcm(*(s.common_denominator() for s in (sa, sb, sab)))
        d, g, x, y = _defect_exact(
            sa.int_angles(scale), sb.int_angles(scale), sab.int_angles(scale), scale)
        fr = Fraction(d, scale)
        d, wit = float(fr), [UnitPoint.exact(v, scale) for v in (g, x, y)]
    else:
        d, gi, ai, bi = _defect_float(sa.angles(), sb.angles(), sab.angles())
        fr, wit = None, [sab.points[gi], sa.points[ai], sb.points[bi]]
    return PairDefect(
        kind="asm",
        defect=d,
        defect_exact=fr,
        pair=pair,
        witness_gamma=wit[0],
        witness_alpha=wit[1],
        witness_beta=wit[2],
        spectrum_a=sa.points,
        spectrum_b=sb.points,
        spectrum_ab=sab.points,
        matrix_a=None if matrices is None else matrix_to_json(matrices[0]),
        matrix_b=None if matrices is None else matrix_to_json(matrices[1]),
    )


def _nonzero_eigs(x):
    if isinstance(x, SrElement):
        return [x.nonzero_eigenvalue()], x.spectral_radius()
    eigs = general_spectrum(np.asarray(x, dtype=complex))
    rho = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    keep = [complex(z) for z in eigs if abs(z) > SUB_ZERO_TOL]
    return keep, rho


def _sub_dense(x):
    return x.matrix() if isinstance(x, SrElement) else np.asarray(x, dtype=complex)


def pair_sub_defect(a, b, pair: tuple = ("explicit",),
                    with_matrices: bool = True) -> PairDefect:
    """Chord defect |gamma - alpha beta| / (rho(a) rho(b)) over the
    eigenvalues of modulus above ``SUB_ZERO_TOL``; closed form when both
    elements are rank-one samples."""
    alphas, ra = _nonzero_eigs(a)
    betas, rb = _nonzero_eigs(b)
    if ra == 0.0 or rb == 0.0:
        raise ZeroSpectralRadiusError("spectral radius vanishes; defect undefined")
    if isinstance(a, SrElement) and isinstance(b, SrElement):
        gammas = [sr_pair_gamma(a, b)]
    else:
        gammas, _ = _nonzero_eigs(_sub_dense(a) @ _sub_dense(b))
    # one row per gamma, one column per (alpha, beta) in row-major order
    g, al, be = (np.array(z, dtype=complex) for z in (gammas, alphas, betas))
    t = _chords(g[:, None], np.repeat(al, be.size), np.tile(be, al.size),
                ra * rb)
    best, wit = 0.0, (0j, 0j, 0j)
    if t.size:
        per_g = t.min(axis=1)
        gi = int(per_g.argmax())
        ai, bi = divmod(int(t[gi].argmin()), be.size)
        best = float(per_g[gi])
        wit = tuple(complex(z) for z in (gammas[gi], alphas[ai], betas[bi]))
    return PairDefect(
        kind="sub",
        defect=best,
        defect_exact=None,
        pair=pair,
        witness_gamma=wit[0],
        witness_alpha=wit[1],
        witness_beta=wit[2],
        spectrum_a=tuple(alphas),
        spectrum_b=tuple(betas),
        spectrum_ab=tuple(gammas),
        matrix_a=matrix_to_json_like(a) if with_matrices else None,
        matrix_b=matrix_to_json_like(b) if with_matrices else None,
    )


def matrix_to_json_like(x) -> dict:
    return Dense(_sub_dense(x), unitary=False).to_json_dict()


# ---------------------------------------------------------------------------
# worker helpers (module level so process pools can pickle them)

def _map_chunks(fn, chunk_args: list, workers: int) -> list:
    """``fn`` over the tasks, in a pool of at most one process per task: a
    forking pool starts all of its processes at the first submit."""
    workers = min(workers, len(chunk_args))
    if workers <= 1:
        return [fn(c) for c in chunk_args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunk_args))


def _tadpole_batch_defects(drawn) -> np.ndarray:
    if drawn.exact:
        return _exact_defects(*drawn.spectra(), drawn.scale) / drawn.scale
    return _gap_defects(*drawn.spectra())


def _sr_batch_defects(drawn) -> np.ndarray:
    return _chord_defects(*drawn.eigenvalues())


def _sampled_group(args):
    """Draw a group of consecutive (count, seed sequence) chunks by the
    sampler's ``batch``, each from its own seed, and score them stacked with
    one ``kernel`` call: (defects, the first maximum's pair as a one-row
    batch, so no matrix is built for a pair that may not win the run)."""
    sampler, chunks, kernel = args
    drawn = [sampler.batch(np.random.default_rng(seed_seq), count)
             for count, seed_seq in chunks]
    drawn = type(drawn[0]).concat(drawn)
    values = kernel(drawn)
    return values, drawn.take(int(values.argmax()))


def _chunk_sizes(total: int, parts: int) -> list[int]:
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


# ---------------------------------------------------------------------------
# measurements

def _unique_codes(codes: np.ndarray, bound: int):
    """``np.unique(codes, return_inverse=True)`` of int codes in [0, bound):
    through a table of ``bound`` flags and its running count when ``bound``
    is at most ``codes.size``, by a sort otherwise."""
    if bound > codes.size:
        return np.unique(codes, return_inverse=True)
    seen = np.zeros(bound, dtype=bool)
    seen[codes] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[codes]


def _class_rows(closure: GroupClosure, spectra: list, class_of: np.ndarray,
                rows: np.ndarray, sizes: np.ndarray, kernel, negate,
                collect_pairs: bool):
    """Defects of the representative rows ``rows``: the unique
    (sigma(A), sigma(B), sigma(AB)) triples, one per symmetry orbit, go
    through one ``kernel`` call.
    ``spectra`` holds the representatives' spectra as tuples of angles, int
    numerators for an exact closure (``kernel`` is ``_exact_defects`` at
    their scale) and float turns for a dense one (``_gap_defects``);
    ``class_of`` gives each element's class and ``sizes`` each class's size.
    ``negate`` maps a spectrum to its negation, the spectrum of the
    inverses.  sigma(BA) = sigma(AB) and B^-1 A^-1 = (AB)^-1, and negation
    keeps arc distances, so (a, b, c), (b, a, c), (-b, -a, -c) and
    (-a, -b, -c) have one defect: only the least code of each orbit is
    scored.  A dense closure's ``negate`` is the identity, since -x mod 1
    rounds, and its orbits are the swaps alone, which the float kernel
    scores bit for bit alike.
    Returns (the unique triples' defects, each one's pair count: its row
    entries weighted by their class sizes, the first row-major (r, j) whose
    triple attains the maximum, full grid or None).
    """
    # distinct spectra, numbered in first-seen order
    rep_ids: dict = {}
    class_sid = np.array([rep_ids.setdefault(s, len(rep_ids)) for s in spectra],
                         dtype=np.int64)
    uniq_reps = list(rep_ids)
    neg = [rep_ids.get(negate(s)) for s in uniq_reps]
    if None in neg:
        raise ClosureInvariantError(
            "a class spectrum's negation is no class spectrum; the closure "
            "is not closed under inverses")
    neg = np.array(neg, dtype=np.int64)
    sid = class_sid[class_of]
    ns = len(uniq_reps)

    def code(a, b, ab):
        return (a * ns + b) * ns + ab

    def least_swap(a, b, ab):
        return np.minimum(code(a, b, ab), code(b, a, ab))

    def ids(codes):
        a, rem = np.divmod(codes, ns * ns)
        return (a, *np.divmod(rem, ns))

    tri = code(class_sid[:, None], sid[None, :], sid[rows])
    uniq_tri, inv = _unique_codes(tri.reshape(-1), ns ** 3)
    # the least code of each orbit: of the triple and of its negation, each
    # with and without the swap
    ia, ib, iab = ids(uniq_tri)
    orbits, back = _unique_codes(np.minimum(least_swap(ia, ib, iab),
                                            least_swap(neg[ia], neg[ib], neg[iab])),
                                 ns ** 3)
    # each distinct spectrum padded to one width with repeats of its first angle
    width = max(len(s) for s in uniq_reps)
    padded = np.array([s + s[:1] * (width - len(s)) for s in uniq_reps],
                      dtype=np.int64 if closure.exact else float)
    tri_defects = kernel(*(padded[x] for x in ids(orbits)))[back]
    counts = np.bincount(inv, weights=np.repeat(sizes, rows.shape[1]))
    first = int((tri_defects == tri_defects.max())[inv].argmax())
    grid = None
    if collect_pairs:
        full = code(sid[:, None], sid[None, :], sid[closure.cayley_table()])
        grid = tri_defects[np.searchsorted(uniq_tri, full)]
    return tri_defects, counts, divmod(first, rows.shape[1]), grid


def _negated(angles: tuple, scale: int) -> tuple:
    """The int angles of the inverses' spectrum: each -x mod ``scale``."""
    return tuple(sorted((-x) % scale for x in angles))


def _exhaustive_report(worst, n, values, grid, bins, vmax, collect_pairs,
                       eps_exact=None, weights=None, gamma_convention=None):
    """Report of a scan over all n x n ordered pairs; ``grid[i, j]`` is the
    defect of pair (i, j), ``values`` (with ``weights``) feed the histogram."""
    rows = None
    if collect_pairs:
        rows = [(i, j, float(grid[i, j])) for i in range(n) for j in range(n)]
    return AsmReport(
        kind=worst.kind,
        mode="exhaustive",
        bound="attained",
        epsilon=float(values.max()) if eps_exact is None else float(eps_exact),
        epsilon_exact=eps_exact,
        exact=eps_exact is not None,
        pair_total=n * n,
        sample_count=None,
        seed=None,
        group_order=n,
        worst=worst,
        histogram=_make_histogram(values, bins, vmax, weights),
        gamma_convention=gamma_convention,
        pair_rows=rows,
    )


def measure_asm(
    closure: GroupClosure,
    bins: int = DEFAULT_BINS,
    collect_pairs: bool = False,
) -> AsmReport:
    """Exhaustive maximum defect over all ordered pairs of a complete closure.

    A pair's defect depends only on sigma(A), sigma(B) and sigma(AB), and a
    spectrum is a class function, so one process scores one Cayley row per
    conjugacy class, each spectrum its class representative's: the unique
    triples go through one kernel call, in integers for exact closures and
    in floats for dense ones (off an all-pairs scan only by rounding), one
    triple per symmetry orbit (``_class_rows``).  An exact closure reads
    its k representatives' int angles off their monomial rows
    (``_MonomialCode.int_spectra``) and builds ``Spectrum`` objects only for
    the worst pair's classes.  A dense closure eigensolves exactly its k
    representatives, stacked (``_dense_spectra``), after every element
    passes ``Dense.spectrum``'s unitarity check.  The histogram takes each
    unique triple once, weighted by its pairs: its row entries times their
    class sizes.  Representatives are class minima, so the first maximum is
    the full row-major grid's.  ``worst`` is built from the spectra of its
    three classes the scan scored, so its defect is ``epsilon`` bit for bit.
    """
    if not closure.complete:
        raise IncompleteClosureError(
            "closure is incomplete; exhaustive measurement would only be a "
            "lower bound — use the sampled mode instead")
    elements = closure.elements
    n = len(elements)
    reps, class_of, sizes = np.unique(closure.conjugacy_labels(),
                                      return_inverse=True, return_counts=True)
    rows = closure.cayley_rows(reps)
    if closure.exact:
        angles, scale = elements.code.int_spectra(elements.rows[reps])
        kernel = partial(_exact_defects, scale=scale)
        negate = partial(_negated, scale=scale)

        def spectrum(c):
            return elements[int(reps[c])].spectrum()
    else:
        _require_unitary(elements.rows)
        spectra = _dense_spectra(elements.rows[reps])
        angles = [tuple(s.angles().tolist()) for s in spectra]
        # -x mod 1 rounds, so a dense run's orbits are the swaps alone
        scale, kernel, spectrum, negate = (1, _gap_defects, spectra.__getitem__,
                                           lambda s: s)
    tri_defects, counts, (r, j), grid = _class_rows(
        closure, angles, class_of, rows, sizes, kernel, negate, collect_pairs)
    i = int(reps[r])
    classes = (r, class_of[j], class_of[rows[r, j]])
    worst = _spectra_pair(*map(spectrum, classes), ("elements", i, j),
                          (elements[i], elements[j]))
    return _exhaustive_report(
        worst, n, tri_defects.astype(float) / scale,
        None if grid is None else grid.astype(float) / scale, bins, 0.5,
        collect_pairs,
        eps_exact=Fraction(int(tri_defects.max()), scale) if closure.exact else None,
        weights=counts)


def _measure_sampled(sampler, pair_count, seed, workers, bins, collect_pairs,
                     kernel, worst_of, vmax, gamma_convention=None):
    """The seeded sampled run of both the argument and the chord defect.

    Chunk k of ``SAMPLE_CHUNKS`` fixed chunks is drawn by the sampler's
    ``batch`` (a ``TypeError`` if it has none) from its own spawned seed, so
    the pairs do not depend on ``workers``.  Groups of consecutive chunks of
    at most ``SAMPLE_GROUP_PAIRS`` pairs (or one chunk, when a chunk alone is
    larger) are scored by one ``kernel`` call each, in the pool from
    ``PARALLEL_MIN_BATCHED_PAIRS`` pairs.  ``worst_of`` builds the run's
    first maximum, the only pair built as matrices; the report is exact when
    its defect is.  ``vmax`` tops the histogram (None: the largest defect).
    """
    if not hasattr(sampler, "batch"):
        raise TypeError(f"{sampler!r} has no batch to draw the pairs with")
    if pair_count < 1:
        raise ValueError("need at least one pair")
    sizes = _chunk_sizes(pair_count, SAMPLE_CHUNKS)
    chunks = list(zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))))
    per = max(1, SAMPLE_GROUP_PAIRS // sizes[0])
    tasks = [(sampler, chunks[lo:lo + per], kernel)
             for lo in range(0, len(chunks), per)]
    parts = _map_chunks(_sampled_group, tasks,
                        workers if pair_count >= PARALLEL_MIN_BATCHED_PAIRS else 1)
    values = np.concatenate([p[0] for p in parts])
    # the first maximum lies in the part whose end is the first one past it
    best_idx = int(values.argmax())
    ends = np.cumsum([len(p[0]) for p in parts])
    best = parts[int(np.searchsorted(ends, best_idx, side="right"))][1]
    worst = worst_of(*best.pair(0), pair=("sampled", best_idx))
    rows = [(int(t), -1, float(v)) for t, v in enumerate(values)] if collect_pairs else None
    return AsmReport(
        kind=worst.kind,
        mode="sampled",
        bound="lower",
        epsilon=float(values.max()),
        epsilon_exact=worst.defect_exact,
        exact=worst.defect_exact is not None,
        pair_total=pair_count,
        sample_count=pair_count,
        seed=seed,
        group_order=None,
        worst=worst,
        histogram=_make_histogram(values, bins, vmax),
        gamma_convention=gamma_convention,
        pair_rows=rows,
    )


def measure_asm_sampled(
    sampler: TadpoleSampler,
    pair_count: int,
    seed: int,
    workers: int = 1,
    bins: int = DEFAULT_BINS,
    collect_pairs: bool = False,
) -> AsmReport:
    """Sampled lower bound on the defect: draws pair_count independent pairs
    through the seeded sampler's ``batch``, exactly when the sampler is
    exact.  The seed space is split deterministically into spawned streams,
    so the worker count does not change the pairs."""
    return _measure_sampled(sampler, pair_count, seed, workers, bins,
                            collect_pairs, _tadpole_batch_defects, pair_defect,
                            vmax=0.5)


def measure_sub(
    source,
    pair_count: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    bins: int = DEFAULT_BINS,
    collect_pairs: bool = False,
) -> AsmReport:
    """Sub defect over a finite element list (exhaustive ordered pairs) or a
    seeded sampler (pair_count pairs).  Zero eigenvalues (modulus at most
    ``SUB_ZERO_TOL``) are excluded; the report says so."""
    if callable(source):
        if pair_count is None or seed is None:
            raise ValueError("sampled mode needs pair_count and seed")
        return _measure_sampled(source, pair_count, seed, workers, bins,
                                collect_pairs, _sr_batch_defects,
                                pair_sub_defect,
                                vmax=None, gamma_convention="nonzero")
    elements = list(source)
    n = len(elements)
    if n == 0:
        raise ValueError("empty element list")
    if all(isinstance(e, SrElement) for e in elements):
        # pair i * n + j is (elements[i], elements[j]), A then B
        grid = np.indices((n, n)).reshape(2, -1).T.ravel()
        base = SrBatch.of(elements)
        values = _sr_batch_defects(SrBatch(base.lam[grid], base.row[grid],
                                           base.col[grid]))
    else:
        values = np.empty(n * n, dtype=float)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                values[i * n + j] = pair_sub_defect(
                    a, b, with_matrices=False).defect
    flat = int(values.argmax())
    i, j = divmod(flat, n)
    worst = pair_sub_defect(elements[i], elements[j], pair=("elements", i, j))
    return _exhaustive_report(worst, n, values, values.reshape(n, n), bins,
                              None, collect_pairs, gamma_convention="nonzero")


def conversion_check(eps: Union[Fraction, float]):
    """Both conversion factors for a measured level.

    An eps-level in argument units guarantees chord level 2*pi*eps; a chord
    level eps guarantees argument level eps/2.  Returns ``(2*pi*eps, eps/2)``
    with the second entry exact when the input is a Fraction.
    """
    sub_bound = 2.0 * math.pi * float(eps)
    asm_bound = eps / 2 if isinstance(eps, Fraction) else float(eps) / 2.0
    return sub_bound, asm_bound
