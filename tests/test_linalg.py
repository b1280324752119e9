"""Structured matrices: closed-form spectra against the dense eigensolver."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_fuzz import JSON_VALUES, json_paths, replaced

from specmul.circle import ONE, RationalAngle, UnitPoint, _float_circle_distance
from specmul import linalg
from specmul.errors import (
    DimensionMismatchError,
    MalformedJsonError,
    NonUnitaryError,
    SpecmulError,
)
from specmul.linalg import (
    BlockDiag,
    Dense,
    Diagonal,
    MonomialCycle,
    Spectrum,
    block_diag,
    eigensolve_dense,
    general_spectrum,
    identity_like,
    match_spectra,
    matmul,
    matrix_from_json,
    matrix_to_json,
    monomial_cycle,
    spectral_radius,
)

RNG = np.random.default_rng(20240817)


def exact_points(n, dens=(3, 4, 8, 9, 12)):
    return st.lists(
        st.builds(UnitPoint.exact,
                  st.integers(min_value=0, max_value=71),
                  st.sampled_from(dens)),
        min_size=n, max_size=n).map(tuple)


def _bits(s):
    """The bytes of a float spectrum's angles and error bounds."""
    return np.array([(p.angle, p.err) for p in s.points]).tobytes()


def random_unitary(n, rng=RNG):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_angle_multiset(m: np.ndarray) -> np.ndarray:
    return np.angle(general_spectrum(m)) / (2.0 * math.pi) % 1.0


class TestDiagonal:
    def test_spectrum_is_the_diagonal(self):
        d = Diagonal((UnitPoint.exact(1, 4), UnitPoint.exact(1, 3)))
        assert [p.angle for p in d.spectrum().points] == [
            RationalAngle(1, 4), RationalAngle(1, 3)]
        assert d.spectrum().exact

    def test_inverse_conjugates(self):
        d = Diagonal((UnitPoint.exact(1, 5), UnitPoint.exact(2, 5)))
        prod = matmul(d, d.inverse())
        assert prod.canonical_key() == identity_like(d).canonical_key()

    def test_dense_matches(self):
        d = Diagonal((UnitPoint.exact(1, 6), UnitPoint.approx(0.37)))
        want = np.diag([p.to_complex() for p in d.entries])
        assert np.allclose(d.to_dense(), want)
        assert not d.exact


class TestMonomialCycle:
    def test_factory_collapses_trivial_shift(self):
        pts = (UnitPoint.exact(1, 3), UnitPoint.exact(2, 3))
        assert isinstance(monomial_cycle(pts, 0), Diagonal)
        assert isinstance(monomial_cycle(pts, 2), Diagonal)
        assert isinstance(monomial_cycle(pts, 1), MonomialCycle)

    def test_entry_layout(self):
        m = MonomialCycle((UnitPoint.exact(0), UnitPoint.exact(1, 4),
                           UnitPoint.exact(1, 2)), 1)
        a = m.to_dense()
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(1j)
        assert a[2, 0] == pytest.approx(-1.0)
        assert np.count_nonzero(a) == 3

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2),
                                     (5, 3), (6, 2), (6, 3), (7, 5)])
    def test_exact_spectrum_matches_eigensolver(self, n, k):
        # includes composite sizes, where the shift splits into several cycles
        pts = tuple(UnitPoint.exact(int(t), 12) for t in RNG.integers(0, 12, n))
        m = MonomialCycle(pts, k)
        assert match_spectra(m.spectrum(), dense_angle_multiset(m.to_dense())) < 1e-8

    def test_float_spectrum_matches_eigensolver(self):
        pts = tuple(UnitPoint.approx(float(t)) for t in RNG.random(5))
        m = MonomialCycle(pts, 2)
        s = m.spectrum()
        assert not s.exact
        assert match_spectra(s, dense_angle_multiset(m.to_dense())) < 1e-8

    def test_single_cycle_gives_roots_of_weight(self):
        # all ones with k=1: plain shift, spectrum = n-th roots of unity
        m = MonomialCycle((ONE,) * 5, 1)
        assert [p.angle for p in m.spectrum().points] == [
            RationalAngle(t, 5) for t in range(5)]

    def test_inverse(self):
        pts = tuple(UnitPoint.exact(int(t), 9) for t in RNG.integers(0, 9, 4))
        m = MonomialCycle(pts, 3)
        prod = matmul(m, m.inverse())
        assert prod.canonical_key() == identity_like(m).canonical_key()
        assert np.allclose(m.to_dense() @ m.inverse().to_dense(), np.eye(4))

    @given(exact_points(4), exact_points(4),
           st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_dense_product(self, da, db, ka, kb):
        a, b = monomial_cycle(da, ka), monomial_cycle(db, kb)
        prod = matmul(a, b)
        assert not isinstance(prod, Dense)
        assert np.allclose(prod.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-12)

    @given(exact_points(3), exact_points(3), exact_points(3),
           st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_product_associates(self, da, db, dc, ka, kb, kc):
        a, b, c = (monomial_cycle(d, k) for d, k in ((da, ka), (db, kb), (dc, kc)))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert left.canonical_key() == right.canonical_key()


class TestBlockDiag:
    def _sample(self):
        head = MonomialCycle(tuple(UnitPoint.exact(t, 9) for t in (1, 3, 5)), 1)
        tail = Diagonal((ONE, UnitPoint.exact(1, 9)))
        return BlockDiag((head, tail))

    def test_factory_collapses_singleton(self):
        d = Diagonal((ONE,))
        assert block_diag([d]) is d
        with pytest.raises(ValueError):
            block_diag([])

    def test_spectrum_is_union(self):
        m = self._sample()
        assert match_spectra(m.spectrum(), dense_angle_multiset(m.to_dense())) < 1e-8
        assert m.spectrum().dim == 5

    def test_blockwise_product(self):
        m = self._sample()
        prod = matmul(m, m)
        assert isinstance(prod, BlockDiag)
        assert np.allclose(prod.to_dense(), m.to_dense() @ m.to_dense())

    def test_mismatched_blocks_fall_back_to_dense(self):
        a = BlockDiag((Diagonal((ONE,) * 2), Diagonal((ONE,) * 3)))
        b = BlockDiag((Diagonal((ONE,) * 3), Diagonal((ONE,) * 2)))
        prod = matmul(a, b)
        assert isinstance(prod, Dense)
        assert prod.exactness_lost  # both inputs were exact

    def test_inverse(self):
        m = self._sample()
        assert np.allclose(matmul(m, m.inverse()).to_dense(), np.eye(5))


class TestDense:
    def test_autodetects_unitarity(self):
        u = random_unitary(4)
        assert Dense(u).unitary
        assert not Dense(2.0 * u).unitary

    def test_flagged_unitary_is_checked(self):
        with pytest.raises(NonUnitaryError):
            Dense(np.diag([2.0, 1.0]).astype(complex), unitary=True)

    def test_spectrum_requires_unitarity(self):
        with pytest.raises(NonUnitaryError):
            Dense(np.diag([2.0, 1.0]).astype(complex)).spectrum()

    def test_spectrum_matches_structured(self):
        pts = tuple(UnitPoint.exact(t, 7) for t in range(1, 5))
        d = Diagonal(pts)
        dense = Dense(d.to_dense())
        s = dense.spectrum()
        assert not s.exact
        assert all(p.err <= 1e-9 for p in s.points)
        assert match_spectra(d.spectrum(), s) < 1e-9

    def test_inverse_is_adjoint(self):
        u = Dense(random_unitary(3))
        assert np.allclose(matmul(u, u.inverse()).to_dense(), np.eye(3), atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Dense(np.ones((2, 3), dtype=complex))


class TestMatmulDispatch:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(Diagonal((ONE,)), Diagonal((ONE, ONE)))

    def test_structured_times_dense_loses_exactness(self):
        d = Diagonal((UnitPoint.exact(1, 4), ONE))
        u = Dense(random_unitary(2))
        prod = matmul(d, u)
        assert isinstance(prod, Dense)
        assert not prod.exactness_lost  # one factor was already inexact

    def test_exact_fallback_is_flagged(self):
        a = BlockDiag((Diagonal((ONE,)), Diagonal((ONE, ONE))))
        b = BlockDiag((Diagonal((ONE, ONE)), Diagonal((ONE,))))
        assert matmul(a, b).exactness_lost


def _match_spectra_loop(ta, tb) -> float:
    """``match_spectra`` one cyclic offset and one pair of angles at a time."""
    sa, sb = sorted(t % 1.0 for t in ta), sorted(t % 1.0 for t in tb)
    n = len(sa)
    return min(max(_float_circle_distance(sa[i], sb[(i + s) % n]) for i in range(n))
               for s in range(n))


class TestSpectrumHelpers:
    def test_common_denominator(self):
        s = Spectrum.from_points([UnitPoint.exact(1, 4), UnitPoint.exact(1, 6),
                                  UnitPoint.exact(1, 4)])
        assert s.common_denominator() == 12

    def test_match_spectra_detects_shift(self):
        a = [0.1, 0.4, 0.7]
        b = [0.4, 0.7, 0.1]
        assert match_spectra(a, b) == 0.0
        assert match_spectra(a, [0.1, 0.4, 0.8]) == pytest.approx(0.1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        *[st.lists(st.floats(-3, 3), min_size=n, max_size=n)] * 2)))
    def test_match_spectra_equals_the_offset_loop(self, pair):
        ta, tb = pair
        got = match_spectra(ta, tb)
        assert type(got) is float and got == _match_spectra_loop(ta, tb)

    def test_match_spectra_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            match_spectra([0.1], [0.1, 0.2])

    def test_eigensolve_sorted_and_accurate(self):
        u = random_unitary(6)
        eigs, errs = eigensolve_dense(u)
        ang = np.angle(eigs) / (2 * math.pi) % 1.0
        assert np.all(np.diff(ang) >= -1e-15)
        assert np.all(errs < 1e-10)

    @pytest.mark.parametrize("d", [1, 2, 7, 13])
    def test_stacked_eigensolve_matches_each_matrix(self, d):
        rng = np.random.default_rng(d)
        stack = np.stack([random_unitary(d, rng) for _ in range(40)])
        # a diagonal and a repeated-eigenvalue matrix as well
        stack[0] = np.diag(np.exp(2j * math.pi * rng.random(d)))
        stack[1] = -np.eye(d)
        eigs, errs = eigensolve_dense(stack)
        assert eigs.shape == errs.shape == (40, d)
        for m, e, r in zip(stack, eigs, errs):
            e1, r1 = eigensolve_dense(m)
            assert e.tobytes() == e1.tobytes()
            assert r.tobytes() == r1.tobytes()

    # None: the default block size; 1 byte: one matrix per stacked call;
    # three 6 x 6 matrices per call, the last block holding two
    @pytest.mark.parametrize("block", [None, 1, 3 * 16 * 36])
    def test_stacked_angles_match_each_spectrum(self, block, monkeypatch):
        """``_dense_spectra`` over any blocking equals, points and error
        bounds bit for bit, the spectrum of one unstacked eigensolve per
        matrix, and so does ``Dense.spectrum``."""
        if block:
            monkeypatch.setattr(linalg, "_EIG_BLOCK_BYTES", block)
        rng = np.random.default_rng(5)
        stack = np.stack([random_unitary(6, rng) for _ in range(30)]
                         + [np.eye(6), -np.eye(6)])
        want = []
        for m in stack:
            eigs, errs = eigensolve_dense(m)
            want.append(_bits(Spectrum.from_points(
                [UnitPoint.from_complex(complex(z), err=float(e) / (2 * math.pi))
                 for z, e in zip(eigs, errs)])))
        assert list(map(_bits, linalg._dense_spectra(stack))) == want
        assert [_bits(Dense(m).spectrum()) for m in stack] == want

    @pytest.mark.parametrize("block", [None, 1])
    def test_stacked_angles_refuse_as_spectrum_does(self, block, monkeypatch):
        """``_dense_spectra`` refuses an eigenvalue off the unit circle;
        unitarity is refused by ``_require_unitary`` and ``Dense.spectrum``."""
        if block:
            monkeypatch.setattr(linalg, "_EIG_BLOCK_BYTES", block)
        stack = np.stack([random_unitary(3) for _ in range(4)])
        linalg._require_unitary(stack)
        stack[2] *= 1.01
        with pytest.raises(NonUnitaryError, match="needs a unitary"):
            Dense(stack[2]).spectrum()
        with pytest.raises(NonUnitaryError, match="needs a unitary"):
            linalg._require_unitary(stack)
        # stack[2]'s eigenvalues have modulus 1.01
        with pytest.raises(NonUnitaryError, match="modulus"):
            linalg._dense_spectra(stack)
        assert len(linalg._dense_spectra(stack[:2])) == 2
        monkeypatch.setattr(linalg, "MODULUS_TOL", -1.0)
        # every matrix now fails the modulus check
        with pytest.raises(NonUnitaryError, match="modulus"):
            Dense(stack[0]).spectrum()
        with pytest.raises(NonUnitaryError, match="modulus"):
            linalg._dense_spectra(stack[:2])

    def test_stacked_keys_match_each_key(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_unitary(4, rng) for _ in range(20)])
        keys = linalg._dense_keys(stack)
        assert keys == [Dense(m).canonical_key() for m in stack]
        gaps = linalg._unitarity_gaps(stack)
        assert gaps.tolist() == [linalg._unitarity_gaps(m) for m in stack]

    def test_spectral_radius(self):
        assert spectral_radius(Diagonal((ONE,))) == 1.0
        assert spectral_radius(np.diag([3.0, 1.0])) == pytest.approx(3.0)
        assert spectral_radius(Dense(random_unitary(3))) == pytest.approx(1.0)


JSON_VARIANTS = [
    lambda: Diagonal((UnitPoint.exact(1, 3), UnitPoint.approx(0.123, 1e-9))),
    lambda: MonomialCycle((ONE, UnitPoint.exact(5, 8), ONE), 2),
    lambda: BlockDiag((Diagonal((ONE,)),
                       MonomialCycle((ONE, UnitPoint.exact(1, 2)), 1))),
    lambda: Dense(random_unitary(3)),
]

# every variant as JSON, with a fixed dense unitary
JSON_DOCS = [matrix_to_json(build()) for build in JSON_VARIANTS[:3]] + [
    matrix_to_json(Dense(random_unitary(2, np.random.default_rng(5))))]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("build", JSON_VARIANTS)
    def test_round_trip(self, build):
        m = build()
        back = matrix_from_json(matrix_to_json(m))
        assert type(back) is type(m)
        assert np.allclose(back.to_dense(), m.to_dense(), atol=1e-15)
        if not isinstance(m, Dense):
            assert back.canonical_key() == m.canonical_key()

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"variant": "sparse"})

    @pytest.mark.parametrize("build", JSON_VARIANTS)
    def test_declared_dim_must_match(self, build):
        d = matrix_to_json(build())
        assert d["dim"] == build().dim
        for dim in (d["dim"] + 2, 0, "3"):
            with pytest.raises(MalformedJsonError, match="declares dim"):
                matrix_from_json({**d, "dim": dim})
        del d["dim"]
        assert matrix_from_json(d).dim == build().dim

    def test_declared_dim_of_a_block(self):
        d = matrix_to_json(JSON_VARIANTS[2]())
        d["blocks"][1]["dim"] = 1
        with pytest.raises(MalformedJsonError, match="declares dim"):
            matrix_from_json(d)

    @pytest.mark.parametrize("d", [
        {"variant": "diagonal", "entries": []},
        {"variant": "block_diag", "blocks": []},
        {"variant": "monomial_cycle", "d": [], "k": 0},
        {"variant": "diagonal", "entries": [{"num": 0.5, "den": 2}]},
        {"variant": "diagonal", "entries": [{"num": 1, "den": 2.5}]},
        {"variant": "diagonal", "entries": [{"num": True, "den": 2}]},
        {"variant": "monomial_cycle", "d": [{"num": 0, "den": 1}] * 2, "k": True},
        {"variant": "monomial_cycle", "d": [{"num": 0, "den": 1}] * 2, "k": 1.0},
        {"variant": "diagonal", "dim": True, "entries": [{"num": 0, "den": 1}]},
        {"variant": "diagonal", "dim": 1.0, "entries": [{"num": 0, "den": 1}]},
        {"variant": "dense", "entries": [[[1.0, 0.0]]], "unitary": "yes"},
        {"variant": "dense", "entries": [[[1.0, 0.0]]], "unitary": 1},
        {"variant": "dense", "entries": [[[True, False]]]},
        {"variant": "dense", "entries": [[[1.0, "0.5"]]]},
        {"variant": "dense", "entries": [[[1.0]]]},
    ], ids=["empty-diagonal", "no-blocks", "empty-cycle", "num-float",
            "den-float", "num-bool", "k-bool", "k-float", "dim-bool",
            "dim-float", "unitary-string", "unitary-int", "entry-bool",
            "entry-string", "entry-short"])
    def test_malformed_fields_raise(self, d):
        with pytest.raises(MalformedJsonError):
            matrix_from_json(d)

    def test_nesting_past_the_recursion_limit_raises(self):
        d = {"variant": "diagonal", "entries": [{"num": 0, "den": 1}]}
        for _ in range(sys.getrecursionlimit()):
            d = {"variant": "block_diag", "blocks": [d]}
        with pytest.raises(MalformedJsonError, match="RecursionError"):
            matrix_from_json(d)

    @pytest.mark.parametrize("text", [
        '{"num": 3, "den": 8}', '{"angle": 0.375, "err": 1e-12}',
        '{"angle": "0.375", "err": "1e-12"}', '{"angle": 0.375}'])
    def test_points_that_load(self, text):
        d = {"variant": "diagonal", "entries": [json.loads(text)]}
        assert matrix_from_json(d).entries[0].turns == 0.375

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_fuzzed_fields_load_or_raise(self, data, value):
        doc = data.draw(st.sampled_from(JSON_DOCS))
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        try:
            matrix_from_json(replaced(doc, path, value))
        except SpecmulError:
            pass
