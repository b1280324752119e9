"""Defect measurement: single pairs, exhaustive closures, sampled families."""

import hashlib
import json
import math
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_fuzz import JSON_VALUES

from specmul import asm, groups, linalg
from specmul.asm import (
    AsmReport,
    Histogram,
    PairDefect,
    conversion_check,
    measure_asm,
    measure_asm_sampled,
    measure_sub,
    pair_defect,
    pair_sub_defect,
)
from specmul.circle import ONE, UnitPoint, arg_distance
from specmul.cli import _q8_generators
from specmul.constructions import (
    SrElement,
    SrSampler,
    TadpoleSampler,
    _mod1,
    is_prime,
    SrParams,
    default_miller_moreno,
    miller_moreno,
    sample_tadpole,
    sr_pair_gamma,
    sr_ratio_bound,
    sr_sample,
    sr_sampler,
    tadpole,
    tadpole_sampler,
)
from specmul.errors import (
    ClosureInvariantError,
    IncompleteClosureError,
    InvalidParamsError,
    MalformedJsonError,
    NonUnitaryError,
    ZeroSpectralRadiusError,
)
from specmul.groups import GroupClosure, close
from specmul.linalg import Dense, Diagonal, matmul

RNG = np.random.default_rng(20240911)


def spy_workers(monkeypatch):
    """Record (worker count, task count) of every ``asm._map_chunks`` call."""
    seen, real = [], asm._map_chunks

    def spy(fn, chunk_args, workers):
        seen.append((workers, len(chunk_args)))
        return real(fn, chunk_args, workers)

    monkeypatch.setattr(asm, "_map_chunks", spy)
    return seen


def pool_floor(monkeypatch, pairs):
    """Send sampled runs of both families to the pool from ``pairs`` pairs."""
    for cls in (TadpoleSampler, SrSampler):
        monkeypatch.setattr(cls, "PARALLEL_MIN_PAIRS", pairs)


def spy_tables(monkeypatch):
    """Record the order of every closure whose full Cayley table is built."""
    built, real = [], GroupClosure.cayley_table

    def spy(self):
        built.append(self.order)
        return real(self)

    monkeypatch.setattr(GroupClosure, "cayley_table", spy)
    return built


def spectrum_bits(s):
    """The bytes of a float spectrum's angles and error bounds."""
    return np.array([(p.angle, p.err) for p in s.points]).tobytes()


def oracle_defect(a, b):
    """Triple loop over exact spectra with Fraction arithmetic throughout."""

    def fr(spectrum):
        return [p.angle.as_fraction() for p in spectrum.points]

    def circ(f):
        f %= 1
        return min(f, 1 - f)

    sa, sb = fr(a.spectrum()), fr(b.spectrum())
    sab = fr(matmul(a, b).spectrum())
    return max(min(circ(g - x - y) for x in sa for y in sb) for g in sab)


class TestPairDefect:
    def test_quaternion_generators(self):
        i, j = _q8_generators()
        d = pair_defect(i, j)
        # spectra are {i, -i} so products are {1, -1}; gamma = i sits a
        # quarter turn away
        assert d.defect_exact == Fraction(1, 4)
        assert d.defect == 0.25

    def test_commuting_diagonals_have_zero_defect(self):
        a = Diagonal((UnitPoint.exact(1, 5), UnitPoint.exact(2, 5)))
        b = Diagonal((UnitPoint.exact(1, 3), UnitPoint.exact(2, 3)))
        assert pair_defect(a, b).defect_exact == 0

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_exact_path_matches_fraction_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([3, 5]))
        a = tadpole(sample_tadpole(p, rng, exact=True))
        b = tadpole(sample_tadpole(p, rng, exact=True))
        d = pair_defect(a, b)
        assert d.defect_exact is not None
        assert d.defect_exact == oracle_defect(a, b)

    def test_float_path_agrees_with_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = tadpole(sample_tadpole(3, rng, exact=True))
            b = tadpole(sample_tadpole(3, rng, exact=True))
            exact = pair_defect(a, b)
            loose = pair_defect(Dense(a.to_dense()), Dense(b.to_dense()))
            assert loose.defect_exact is None
            assert loose.defect == pytest.approx(exact.defect, abs=1e-9)

    def test_witness_is_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = tadpole(sample_tadpole(3, rng, exact=True))
            b = tadpole(sample_tadpole(3, rng, exact=True))
            d = pair_defect(a, b)
            gammas = {p.angle.as_fraction() for p in d.spectrum_ab}
            assert d.witness_gamma.angle.as_fraction() % 1 in {g % 1 for g in gammas}
            prod = d.witness_alpha * d.witness_beta
            assert arg_distance(d.witness_gamma, prod) == d.defect_exact

    def test_defect_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = tadpole(sample_tadpole(3, rng))
            b = tadpole(sample_tadpole(3, rng))
            assert 0.0 <= pair_defect(a, b).defect <= 0.5

    def test_witness_grid_holds_each_eigenvalue_once(self, monkeypatch):
        # a +-1 diagonal of dimension 60 squared, and the worst pair of a
        # cyclic closure of dimension 31, (identity, identity): the grid
        # spans the distinct eigenvalues, not every repeat
        gaps, shapes = asm._arc_gaps, []

        def spy(sa, sb, sab, scale=1.0):
            shapes.append((sab.shape[1], sa.shape[1], sb.shape[1]))
            return gaps(sa, sb, sab, scale)

        monkeypatch.setattr(asm, "_arc_gaps", spy)
        signs = Diagonal(tuple(UnitPoint.exact(k % 2, 2) for k in range(60)))
        assert pair_defect(signs, signs).defect_exact == 0
        cyclic = close([Diagonal(tuple(UnitPoint.exact(t, 31) for t in range(31)))])
        assert measure_asm(cyclic).epsilon_exact == 0
        assert shapes == [(1, 2, 2), (1, 1, 1)]

    def test_matrices_optional(self):
        i, j = _q8_generators()
        assert pair_defect(i, j, with_matrices=False).matrix_a is None
        assert pair_defect(i, j).matrix_a is not None


class TestMeasureAsm:
    def test_cyclic_group_is_perfectly_multiplicative(self):
        c = close([Diagonal(tuple(UnitPoint.exact(t, 7) for t in range(7)))])
        r = measure_asm(c)
        assert r.epsilon_exact == 0
        assert r.epsilon == 0.0
        assert r.group_order == 7 and r.pair_total == 49

    def test_quaternion_level(self):
        r = measure_asm(close(_q8_generators()))
        assert r.epsilon_exact == Fraction(1, 4)
        assert r.exact and r.mode == "exhaustive" and r.bound == "attained"
        assert r.worst.defect_exact == Fraction(1, 4)

    def test_mm_small_exact_value_regression(self):
        c = close(miller_moreno(default_miller_moreno(3, 7)))
        r = measure_asm(c)
        assert r.epsilon_exact == Fraction(1, 7)
        assert sum(r.histogram.counts) == r.pair_total == 21 * 21

    def test_matches_pair_loop(self):
        c = close(miller_moreno(default_miller_moreno(3, 7)))
        r = measure_asm(c, collect_pairs=True)
        grid = {(i, j): v for i, j, v in r.pair_rows}
        for i in (0, 1, 5, 11, 20):
            for j in (0, 2, 7, 13, 19):
                want = pair_defect(c.elements[i], c.elements[j]).defect
                assert grid[(i, j)] == pytest.approx(want, abs=1e-15)

    def test_worst_indices_point_at_maximum(self):
        c = close(miller_moreno(default_miller_moreno(3, 7)))
        r = measure_asm(c)
        _, i, j = r.worst.pair
        redo = pair_defect(c.elements[i], c.elements[j])
        assert redo.defect_exact == r.epsilon_exact

    def test_conjugation_invariance_float_path(self):
        z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        q, rr = np.linalg.qr(z)
        u = q * (np.diag(rr) / np.abs(np.diag(rr)))
        gens = [Dense(u @ g.to_dense() @ u.conj().T) for g in _q8_generators()]
        r = measure_asm(close(gens))
        assert not r.exact and r.epsilon_exact is None
        assert r.epsilon == pytest.approx(0.25, abs=1e-8)

    def test_incomplete_closure_refused(self):
        c = close(_q8_generators(), max_elements=5)
        with pytest.raises(IncompleteClosureError):
            measure_asm(c)


class TestMeasureAsmSampled:
    def test_same_seed_reproduces_exactly(self):
        s = tadpole_sampler(3)
        r1 = measure_asm_sampled(s, 400, seed=99)
        r2 = measure_asm_sampled(s, 400, seed=99)
        assert r1.epsilon == r2.epsilon
        assert r1.histogram == r2.histogram
        assert r1.worst.pair == r2.worst.pair
        assert r1.worst.defect == r2.worst.defect

    def test_different_seeds_differ(self):
        s = tadpole_sampler(3)
        assert (measure_asm_sampled(s, 200, seed=1).epsilon
                != measure_asm_sampled(s, 200, seed=2).epsilon)

    def test_worker_split_does_not_change_results(self, monkeypatch):
        pool_floor(monkeypatch, 2048)
        seen = spy_workers(monkeypatch)
        s = tadpole_sampler(3)
        r1 = measure_asm_sampled(s, 2048, seed=5, workers=1)
        r2 = measure_asm_sampled(s, 2048, seed=5, workers=2)
        # 64 chunks of 32 pairs, 50 chunks a group
        assert seen == [(1, 2), (2, 2)]
        assert r1.epsilon == r2.epsilon
        assert r1.histogram == r2.histogram
        assert r1.worst.defect == r2.worst.defect

    def test_exact_sampler_reports_exact_worst(self):
        s = tadpole_sampler(3, exact=True)
        r = measure_asm_sampled(s, 300, seed=17)
        assert r.exact
        assert r.epsilon_exact is not None
        assert float(r.epsilon_exact) == r.epsilon
        assert r.mode == "sampled" and r.bound == "lower"
        assert r.sample_count == 300 and r.seed == 17

    def test_needs_at_least_one_pair(self):
        with pytest.raises(ValueError):
            measure_asm_sampled(tadpole_sampler(3), 0, seed=1)


class TestMeasureSub:
    def test_exhaustive_list(self):
        rng = np.random.default_rng(23)
        params = SrParams(0.5)
        elems = [sr_sample(params, rng) for _ in range(8)]
        r = measure_sub(elems)
        assert r.kind == "sub" and r.gamma_convention == "nonzero"
        assert r.pair_total == 64
        assert r.epsilon <= sr_ratio_bound(0.5)
        want = max(pair_sub_defect(a, b).defect for a in elems for b in elems)
        assert r.epsilon == pytest.approx(want)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rank_one_list_scores_pairs_as_pair_sub_defect(self, n):
        # the list is scored as one batch; each pair equals the one-pair path
        rng = np.random.default_rng(n)
        elems = [sr_sample(SrParams(0.7, n), rng) for _ in range(12)]
        rows = measure_sub(elems, collect_pairs=True).pair_rows
        assert [(i, j) for i, j, _ in rows] == [(i, j) for i in range(12)
                                                for j in range(12)]
        want = [pair_sub_defect(elems[i], elems[j], with_matrices=False).defect
                for i, j, _ in rows]
        assert np.array([v for _, _, v in rows]).tobytes() == np.array(want).tobytes()

    def test_mixed_list_takes_the_one_pair_path(self):
        rng = np.random.default_rng(3)
        elems = [sr_sample(SrParams(0.5, 3), rng) for _ in range(3)]
        elems.append(elems[0].matrix())
        rows = measure_sub(elems, collect_pairs=True).pair_rows
        want = [pair_sub_defect(elems[i], elems[j], with_matrices=False).defect
                for i, j, _ in rows]
        assert [v for _, _, v in rows] == want

    def test_rank_one_list_with_zero_radius(self):
        dead = SrElement(1.0, (1.0,), (-1.0,))  # 1 + <x, y> = 0
        live = SrElement(1.0, (0.1,), (0.2,))
        with pytest.raises(ZeroSpectralRadiusError):
            measure_sub([live, dead])

    def test_sampled_mode(self):
        r = measure_sub(sr_sampler(SrParams(0.5)), pair_count=500, seed=4)
        r2 = measure_sub(sr_sampler(SrParams(0.5)), pair_count=500, seed=4)
        assert r.epsilon == r2.epsilon
        assert 0.0 < r.epsilon <= sr_ratio_bound(0.5)
        assert r.mode == "sampled" and r.seed == 4

    def test_sampled_mode_needs_seed(self):
        with pytest.raises(ValueError):
            measure_sub(sr_sampler(SrParams(0.5)), pair_count=10)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            measure_sub([])

    def test_closed_form_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(29)
        params = SrParams(0.6, n=4)
        for _ in range(30):
            a, b = sr_sample(params, rng), sr_sample(params, rng)
            closed = pair_sub_defect(a, b).defect
            loose = pair_sub_defect(a.matrix(), b.matrix()).defect
            assert closed == pytest.approx(loose, abs=1e-8)

    def test_zero_spectral_radius(self):
        dead = SrElement(1.0, (1.0,), (-1.0,))  # 1 + <x, y> = 0
        with pytest.raises(ZeroSpectralRadiusError):
            pair_sub_defect(dead, dead)
        nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ZeroSpectralRadiusError):
            pair_sub_defect(nil, nil)

    def test_matrices_optional(self):
        rng = np.random.default_rng(37)
        a, b = sr_sample(SrParams(0.5), rng), sr_sample(SrParams(0.5), rng)
        bare = pair_sub_defect(a, b, with_matrices=False)
        full = pair_sub_defect(a, b)
        assert bare.matrix_a is None and bare.matrix_b is None
        assert full.matrix_a is not None
        assert bare.defect == full.defect

    def test_pair_gamma_used_for_rank_one_pairs(self):
        rng = np.random.default_rng(31)
        params = SrParams(0.4)
        a, b = sr_sample(params, rng), sr_sample(params, rng)
        d = pair_sub_defect(a, b)
        assert d.spectrum_ab == (sr_pair_gamma(a, b),)


class TestConversions:
    def test_fraction_input(self):
        sub, asm = conversion_check(Fraction(1, 4))
        assert sub == pytest.approx(math.pi / 2)
        assert asm == Fraction(1, 8) and isinstance(asm, Fraction)

    def test_float_input(self):
        sub, asm = conversion_check(0.1)
        assert sub == pytest.approx(0.2 * math.pi)
        assert asm == pytest.approx(0.05)


def _chord_worst(re, im) -> dict:
    """A chord report's worst pair whose witness gamma is written as
    {"re": re, "im": im}."""
    a, b = (sr_sample(SrParams(0.5), np.random.default_rng(s)) for s in (0, 1))
    d = pair_sub_defect(a, b).to_json_dict()
    d["witness"]["gamma"] = {"re": re, "im": im}
    return d


class TestReportSerialization:
    def test_round_trip_through_json(self):
        r = measure_asm(close(_q8_generators()), collect_pairs=True)
        blob = json.dumps(r.to_json_dict())
        back = AsmReport.from_json_dict(json.loads(blob))
        assert back.epsilon == r.epsilon
        assert back.epsilon_exact == r.epsilon_exact
        assert back.histogram == r.histogram
        assert back.worst.defect_exact == r.worst.defect_exact
        assert back.worst.witness_gamma == r.worst.witness_gamma
        assert back.pair_rows == r.pair_rows
        assert back.group_order == r.group_order

    def test_sub_report_round_trip(self):
        r = measure_sub(sr_sampler(SrParams(0.5)), pair_count=50, seed=8)
        back = AsmReport.from_json_dict(json.loads(json.dumps(r.to_json_dict())))
        assert back.kind == "sub" and back.gamma_convention == "nonzero"
        assert back.epsilon == r.epsilon
        assert back.worst.witness_gamma == pytest.approx(r.worst.witness_gamma)

    def test_pair_defect_round_trip(self):
        i, j = _q8_generators()
        d = pair_defect(i, j)
        back = PairDefect.from_json_dict(json.loads(json.dumps(d.to_json_dict())))
        assert back.defect_exact == d.defect_exact
        assert back.spectrum_ab == d.spectrum_ab
        assert back.matrix_a == d.matrix_a

    @pytest.mark.parametrize("key", ["kind", "epsilon", "exact", "seed",
                                     "worst", "histogram"])
    def test_missing_key(self, key):
        d = measure_asm(close(_q8_generators())).to_json_dict()
        del d[key]
        with pytest.raises(MalformedJsonError):
            AsmReport.from_json_dict(d)
        with pytest.raises(MalformedJsonError):
            AsmReport.from_json_dict({})

    @pytest.mark.parametrize("key, value", [
        ("kind", 3), ("epsilon", "0.1"), ("epsilon", True), ("exact", "false"),
        ("epsilon_exact", "1/0"), ("pair_total", 64.0), ("seed", "7"),
        ("histogram", [1, 2]), ("worst", "pair"), ("pair_rows", 5),
        ("worst", _chord_worst(True, 0.0)), ("worst", _chord_worst(0.5, "0.5")),
    ])
    def test_wrong_types(self, key, value):
        d = measure_asm(close(_q8_generators())).to_json_dict()
        d[key] = value
        with pytest.raises(MalformedJsonError):
            AsmReport.from_json_dict(d)
        with pytest.raises(MalformedJsonError):
            AsmReport.from_json_dict([d])

    def test_report_parts_raise_malformed(self):
        with pytest.raises(MalformedJsonError):
            PairDefect.from_json_dict({})
        d = pair_defect(*_q8_generators()).to_json_dict()
        d["pair"] = "ab"
        with pytest.raises(MalformedJsonError):
            PairDefect.from_json_dict(d)
        with pytest.raises(MalformedJsonError):
            Histogram.from_json_dict({"edges": [0.0, 0.5], "counts": "x"})

    @pytest.mark.parametrize("d", [
        {"edges": ["0.5"], "counts": [2.7]},
        {"edges": [0.0, 0.5], "counts": [2.7]},
        {"edges": [0.0, 0.5], "counts": [True]},
        {"edges": ["0.0", 0.5], "counts": [2]},
        {"edges": [0.0, None], "counts": [2]},
    ], ids=["both", "float-count", "bool-count", "string-edge", "null-edge"])
    def test_histogram_items_keep_their_json_types(self, d):
        with pytest.raises(MalformedJsonError):
            Histogram.from_json_dict(d)
        # whole-number edges are numbers too
        assert Histogram.from_json_dict({"edges": [0, 1], "counts": [2]}).edges == (0.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(path=st.sampled_from([
        ("kind",), ("epsilon",), ("epsilon_exact",), ("exact",), ("seed",),
        ("pair_total",), ("gamma_convention",), ("pair_rows",), ("worst",),
        ("worst", "pair"), ("worst", "defect_exact"), ("worst", "witness"),
        ("worst", "spectra"), ("histogram",), ("histogram", "edges")]),
        value=JSON_VALUES)
    def test_fuzzed_fields_load_or_raise_malformed(self, path, value):
        report = measure_asm(close(_q8_generators()), collect_pairs=True).to_json_dict()
        *parents, key = path
        field = report
        for p in parents:
            field = field[p]
        field[key] = value
        try:
            AsmReport.from_json_dict(report)
        except MalformedJsonError:
            pass

    def test_histogram_shape(self):
        r = measure_asm(close(_q8_generators()), bins=10)
        h = r.histogram
        assert len(h.edges) == 11 and len(h.counts) == 10
        assert h.edges[0] == 0.0 and h.edges[-1] == 0.5
        assert sum(h.counts) == r.pair_total
        back = Histogram.from_json_dict(h.to_json_dict())
        assert back == h


# sha256 of json.dumps(measure_asm_sampled(tadpole_sampler(p), 300,
# seed=2024 + p, collect_pairs=True).to_json_dict(), sort_keys=True), as
# recorded when each chunk's stream became one numpy-native batch; each worst
# pair was re-derived through pair_defect and stays under 1/(2p^2).
SAMPLED_GOLDEN = {
    2: "1611c95be0d80680639563a27d61479df246c0a5e7d908c889972446e3bcbfaf",
    3: "c73a6e48b2195b49fb894343c6b58b183277af7960eb0cb2546c9207ce8550bf",
    5: "c3188b761a85c7fa75146e0168eabcea166f955e7c35d037e0a9b1b3fd3d146a",
    7: "135838137cafbae5e114309ff0bec0e3feab01d3cb5daecbb39385617c8eedcc",
    11: "197d0eeea002b1ae5010a9cfd32f1f0f964a34e43638265e189399608f658a83",
}


def _conjugated(gens, seed):
    """``gens`` conjugated by a seeded Haar unitary, as dense matrices."""
    rng = np.random.default_rng(seed)
    d = gens[0].dim
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, rr = np.linalg.qr(z)
    u = q * (np.diag(rr) / np.abs(np.diag(rr)))
    return [Dense(u @ g.to_dense() @ u.conj().T, unitary=True) for g in gens]


def _dense_closure(gens, seed):
    """The group of ``gens`` conjugated by a seeded Haar unitary, as dense
    matrices."""
    return close(_conjugated(gens, seed))


def _dense_mm_closure(seed):
    """MM(3, 7) conjugated by a seeded Haar unitary: 21 dense elements."""
    return _dense_closure(miller_moreno(default_miller_moreno(3, 7)), seed)


def _one_pair_chunk(args):
    """Draw ``count`` pairs by the sampler's ``batch`` and score each alone
    with ``defect_of(a, b)``, a ``PairDefect``: a chunk of a sampled run
    before the kernels scored stacked pairs, kept as the reference for
    ``asm._sampled_group``.  Returns (defects, the first maximum's pair
    (A, B), all exact)."""
    sampler, count, seed_seq, defect_of = args
    drawn = sampler.batch(np.random.default_rng(seed_seq), count)
    vals = np.empty(count, dtype=float)
    best = -1.0
    best_pair = None
    all_exact = True
    for t in range(count):
        a, b = drawn.pair(t)
        pd = defect_of(a, b)
        if pd.defect_exact is None:
            all_exact = False
        vals[t] = pd.defect
        if pd.defect > best:
            best, best_pair = pd.defect, (a, b)
    return vals, best_pair, all_exact


def _one_pair_report(sampler, count, seed, worst_of, vmax, gamma_convention=None):
    """The sampled run of ``sampler`` scored one pair at a time in one
    process, with pairs collected: the reference for
    ``asm._measure_sampled``."""
    sizes = asm._chunk_sizes(count, asm.SAMPLE_CHUNKS)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    defect_of = partial(worst_of, with_matrices=False)
    parts = [_one_pair_chunk((sampler, c, s, defect_of)) for c, s in zip(sizes, seeds)]
    values = np.concatenate([p[0] for p in parts])
    exact = all(p[2] for p in parts)
    best_idx = int(values.argmax())
    a, b = parts[int(np.searchsorted(np.cumsum(sizes), best_idx, side="right"))][1]
    worst = worst_of(a, b, pair=("sampled", best_idx))
    return AsmReport(
        kind=worst.kind, mode="sampled", bound="lower",
        epsilon=float(values.max()),
        epsilon_exact=worst.defect_exact if exact else None, exact=exact,
        pair_total=count, sample_count=count, seed=seed, group_order=None,
        worst=worst, histogram=asm._make_histogram(values, asm.DEFAULT_BINS, vmax),
        gamma_convention=gamma_convention,
        pair_rows=[(int(t), -1, float(v)) for t, v in enumerate(values)])


_WINNER_REFERENCES: dict = {}


class TestWinnerRedraw:
    """The run's first maximum, drawn again from its chunk's own seed, against
    the one-pair reference, wherever the maximum lies among the chunks."""

    COUNT = 300  # 64 chunks of 5 or 4 pairs

    def _run(self, family, seed, **kw):
        if family == "sr":
            return measure_sub(sr_sampler(SrParams(0.5)), pair_count=self.COUNT,
                               seed=seed, **kw)
        return measure_asm_sampled(tadpole_sampler(5), self.COUNT, seed=seed, **kw)

    def _reference(self, family, seed):
        if (family, seed) not in _WINNER_REFERENCES:
            _WINNER_REFERENCES[family, seed] = (
                _one_pair_report(sr_sampler(SrParams(0.5)), self.COUNT, seed,
                                 pair_sub_defect, None, "nonzero")
                if family == "sr" else
                _one_pair_report(tadpole_sampler(5), self.COUNT, seed,
                                 pair_defect, 0.5))
        return _WINNER_REFERENCES[family, seed]

    # seeds whose first maximum lies where the case says; the test checks it
    @pytest.mark.parametrize("family, seed, where", [
        ("tadpole5", 3, "first pair"), ("tadpole5", 25, "last pair"),
        ("tadpole5", 280, "last chunk"), ("sr", 16, "first pair"),
        ("sr", 3, "last pair"), ("sr", 45, "last chunk")])
    # groups of 10 chunks (7 tasks), and one chunk a group, each chunk larger
    # than the group budget (64 tasks)
    @pytest.mark.parametrize("group_pairs, tasks", [(50, 7), (3, 64)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_the_one_pair_reference(self, family, seed, where,
                                            group_pairs, tasks, workers,
                                            monkeypatch):
        sizes = asm._chunk_sizes(self.COUNT, asm.SAMPLE_CHUNKS)
        ref = self._reference(family, seed)
        best = ref.worst.pair[1]
        starts = np.cumsum(sizes) - sizes
        c = int(np.flatnonzero(starts <= best)[-1])
        last = len(sizes) - 1
        assert {"first pair": 0 < c < last and best == starts[c],
                "last pair": c < last and best == starts[c] + sizes[c] - 1,
                "last chunk": c == last}[where]
        pool_floor(monkeypatch, 1)
        monkeypatch.setattr(asm, "SAMPLE_GROUP_PAIRS", group_pairs)
        seen = spy_workers(monkeypatch)
        rep = self._run(family, seed, workers=workers, collect_pairs=True)
        assert seen == [(workers, tasks)]
        assert rep.worst.matrix_a is not None
        assert rep.to_json_dict() == ref.to_json_dict()


class TestBatchedKernel:
    """The batched path against the one-pair-at-a-time reference."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tadpole_chunk_matches_scalar_loop(self, p, seed):
        for exact in (False, True):
            sampler = tadpole_sampler(p, exact=exact)
            seq = np.random.SeedSequence(seed)
            vals = asm._sampled_group(
                (sampler, [(40, seq)], asm._tadpole_batch_defects))
            svals, spair, sexact = _one_pair_chunk(
                (sampler, 40, seq, partial(pair_defect, with_matrices=False)))
            assert np.array_equal(vals.view(np.int64), svals.view(np.int64))
            drawn = sampler.batch(np.random.default_rng(seq), 40)
            assert drawn.exact is sexact is exact
            pair = drawn.pair(int(vals.argmax()))
            assert pair == spair
            assert ([m.to_json_dict() for m in pair]
                    == [m.to_json_dict() for m in spair])

    @pytest.mark.parametrize("p", sorted(SAMPLED_GOLDEN))
    def test_sampled_report_matches_golden(self, p):
        rep = measure_asm_sampled(tadpole_sampler(p), 300, seed=2024 + p,
                                  collect_pairs=True)
        blob = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == SAMPLED_GOLDEN[p]

    def test_sampled_golden_through_the_pool(self, monkeypatch):
        pool_floor(monkeypatch, 1)
        # groups of 10 chunks, so that 2 workers get 7 tasks
        monkeypatch.setattr(asm, "SAMPLE_GROUP_PAIRS", 50)
        seen = spy_workers(monkeypatch)
        rep = measure_asm_sampled(tadpole_sampler(5), 300, seed=2029,
                                  workers=2, collect_pairs=True)
        assert seen == [(2, 7)]
        blob = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == SAMPLED_GOLDEN[5]

    @pytest.mark.parametrize("block", [1, 50, 400, asm._KERNEL_BLOCK])
    def test_float_block_size_does_not_change_the_result(self, block, monkeypatch):
        # 37 pairs: blocks of 1, 1 and 6 (a partial last block) and 37
        rng = np.random.default_rng(block)
        sa, sb, sab = (rng.random((37, w)) for w in (3, 4, 5))
        want = [asm._arc_witness(sa[t], sb[t], sab[t])[0] for t in range(37)]
        monkeypatch.setattr(asm, "_KERNEL_BLOCK", block)
        got = asm._arc_defects(sa, sb, sab)
        assert got.dtype == np.float64 and got.tolist() == want

    def test_dense_rows_match_pair_defects(self):
        c = _dense_mm_closure(5)
        cay = c.cayley_table()
        rep_of = c.conjugacy_labels()
        spectra = {x: c.elements[x].spectrum() for x in np.unique(rep_of)}
        r = measure_asm(c, collect_pairs=True)
        assert c.order == 21 and len(r.pair_rows) == 441
        for i, j, v in r.pair_rows:
            # bit for bit against the one-pair kernel on the spectra of the
            # class representatives of A, B and the stored product AB
            assert v == asm._spectra_pair(
                spectra[rep_of[i]], spectra[rep_of[j]],
                spectra[rep_of[cay[i, j]]], ()).defect
            # pair_defect takes each element's own spectrum and multiplies
            # a @ b afresh, so the defect may move in the last bits
            assert v == pytest.approx(
                pair_defect(c.elements[i], c.elements[j]).defect, abs=1e-13)

    def test_worst_pair_agrees_with_epsilon(self):
        # epsilon is the largest one-pair defect over the class
        # representatives' rows, each spectrum its class representative's;
        # the worst pair is rebuilt from those spectra, so it matches bit for
        # bit
        c = _dense_mm_closure(5)
        r = measure_asm(c)
        cay = c.cayley_table()
        rep_of = c.conjugacy_labels()
        reps = np.unique(rep_of)
        spectra = {x: c.elements[x].spectrum() for x in reps}
        assert r.epsilon == max(
            asm._spectra_pair(spectra[i], spectra[rep_of[j]],
                              spectra[rep_of[cay[i, j]]], ()).defect
            for i in reps for j in range(c.order))
        assert abs(r.epsilon - 1 / 7) < 1e-14
        assert r.worst.defect == r.epsilon
        i, j = r.worst.pair[1:]
        assert r.worst.spectrum_ab == spectra[rep_of[cay[i, j]]].points
        assert r.worst.matrix_a == c.elements[i].to_json_dict()
        assert r.worst.matrix_b == c.elements[j].to_json_dict()


# sha256 of json.dumps(measure_asm(close(gens), collect_pairs=...)
# .to_json_dict(), sort_keys=True), as the all-pairs scan produced it before
# the class-reduced scan; mm3_1201 (403 classes, 3,603 elements) as the
# class-reduced scan produced it before the triple tally.
EXHAUSTIVE_GOLDEN = {
    "mm13_157": "43bcb9279e61f3ef1727471b2ba2c96a4c422ff4f76d082e36a938cccd743931",
    "mm3_1201": "b32621e0cf5a8270bff0b1945b0b5336d792318540117f9733664c74fa17b03c",
    "mm3_7_pairs": "d4f591309f503e3adfb9cdccf8d36a81faa68c0010a870f870de0c4a589b9e24",
    "q8": "662cbfa839dcfba3eb802aee522347e9c062251aae144eaee6f2511f32b74549",
    "q8_pairs": "3e7908780a5290714c81be99b5b210bb59f463d403c4d0df799e1e8ebc9adcee",
}

# The same hash with collect_pairs=True for dense-block MM(7, 43) (d = 14,
# each generator g as BlockDiag((Dense(g.to_dense()), g))), as the float grid
# kernel scored it: the widest float rows an exhaustive scan sees.
DENSE_BLOCK_GOLDEN = "5ad1b27906d383447a8be06d4f460ca6f2f063330d2e0939d6bd66cdb705b61e"

REDUCTION_GROUPS = {
    "q8": _q8_generators,
    "cyclic5": lambda: [Diagonal(tuple(UnitPoint.exact(j, 5) for j in range(5)))],
    "mm3_7": lambda: miller_moreno(default_miller_moreno(3, 7)),
    "mm5_11": lambda: miller_moreno(default_miller_moreno(5, 11)),
}


class TestClassReducedScan:
    """Exhaustive runs scan one row per conjugacy class."""

    @pytest.mark.parametrize("name", sorted(REDUCTION_GROUPS))
    def test_matches_all_pairs_loop(self, name):
        c = close(REDUCTION_GROUPS[name]())
        n = c.order
        exact = [pair_defect(a, b, with_matrices=False).defect_exact
                 for a in c.elements for b in c.elements]
        values = np.array([float(d) for d in exact])
        r = measure_asm(c, collect_pairs=True)
        assert r.epsilon_exact == max(exact)
        assert r.worst.pair == ("elements", *divmod(int(values.argmax()), n))
        counts, _ = np.histogram(values, bins=asm.DEFAULT_BINS, range=(0.0, 0.5))
        assert r.histogram.counts == tuple(int(x) for x in counts)
        assert r.pair_rows == [(i, j, values[i * n + j])
                               for i in range(n) for j in range(n)]

    def test_exact_run_builds_no_full_table(self, monkeypatch):
        c = close(miller_moreno(default_miller_moreno(3, 7)))
        built = spy_tables(monkeypatch)
        measure_asm(c)
        assert built == []
        measure_asm(c, collect_pairs=True)
        assert built == [c.order]

    def test_exact_run_reads_generator_exactness_once(self):
        c = close(miller_moreno(default_miller_moreno(3, 7)))
        reads = []

        class Spy:
            def __init__(self, g):
                self.g = g

            def __getattr__(self, name):
                return getattr(self.g, name)

            @property
            def exact(self):
                reads.append(self.g)
                return self.g.exact

        c.generators = [Spy(g) for g in c.generators]
        measure_asm(c)
        assert [s.g for s in c.generators] == reads

    @pytest.mark.parametrize("name", sorted(EXHAUSTIVE_GOLDEN))
    def test_report_matches_golden(self, name):
        if name.startswith("q8"):
            gens = _q8_generators()
        else:
            p, q = map(int, name[2:].split("_")[:2])
            gens = miller_moreno(default_miller_moreno(p, q))
        rep = measure_asm(close(gens), collect_pairs=name.endswith("_pairs"))
        blob = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == EXHAUSTIVE_GOLDEN[name]

    def test_dense_block_report_matches_golden(self):
        gens = [linalg.BlockDiag((Dense(g.to_dense()), g))
                for g in miller_moreno(default_miller_moreno(7, 43))]
        c = close(gens)
        assert isinstance(c.elements.code, groups._DenseCode)
        assert c.elements.rows.shape[1] == 14
        rep = measure_asm(c, collect_pairs=True)
        blob = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == DENSE_BLOCK_GOLDEN

    def test_exact_run_decodes_representatives_and_the_worst_pair(self, monkeypatch):
        # the k representatives' spectra come from their rows; only the
        # worst pair's three classes and its two matrices are decoded, and
        # only those classes' spectra built, whatever k is (13, then 403)
        built = []
        for cls in (Diagonal, linalg.MonomialCycle):
            def spy(self, real=cls.spectrum):
                built.append(self)
                return real(self)

            monkeypatch.setattr(cls, "spectrum", spy)
        for p, q in [(7, 43), (3, 1201)]:
            c = close(miller_moreno(default_miller_moreno(p, q)))
            want = measure_asm(c).to_json_dict()
            c.elements = _CountingElements(c.elements)
            built.clear()
            assert measure_asm(c).to_json_dict() == want
            assert c.elements.reads <= 5
            assert 1 <= len(built) <= 3

    @pytest.mark.parametrize("name", ["q8", "mm3_7", "mm7_43"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_matches_all_pairs_reference(self, name, seed, monkeypatch):
        c = _dense_closure(KERNEL_GROUPS[name](), seed)
        built = spy_tables(monkeypatch)
        r = measure_asm(c)
        assert built == []
        n = c.order
        # every pair through the float kernel, sigma(AB) from the full table
        angles = np.array([e.spectrum().angles() for e in c.elements])
        ref = asm._arc_defects(np.repeat(angles, n, axis=0),
                               np.tile(angles, (n, 1)),
                               angles[c.cayley_table().reshape(-1)])
        assert abs(r.epsilon - ref.max()) < 1e-13
        assert not r.exact and r.epsilon_exact is None
        _, i, _ = r.worst.pair
        assert c.conjugacy_labels()[i] == i
        assert r.worst.defect == r.epsilon
        assert sum(r.histogram.counts) == r.pair_total == n * n
        if name != "q8":
            # no defect of these groups sits on a bin edge (q8's 1/4 does)
            counts, _ = np.histogram(ref, bins=asm.DEFAULT_BINS, range=(0.0, 0.5))
            assert r.histogram.counts == tuple(int(x) for x in counts)


class TestTripleTally:
    """An exhaustive scan dedups, tallies and finds its first maximum on the
    unique class triples, never on the k x n representative rows."""

    @pytest.mark.parametrize("bound", [1, 7, 499, 500, 501, 4096])
    def test_unique_codes_match_np_unique(self, bound):
        # 500 codes: a table below and at the bound, a sort above it
        codes = np.random.default_rng(bound).integers(0, bound, size=500)
        uniq, inv = asm._unique_codes(codes, bound)
        want_uniq, want_inv = np.unique(codes, return_inverse=True)
        assert np.array_equal(uniq, want_uniq)
        assert np.array_equal(inv, want_inv)

    @pytest.mark.parametrize("p, q, sorted_", [(13, 157, False), (3, 61, True)])
    def test_dedup_branch_follows_the_sizes(self, p, q, sorted_, monkeypatch):
        # mm13_157: 14 distinct spectra, 14**3 <= 25 * 2041 triple codes;
        # mm3_61: 22 distinct spectra, 22**3 > 23 * 183
        c = close(miller_moreno(default_miller_moreno(p, q)))
        k = len(np.unique(c.conjugacy_labels()))
        sizes, real = [], np.unique

        def spy(a, *args, **kw):
            sizes.append(np.size(a))
            return real(a, *args, **kw)

        monkeypatch.setattr(np, "unique", spy)
        measure_asm(c)
        assert (k * c.order in sizes) is sorted_

    @pytest.mark.parametrize("name", sorted(REDUCTION_GROUPS))
    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_tally_and_first_maximum_match_the_rows(self, name, seed):
        gens = REDUCTION_GROUPS[name]()
        c = close(gens) if seed is None else _dense_closure(gens, seed)
        n = c.order
        reps, sizes = np.unique(c.conjugacy_labels(), return_counts=True)
        grid = np.array([v for _, _, v in measure_asm(
            c, collect_pairs=True).pair_rows]).reshape(n, n)
        # the k x n representative rows, each weighted by its class size
        per_rep = grid[reps]
        counts, _ = np.histogram(per_rep.reshape(-1), bins=asm.DEFAULT_BINS,
                                 range=(0.0, 0.5), weights=np.repeat(sizes, n))
        r, j = divmod(int(per_rep.argmax()), n)
        rep = measure_asm(c)
        assert rep.histogram.counts == tuple(int(x) for x in counts)
        assert rep.worst.pair == ("elements", int(reps[r]), j)
        assert rep.epsilon == per_rep.max()


class TestStackedSpectra:
    """A dense-coded closure's spectra come from one stacked eigensolve."""

    @pytest.mark.parametrize("name", ["q8", "mm3_7", "mm7_43"])
    def test_angles_match_each_spectrum(self, name):
        c = _dense_closure(KERNEL_GROUPS[name](), 4)
        assert isinstance(c.elements.code, groups._DenseCode)
        want = [spectrum_bits(e.spectrum()) for e in c.elements]
        assert list(map(spectrum_bits, linalg._dense_spectra(c.elements.rows))) == want

    def test_modulus_check_still_raises(self, monkeypatch):
        c = _dense_mm_closure(1)
        monkeypatch.setattr(linalg, "MODULUS_TOL", -1.0)
        with pytest.raises(NonUnitaryError, match="modulus"):
            measure_asm(c)

    def test_non_unitary_element_raises(self):
        c = _dense_mm_closure(1)
        c.elements.rows[7] *= 1.01
        assert not c.elements[7].unitary
        with pytest.raises(NonUnitaryError, match="needs a unitary"):
            measure_asm(c)

    def test_non_unitary_non_representative_raises(self):
        # only the class representatives are eigensolved; every element is
        # still checked for unitarity
        c = _dense_mm_closure(1)
        others = np.setdiff1d(np.arange(c.order), c.conjugacy_labels())
        x = int(others[-1])
        c.elements.rows[x] *= 1.01
        assert not c.elements[x].unitary
        with pytest.raises(NonUnitaryError, match="needs a unitary"):
            measure_asm(c)

    @pytest.mark.parametrize("name", ["mm3_7", "mm7_43", "mm3_7_block"])
    def test_eigensolves_only_class_representatives(self, name, monkeypatch):
        # the k stacked representatives; the worst pair reuses their spectra
        c = close(_dense_oracle_gens(name, 0))
        k = len(np.unique(c.conjugacy_labels()))
        solved, real = [], linalg.eigensolve_dense

        def spy(a):
            solved.append(math.prod(np.shape(a)[:-2]))
            return real(a)

        monkeypatch.setattr(linalg, "eigensolve_dense", spy)
        measure_asm(c, collect_pairs=True)
        assert sum(solved) == k < c.order


# exact generators; ``_dense_oracle_gens`` conjugates them into dense ones
DENSE_ORACLE_EXACT = {
    "q8": _q8_generators,
    "mm3_7": REDUCTION_GROUPS["mm3_7"],
    "mm5_11": REDUCTION_GROUPS["mm5_11"],
    "mm7_43": lambda: miller_moreno(default_miller_moreno(7, 43)),
    "mm3_7_block": REDUCTION_GROUPS["mm3_7"],
}


def _dense_oracle_gens(name, seed):
    """``DENSE_ORACLE_EXACT[name]`` conjugated by a seeded Haar unitary; a
    ``_block`` name keeps each exact generator as a second block, which
    changes no spectrum as a set."""
    gens = DENSE_ORACLE_EXACT[name]()
    dense = _conjugated(gens, seed)
    if name.endswith("_block"):
        return [linalg.BlockDiag(pair) for pair in zip(dense, gens)]
    return dense


class TestDenseAgainstExact:
    """A dense run against the exact run of the same group, which calls no
    eigensolver: conjugation changes no spectrum, so every pair's defect is
    the exact one up to rounding."""

    @pytest.mark.parametrize("name, seed", [
        (name, seed) for name in ("q8", "mm3_7", "mm5_11", "mm7_43")
        for seed in (0, 1)] + [("mm3_7_block", 0)])
    def test_level_and_histogram_match_the_exact_run(self, name, seed):
        exact = measure_asm(close(DENSE_ORACLE_EXACT[name]()))
        c = close(_dense_oracle_gens(name, seed))
        assert isinstance(c.elements.code, groups._DenseCode)
        r = measure_asm(c)
        assert c.order == exact.group_order
        assert abs(r.epsilon - float(exact.epsilon_exact)) < 1e-13
        assert r.worst.defect == r.epsilon
        if name != "q8":
            # q8's level 1/4 sits on a bin edge
            assert r.histogram.counts == exact.histogram.counts


def _loop_defect_exact(sa, sb, sab, scale):
    """Exact defect over integer angle numerators mod ``scale``, one gamma
    at a time by bisection among the sorted products: the reference for
    ``asm._arc_witness`` and the integer kernels.

    Returns (defect numerator, gamma, alpha, beta): the first maximizing
    gamma, then the nearest product, the upper neighbour on a tie, and the
    first (alpha, beta) in row-major order giving it.
    """
    prod_src = {}
    for x in sa:
        for y in sb:
            v = (x + y) % scale
            if v not in prod_src:
                prod_src[v] = (x, y)
    prods = sorted(prod_src)
    np_ = len(prods)
    best = -1
    best_w = None
    for g in sab:
        i = bisect_left(prods, g)
        d = None
        w = None
        for cand in (prods[i % np_], prods[(i - 1) % np_]):
            t = (g - cand) % scale
            t = min(t, scale - t)
            if d is None or t < d:
                d, w = t, cand
        if d > best:
            best = d
            best_w = (g, w)
    g, v = best_w
    x, y = prod_src[v]
    return best, g, x, y


def _loop_pair_sub_defect(a, b, pair: tuple = ("explicit",),
                          with_matrices: bool = True) -> PairDefect:
    """Chord defect of (a, b) one (gamma, alpha, beta) at a time, first
    minimum and first maximum by strict comparisons: the reference for
    ``pair_sub_defect`` and the batched chord kernel."""
    alphas, ra = asm._nonzero_eigs(a)
    betas, rb = asm._nonzero_eigs(b)
    if ra == 0.0 or rb == 0.0:
        raise ZeroSpectralRadiusError("spectral radius vanishes; defect undefined")
    if isinstance(a, SrElement) and isinstance(b, SrElement):
        gammas = [sr_pair_gamma(a, b)]
    else:
        gammas, _ = asm._nonzero_eigs(asm._sub_dense(a) @ asm._sub_dense(b))
    scale = ra * rb
    best = -1.0
    wit = None
    for g in gammas:
        d = None
        w = None
        for al in alphas:
            for be in betas:
                t = abs(g - al * be) / scale
                if d is None or t < d:
                    d, w = t, (al, be)
        if d is not None and d > best:
            best = d
            wit = (g, w[0], w[1])
    if wit is None:
        best, wit = 0.0, (0j, 0j, 0j)
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
        matrix_a=asm.matrix_to_json_like(a) if with_matrices else None,
        matrix_b=asm.matrix_to_json_like(b) if with_matrices else None,
    )


def _scalar_defects(sa, sb, sab, scale):
    """``_loop_defect_exact`` row by row, on each row's distinct angles."""
    return [_loop_defect_exact(sorted(set(a)), sorted(set(b)), sorted(set(ab)),
                               scale)[0]
            for a, b, ab in zip(sa.tolist(), sb.tolist(), sab.tolist())]


def _padded(rows, dtype=np.int64):
    width = max(len(r) for r in rows)
    return np.array([r + r[:1] * (width - len(r)) for r in rows], dtype=dtype)


# (scale, triples of distinct angle numerators of unequal lengths)
RANDOM_TRIPLES = st.integers(1, 60).flatmap(lambda scale: st.tuples(
    st.just(scale),
    st.lists(st.tuples(*[st.lists(st.integers(0, scale - 1), min_size=1,
                                  max_size=7, unique=True)] * 3),
             min_size=1, max_size=12)))

KERNEL_GROUPS = {
    "q8": _q8_generators,
    "cyclic5": REDUCTION_GROUPS["cyclic5"],
    "mm3_7": REDUCTION_GROUPS["mm3_7"],
    "mm7_43": lambda: miller_moreno(default_miller_moreno(7, 43)),
    "mm13_157": lambda: miller_moreno(default_miller_moreno(13, 157)),
}


class TestExactKernel:
    """The batched integer kernel against ``_loop_defect_exact``."""

    @pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
    def test_matches_scalar_on_every_unique_triple(self, name, monkeypatch):
        seen = []

        def checked(sa, sb, sab, scale=1.0, pair=None):
            out = kernel(sa, sb, sab, scale, pair)
            seen.append((len(out), len(sa)))
            assert np.all(np.diff(pair) >= 0) and len(np.unique(pair)) == len(sa)
            assert out.tolist() == _scalar_defects(sa[pair], sb[pair], sab, scale)
            return out

        kernel = asm._arc_defects
        monkeypatch.setattr(asm, "_arc_defects", checked)
        measure_asm(close(KERNEL_GROUPS[name]()))
        assert len(seen) == 1 and seen[0][0] >= seen[0][1] >= 1
        if name == "mm13_157":
            # 1,325 unique triples, one per symmetry orbit scored, on 57
            # distinct (sigma(A), sigma(B)) pairs
            assert seen[0] == (358, 57)

    def test_every_unique_triple_gets_its_own_defect(self, monkeypatch):
        # the defect gathered back to each unique triple from its orbit's
        # scored member is the triple's own scalar defect
        calls, real = [], asm._class_rows

        def spy(closure, spectra, class_of, rows, *rest):
            out = real(closure, spectra, class_of, rows, *rest)
            calls.append((spectra, class_of, rows, rest[1], out[0]))
            return out

        monkeypatch.setattr(asm, "_class_rows", spy)
        measure_asm(close(KERNEL_GROUPS["mm13_157"]()))
        (spectra, class_of, rows, scale, defects), = calls
        uniq = list(dict.fromkeys(spectra))
        ids = np.array([uniq.index(s) for s in spectra])
        ns = len(uniq)
        codes = np.unique((ids[:, None] * ns + ids[class_of][None, :]) * ns
                          + ids[class_of[rows]])
        want = [_loop_defect_exact(uniq[t // ns ** 2], uniq[t // ns % ns],
                                   uniq[t % ns], scale)[0] for t in codes.tolist()]
        assert len(want) == 1325
        assert defects.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(RANDOM_TRIPLES)
    def test_orbit_members_have_one_defect(self, case):
        scale, triples = case
        a, b, c = ([t[k] for t in triples] for k in range(3))

        def neg(rows):
            return [sorted((-x) % scale for x in r) for r in rows]

        members = [(a, b, c), (b, a, c), (neg(b), neg(a), neg(c)),
                   (neg(a), neg(b), neg(c))]
        got = [asm._arc_defects(*map(_padded, m), scale).tolist() for m in members]
        assert got == got[:1] * 4

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.lists(st.floats(0, 1, exclude_max=True),
                                         min_size=1, max_size=7)] * 3),
                    min_size=1, max_size=12))
    def test_float_swap_members_have_one_defect(self, triples):
        a, b, c = (_padded([t[k] for t in triples], float) for k in range(3))
        assert (asm._arc_defects(a, b, c).tobytes()
                == asm._arc_defects(b, a, c).tobytes())

    def test_missing_negated_spectrum_is_refused(self):
        # a complete group holds every spectrum's negation; a list without
        # one is refused, not a KeyError
        c = close(KERNEL_GROUPS["mm3_7"]())
        reps, class_of, sizes = np.unique(c.conjugacy_labels(),
                                          return_inverse=True, return_counts=True)
        angles, scale = c.elements.code.int_spectra(c.elements.rows[reps])
        angles[-1] = (1, 2)
        assert tuple(sorted((-x) % scale for x in angles[-1])) not in angles
        with pytest.raises(ClosureInvariantError, match="negation"):
            asm._class_rows(c, angles, class_of, c.cayley_rows(reps), sizes,
                            scale, False)

    @settings(max_examples=60, deadline=None)
    @given(RANDOM_TRIPLES)
    def test_random_spectra_of_unequal_lengths(self, case):
        scale, triples = case
        sa, sb, sab = (_padded([t[k] for t in triples]) for k in range(3))
        assert (asm._arc_defects(sa, sb, sab, scale).tolist()
                == _scalar_defects(sa, sb, sab, scale))

    @pytest.mark.parametrize("block", [1, 50, 400, asm._KERNEL_BLOCK])
    def test_block_size_does_not_change_the_result(self, block, monkeypatch):
        rng = np.random.default_rng(block)
        scale = 157 * 13
        sa, sb, sab = (_padded([sorted(set(rng.integers(0, scale, size=w).tolist()))
                                for w in rng.integers(1, 14, size=90)])
                       for _ in range(3))
        want = _scalar_defects(sa, sb, sab, scale)
        monkeypatch.setattr(asm, "_KERNEL_BLOCK", block)
        got = asm._arc_defects(sa, sb, sab, scale)
        assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("block", [1, 50, asm._KERNEL_BLOCK])
    @pytest.mark.parametrize("scale", [2, 157 * 13, 2**62 - 3, 2**63 - 25])
    def test_pair_rows_match_the_triples_they_expand_to(self, block, scale,
                                                        monkeypatch):
        # 40 pair rows, each used by 0 to 4 triples; from 2**62 on, sums of
        # two numerators pass int64 and wrap
        rng = np.random.default_rng(block + scale % 1000)
        sa, sb = (_padded([rng.integers(0, scale, size=w).tolist()
                           for w in rng.integers(1, 6, size=40)])
                  for _ in range(2))
        pair = np.repeat(np.arange(40), rng.integers(0, 5, size=40))
        sab = _padded([rng.integers(0, scale, size=w).tolist()
                       for w in rng.integers(1, 6, size=len(pair))])
        monkeypatch.setattr(asm, "_KERNEL_BLOCK", block)
        got = asm._arc_defects(sa, sb, sab, scale, pair)
        assert got.dtype == np.int64
        assert got.tolist() == _scalar_defects(sa[pair], sb[pair], sab, scale)
        assert np.array_equal(got, asm._arc_defects(sa[pair], sb[pair], sab, scale))
        fa, fb, fab = (x.astype(float) / scale for x in (sa, sb, sab))
        assert (asm._arc_defects(fa, fb, fab, pair=pair).tobytes()
                == asm._arc_defects(fa[pair], fb[pair], fab).tobytes())

    @pytest.mark.parametrize("scale", [2**62 - 3, 2**62 + 5, 2**63 - 25,
                                       2**63 - 1])
    def test_scales_near_the_int64_limit(self, scale):
        # past 2**62 the sums of two numerators wrap in int64 and the uint64
        # wrap-min reduces them; 2**63 - 1 is the largest int64 scale
        rows = [[0, scale - 1, scale // 3], [scale // 2], [1, scale - 2],
                [scale // 5, 3 * (scale // 7)], [7], [scale - 9, 2]]
        sa, sb = _padded(rows), _padded(rows[::-1])
        sab = _padded([[scale // 7, 5], [scale - 1], [2 * (scale // 5)], [3],
                       [scale // 2 + 1], [scale // 11, scale - 4]])
        got = asm._arc_defects(sa, sb, sab, scale)
        assert got.dtype == np.int64
        assert got.tolist() == _scalar_defects(sa, sb, sab, scale)

    @pytest.mark.parametrize("block", [1, asm._KERNEL_BLOCK])
    def test_wrapping_sums_in_blocks(self, block, monkeypatch):
        # sums of numerators wrap in int64 alike in blocks of any size
        scale = 2**63 - 25
        rng = np.random.default_rng(block)
        sa, sb, sab = (_padded([rng.integers(0, scale, size=w).tolist()
                                for w in rng.integers(1, 6, size=20)])
                       for _ in range(3))
        want = _scalar_defects(sa, sb, sab, scale)
        monkeypatch.setattr(asm, "_KERNEL_BLOCK", block)
        got = asm._arc_defects(sa, sb, sab, scale)
        assert got.dtype == np.int64 and got.tolist() == want


# float turns where gammas meet products exactly (sums of k/64 are exact),
# sit on the wrap (0.0 and the floats just below 1.0) or fall anywhere
EDGE_TURNS = (st.integers(0, 63).map(lambda k: k / 64)
              | st.sampled_from([0.0, 1 - 2**-52, 1 - 2**-53])
              | st.floats(0, 1, exclude_max=True))


class TestFloatKernel:
    """``_arc_defects`` on float turns, the sorted-neighbour search, against
    the full ``_arc_gaps`` grid, bit for bit (and, across product widths,
    on int64 numerators too)."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_grid(self, data):
        # rows of unequal lengths padded with repeats (width 1 when every
        # row has one angle); pair rows in runs, some used by no triple
        def rows(count):
            turns = st.lists(EDGE_TURNS, min_size=1,
                             max_size=data.draw(st.integers(1, 6)))
            return _padded(data.draw(st.lists(turns, min_size=count,
                                               max_size=count)), float)

        n = data.draw(st.integers(1, 8))
        pair = np.array(sorted(data.draw(st.lists(st.integers(0, n - 1),
                                                  min_size=1, max_size=20))))
        sa, sb, sab = rows(n), rows(n), rows(len(pair))
        want = asm._arc_gaps(sa[pair], sb[pair], sab).min(axis=2).max(axis=1)
        for block in (1, 50, asm._KERNEL_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(asm, "_KERNEL_BLOCK", block)
                got = asm._arc_defects(sa, sb, sab, pair=pair)
            assert got.tobytes() == want.tobytes()

    # product widths on both sides of powers of two, where the probe loop
    # of the binary search gains a step
    @pytest.mark.parametrize("wa, wb", [(1, 1), (1, 2), (3, 1), (2, 2), (7, 9),
                                        (8, 8), (5, 13), (10, 10), (8, 16),
                                        (3, 43)])
    def test_every_width_against_the_grid(self, wa, wb):
        rng = np.random.default_rng(wa * 100 + wb)
        n = 6
        sa, sb = rng.random((n, wa)), rng.random((n, wb))
        prods = np.add(sa[:, :, None], sb[:, None, :]).reshape(n, -1)
        _mod1(prods, out=prods)
        lo, top = prods.min(axis=1), prods.max(axis=1)
        pair = np.repeat(np.arange(n), [2, 0, 1, 3, 1, 2])
        # per triple: a gamma equal to a product of its row, one below the
        # row's first product, one above its last, and two anywhere
        sab = np.column_stack([
            prods[pair, rng.integers(0, wa * wb, len(pair))],
            np.nextafter(lo[pair], 0.0),
            np.nextafter(top[pair], 1.0),
            rng.random((len(pair), 2)),
        ])
        sab[sab == 1.0] = 0.0
        want = asm._arc_gaps(sa[pair], sb[pair], sab).min(axis=2).max(axis=1)
        for block in (1, 50, asm._KERNEL_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(asm, "_KERNEL_BLOCK", block)
                got = asm._arc_defects(sa, sb, sab, pair=pair)
            assert got.tobytes() == want.tobytes()
        # int64 numerators take the same search: a small scale, where
        # products repeat, and the largest int64 scale, against the grid in
        # Python ints
        for scale in (12, 2**63 - 1):
            sa, sb = rng.integers(0, scale, (n, wa)), rng.integers(0, scale, (n, wb))
            prods = (sa.astype(object)[:, :, None] + sb[:, None, :]) % scale
            prods = prods.reshape(n, -1)
            lo, top = prods.min(axis=1), prods.max(axis=1)
            sab = np.column_stack([
                prods[pair, rng.integers(0, wa * wb, len(pair))],
                (lo[pair] - 1) % scale,
                (top[pair] + 1) % scale,
                rng.integers(0, scale, (len(pair), 2)),
            ]).astype(np.int64)
            want = (asm._arc_gaps(sa[pair].astype(object), sb[pair].astype(object),
                                  sab.astype(object), scale)
                    .min(axis=2).max(axis=1).astype(np.int64))
            for block in (1, 50, asm._KERNEL_BLOCK):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(asm, "_KERNEL_BLOCK", block)
                    got = asm._arc_defects(sa, sb, sab, scale, pair)
                assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_gamma_across_the_wrap(self):
        # the products are 1 - 2**-53, 3/8 and 3/4 (the sums 11/8 - 2**-53
        # and 7/4 - 2**-53 round up): gamma 0.0 is nearest the first, across
        # the wrap, and gamma 1/2 nearer its lower neighbour 3/8 than 3/4
        sa, sb = np.array([[0.0, 3 / 8, 3 / 4]]), np.array([[1 - 2**-53]])
        for sab, want in (([[0.0]], 2**-53), ([[0.5]], 1 / 8)):
            got = asm._arc_defects(sa, sb, np.array(sab))
            assert got.tolist() == [want]
            assert got.tobytes() == (asm._arc_gaps(sa, sb, np.array(sab))
                                     .min(axis=2).max(axis=1).tobytes())


def _midpoints(prods: list, scale: int) -> list:
    """The points midway between circularly adjacent products, where the
    arc between them has even length (a lone product's is the whole
    circle)."""
    prods = sorted(set(prods))
    gaps = [(q - p - 1) % scale + 1 for p, q in zip(prods, prods[1:] + prods[:1])]
    return [(p + g // 2) % scale for p, g in zip(prods, gaps) if g % 2 == 0]


# scales of int64 grids and of Python-int grids (2 * scale past int64)
WITNESS_SCALES = st.sampled_from([2, 3, 12, 60, 2**62 - 3, 2**62 + 5, 2**63 + 11,
                                  3**45]) | st.integers(2, 10**4)


def _witness_values(sa, sb, sab, scale):
    """``asm._arc_witness`` of integer numerators with its witness indices
    read back as numerators, as ``_loop_defect_exact`` returns them."""
    d, gi, ai, bi = asm._arc_witness(sa, sb, sab, scale)
    return int(d), sab[gi], sa[ai], sb[bi]


def _midpoint_triple(data, scale: int) -> tuple:
    """Numerators mod ``scale`` of sigma(A) and sigma(B), and of sigma(AB)
    drawn partly from the points midway between products, where the nearest
    product ties."""
    angles = st.lists(st.integers(0, scale - 1), min_size=1, max_size=6)
    sa, sb = data.draw(angles), data.draw(angles)
    mids = _midpoints([(x + y) % scale for x in sa for y in sb], scale)
    sab = data.draw(st.lists(st.sampled_from(mids) | st.integers(0, scale - 1)
                             if mids else st.integers(0, scale - 1),
                             min_size=1, max_size=6))
    return sa, sb, sab


class TestExactWitness:
    """``_arc_witness``, the grid of one triple, against
    ``_loop_defect_exact``: its defect and its witness rule, on integer
    numerators and on float turns alike."""

    def test_midway_gamma_takes_the_product_above(self):
        # products 0 and 4 of 12, gamma 2 midway; products 1 and 11, gamma 0
        for sb in ([0, 4], [4, 0]):
            assert _witness_values([0], sb, [2], 12) == (2, 2, 0, 4)
        for sb in ([1, 11], [11, 1]):
            assert _witness_values([0], sb, [0], 12) == (1, 0, 0, 1)
        assert _loop_defect_exact([0], [4, 0], [2], 12) == (2, 2, 0, 4)

    def test_shared_product_takes_the_first_row_major_pair(self):
        # (2, 4) and (6, 0) both give 6, the product nearest gamma 7
        assert _witness_values([2, 6], [4, 0], [7], 32) == (1, 7, 2, 4)
        assert _witness_values([6, 2], [4, 0], [7], 32) == (1, 7, 6, 0)
        assert _loop_defect_exact([6, 2], [4, 0], [7], 32) == (1, 7, 6, 0)

    def test_first_maximizing_gamma(self):
        # gammas 5 and 3 each lie 1 from their nearest product, 6 and 2: the
        # first listed wins
        assert _witness_values([0], [2, 6], [5, 3], 12) == (1, 5, 0, 6)
        assert _loop_defect_exact([0], [2, 6], [5, 3], 12) == (1, 5, 0, 6)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_exact_and_float_twins_name_one_witness(self, exact):
        # sigma(A) = {0}, sigma(B) = {1/4, 3/4}, sigma(AB) = {1/2}: gamma lies
        # midway between its products, and the one above, 3/4, wins in
        # exact and float angles alike
        def spectrum(*turns):
            return linalg.Spectrum.from_points([
                UnitPoint.exact(*t.as_integer_ratio()) if exact
                else UnitPoint.approx(t) for t in turns])

        r = asm._spectra_pair(spectrum(0.0), spectrum(0.25, 0.75),
                              spectrum(0.5), ())
        assert r.defect == 0.25 and (r.defect_exact is not None) == exact
        assert ([w.turns for w in (r.witness_gamma, r.witness_alpha,
                                   r.witness_beta)] == [0.5, 0.0, 0.75])

    def test_float_offsets_are_taken_from_reduced_products(self):
        # 0 + 1/4 and 1/2 + 3/4 both reduce to the product 1/4 nearest gamma
        # 0.1; from the unreduced sums, fl(1.25 - 0.1) - 1 would round below
        # fl(0.25 - 0.1) and pick the second pair
        assert asm._arc_witness([0.0, 0.5], [0.25, 0.75], [0.1])[1:] == (0, 0, 0)

    def test_denominators_past_int64_take_the_python_int_grid(self):
        big, small = 2**61 - 1, 2**31 - 1
        a = Diagonal(tuple(UnitPoint.exact(k, big) for k in (1, 2**60, 5 * 2**57)))
        b = Diagonal(tuple(UnitPoint.exact(k, small) for k in (2**30, 3, 7)))
        spectra = [m.spectrum() for m in (a, b, matmul(a, b))]
        scale = math.lcm(*(s.common_denominator() for s in spectra))
        assert 2 * scale > np.iinfo(np.int64).max
        nums = [sorted({p.angle.num * (scale // p.angle.den) for p in s.points})
                for s in spectra]
        d, *wit = _loop_defect_exact(*nums, scale)
        r = pair_defect(a, b)
        assert r.defect_exact == Fraction(d, scale)
        assert ([r.witness_gamma, r.witness_alpha, r.witness_beta]
                == [UnitPoint.exact(v, scale) for v in wit])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_loop_with_gamma_on_midpoints(self, data):
        scale = data.draw(WITNESS_SCALES)
        sa, sb, sab = _midpoint_triple(data, scale)
        assert (_witness_values(sa, sb, sab, scale)
                == _loop_defect_exact(sa, sb, sab, scale))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dyadic_float_turns_match_the_loop(self, data):
        # turns k / 2^m add, reduce and subtract exactly in binary, so their
        # ties are exact ties
        scale = 2 ** data.draw(st.integers(1, 50))
        sa, sb, sab = _midpoint_triple(data, scale)
        d, gi, ai, bi = asm._arc_witness(*([x / scale for x in s]
                                           for s in (sa, sb, sab)))
        assert ((d * scale, sab[gi], sa[ai], sb[bi])
                == _loop_defect_exact(sa, sb, sab, scale))


def _sub_pairs() -> list:
    """Pairs for the chord defect: dense, low rank with repeated
    eigenvalues, unit diagonals whose products tie exactly, rank-one
    samples and their dense matrices."""
    rng = np.random.default_rng(47)

    def gauss(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    pairs = [(gauss(n), gauss(n)) for n in (2, 3, 4) for _ in range(4)]
    for _ in range(4):
        q = np.linalg.qr(gauss(4))[0]
        pairs.append(tuple(q @ np.diag(d) @ q.conj().T for d in
                           ([2, 2, 0, -1j], [0.5, 0.5, 0.5, 0])))
    units = np.diag([1, 1j, -1, -1j])
    pairs += [(units, units), (units, np.diag([1j, 1j, 1, 1])),
              (np.diag([1, -1]), np.diag([1j, -1j]))]
    for n in (2, 3, 5):
        a, b = (sr_sample(SrParams(0.7, n), rng) for _ in range(2))
        pairs += [(a, b), (a.matrix(), b.matrix()), (a, b.matrix())]
    return pairs


class TestSubWitness:
    """``pair_sub_defect``, one (gamma, alpha beta) grid, against
    ``_loop_pair_sub_defect``."""

    @pytest.mark.parametrize("t", range(len(_sub_pairs())))
    def test_matches_the_loop_bit_for_bit(self, t):
        a, b = _sub_pairs()[t]
        got = pair_sub_defect(a, b)
        want = _loop_pair_sub_defect(a, b)
        assert got.to_json_dict() == want.to_json_dict()
        assert np.float64(got.defect).tobytes() == np.float64(want.defect).tobytes()

    def test_no_gamma_gives_zero(self):
        # a nilpotent product has no eigenvalue above the tolerance
        a = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        d = pair_sub_defect(a, b)
        assert d.spectrum_ab == ()
        assert (d.defect, d.witness_gamma, d.witness_alpha, d.witness_beta) == (
            0.0, 0j, 0j, 0j)
        assert d.to_json_dict() == _loop_pair_sub_defect(a, b).to_json_dict()

    def test_finite_list_solves_each_spectrum_once(self, monkeypatch):
        # n element spectra, n**2 product spectra, and the worst pair's 3
        rng = np.random.default_rng(53)
        elems = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                 for _ in range(40)]
        calls, real = [], asm.general_spectrum

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(asm, "general_spectrum", counted)
        rep = measure_sub(elems, collect_pairs=True)
        assert len(calls) == 40 + 40 ** 2 + 3
        want = [pair_sub_defect(elems[i], elems[j], with_matrices=False).defect
                for i, j, _ in rep.pair_rows]
        assert (np.array([v for _, _, v in rep.pair_rows]).tobytes()
                == np.array(want).tobytes())

    def test_finite_list_refuses_the_first_bad_pair(self):
        # pair (0, 1) meets the zero radius before any pair reads the
        # non-finite matrix's spectrum
        live = np.diag([1.0, 2.0]).astype(complex)
        nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        bad = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(ZeroSpectralRadiusError):
            measure_sub([live, nil, bad])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_element_is_refused(self):
        live = SrElement(1.0, (0.1,), (0.2,))
        for bad in (SrElement(math.nan, (0j,), (0j,)),
                    SrElement(1e200, (1e200 + 0j,), (1e200 + 0j,))):
            with pytest.raises(InvalidParamsError, match="not finite"):
                pair_sub_defect(bad, live)
            with pytest.raises(InvalidParamsError, match="not finite"):
                measure_sub([bad, live])


class _CountingElements(Sequence):
    """An element list that counts the elements read from it; its code and
    rows, which decode no element, pass through uncounted."""

    def __init__(self, inner):
        self.inner = inner
        self.code = inner.code
        self.rows = inner.rows
        self.reads = 0

    def __len__(self):
        return len(self.inner)

    def __getitem__(self, i):
        self.reads += len(range(len(self))[i]) if isinstance(i, slice) else 1
        return self.inner[i]


# MM(41,739), n = 30,299, level 9/739, is the largest: about 0.7 s of the
# sweep's 1.2 s.
MM_SWEEP = [(p, q) for p in (3, 5, 7) for q in range(3, 100)
            if is_prime(q) and q % p == 1] + [(31, 311), (41, 739)]


@pytest.mark.parametrize("p,q", MM_SWEEP)
def test_mm_closed_form_conjecture(p, q):
    """Conjecture check, not a theorem: the default Miller-Moreno group's
    level is (q - 1)/(2pq).  It held on every instance tried so far.  The
    whole sweep should run in under about 2 s."""
    r = measure_asm(close(miller_moreno(default_miller_moreno(p, q))))
    assert r.epsilon_exact == Fraction(q - 1, 2 * p * q)


def _binary_dihedral_level(m):
    """The level of the binary dihedral group Dic_m from its group law
    alone, in integers over the scale 4m: no closure, no scan.

    The elements are a^j x^f (j < 2m, f < 2) with x a x^-1 = a^-1 and
    x^2 = a^m.  a^j has the angles +-2j / 4m and a^j x the angles
    {m, 3m} / 4m; a product is a^(j + (-1)^f k) x^(f + g), times a^m when
    f = g = 1.
    """
    scale = 4 * m

    def spectrum(j, f):
        return (m, 3 * m) if f else (2 * j % scale, -2 * j % scale)

    def arc(t):
        t %= scale
        return min(t, scale - t)

    level = 0
    for j in range(2 * m):
        for f in (0, 1):
            for k in range(2 * m):
                for g in (0, 1):
                    ab = spectrum((j + (-k if f else k) + (m if f and g else 0))
                                  % (2 * m), f ^ g)
                    level = max(level, max(
                        min(arc(c - x - y) for x in spectrum(j, f)
                            for y in spectrum(k, g))
                        for c in ab))
    return Fraction(level, scale)


@pytest.mark.parametrize("m", range(2, 25))
def test_binary_dihedral_level_matches_its_oracle(m):
    # Dic_m as <diag(z, z^-1), [[0, 1], [-1, 0]]>, z = e^(2 pi i / 2m): the
    # level is 1/4 for even m and (m - 1)/(4m) for odd m
    zeta = UnitPoint.exact(1, 2 * m)
    c = close([Diagonal((zeta, zeta.conj())),
               linalg.MonomialCycle((ONE, UnitPoint.exact(1, 2)), 1)])
    level = Fraction(1, 4) if m % 2 == 0 else Fraction(m - 1, 4 * m)
    assert c.order == 4 * m
    assert _binary_dihedral_level(m) == level
    assert measure_asm(c).epsilon_exact == level


# sha256 of json.dumps(report.to_json_dict(), sort_keys=True) for the cases
# below, as recorded when each chunk's stream became one numpy-native batch
# (sr_exhaustive: when sr_sample became a batch of one); each worst pair was
# re-derived through pair_defect or pair_sub_defect.
DRIVER_GOLDEN = {
    "sr_sampled": "d1bab9684b30fe4689c69f2f5d1e1ac289acab101d1ff3ed6add40d5b15e2f5a",
    "tadpole_exact": "9077712537548d3d9764d2d099cbfe15e33e405b78b4632ba49686a5f5bfa398",
    "sr_exhaustive": "ed3ac675ffcb79489e26d7e754027bed3608ce18d8ee97fb65ef8cfd0bedcc89",
}

# p -> (seed, sha256 of the report as ``_report_sha`` hashes it) of
# measure_asm_sampled(tadpole_sampler(p, exact=True), 5000, seed,
# collect_pairs=True), as recorded when each chunk's stream became one
# numpy-native batch: 5,000 pairs make chunks of 78 and 79 pairs, scored in
# several groups.
EXACT_SAMPLED_GOLDEN = {
    2: (52, "ba3e03e9ac3be5b6b7933c318c7151465bce6b921003ebd3f4c04afa8e13ad5f"),
    5: (55, "9725cd91f3f1c2c5b1afa09541428587613b252a777f68cfd8cfa5bc609dae12"),
    7: (57, "f3e228d49feae16be821d21a29c214dd16b82cc37b29c3bc953c40d555e9327a"),
}


def _report_sha(rep):
    blob = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestSampledDriverGolden:
    """Reports of the shared sampled driver against the two it replaced."""

    def test_sr_sampled(self):
        rep = measure_sub(sr_sampler(SrParams(0.5)), pair_count=300, seed=41,
                          collect_pairs=True)
        assert _report_sha(rep) == DRIVER_GOLDEN["sr_sampled"]

    def test_sr_sampled_through_the_pool(self, monkeypatch):
        pool_floor(monkeypatch, 1)
        # groups of 10 chunks, so that 2 workers get 7 tasks
        monkeypatch.setattr(asm, "SAMPLE_GROUP_PAIRS", 50)
        seen = spy_workers(monkeypatch)
        rep = measure_sub(sr_sampler(SrParams(0.5)), pair_count=300, seed=41,
                          workers=2, collect_pairs=True)
        assert seen == [(2, 7)]
        assert _report_sha(rep) == DRIVER_GOLDEN["sr_sampled"]

    def test_exact_tadpole_sampled(self):
        rep = measure_asm_sampled(tadpole_sampler(3, exact=True), 300, seed=42,
                                  collect_pairs=True)
        assert rep.exact
        assert _report_sha(rep) == DRIVER_GOLDEN["tadpole_exact"]

    def test_exact_tadpole_sampled_through_the_pool(self, monkeypatch):
        pool_floor(monkeypatch, 1)
        # groups of 10 chunks, so that 2 workers get 7 tasks
        monkeypatch.setattr(asm, "SAMPLE_GROUP_PAIRS", 50)
        seen = spy_workers(monkeypatch)
        reps = [measure_asm_sampled(tadpole_sampler(3, exact=True), 300, seed=42,
                                    workers=workers, collect_pairs=True)
                for workers in (1, 2)]
        assert seen == [(1, 7), (2, 7)]
        assert [_report_sha(rep) for rep in reps] == [DRIVER_GOLDEN["tadpole_exact"]] * 2

    @pytest.mark.parametrize("workers", [2, 5000])
    def test_pool_has_at_most_one_process_per_group(self, workers, monkeypatch):
        """A forking pool starts all of its processes at once, so a run asks
        for no more processes than it has groups; no process is started."""
        pool_floor(monkeypatch, 1)
        monkeypatch.setattr(asm, "SAMPLE_GROUP_PAIRS", 50)
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(asm, "ProcessPoolExecutor", SerialPool)
        rep = measure_asm_sampled(tadpole_sampler(3, exact=True), 300, seed=42,
                                  workers=workers, collect_pairs=True)
        # 300 pairs: 64 chunks of 4 or 5 pairs, 10 chunks a group
        assert asked == [min(workers, 7)]
        assert _report_sha(rep) == DRIVER_GOLDEN["tadpole_exact"]

    @pytest.mark.parametrize("p", sorted(EXACT_SAMPLED_GOLDEN))
    def test_exact_tadpole_sampled_in_groups(self, p):
        seed, sha = EXACT_SAMPLED_GOLDEN[p]
        rep = measure_asm_sampled(tadpole_sampler(p, exact=True), 5000, seed,
                                  collect_pairs=True)
        assert rep.exact and rep.epsilon_exact == Fraction(1, 2 * p * p)
        assert _report_sha(rep) == sha

    @pytest.mark.parametrize("seed", range(8))
    def test_worst_pair_is_the_first_maximum(self, seed):
        # about two pairs per chunk, so the maximum often opens a chunk
        rep = measure_sub(sr_sampler(SrParams(0.5)), pair_count=130, seed=seed,
                          collect_pairs=True)
        values = [v for _, _, v in rep.pair_rows]
        assert rep.worst.pair == ("sampled", values.index(max(values)))
        assert rep.worst.defect == rep.epsilon

    def test_sr_exhaustive(self):
        rng = np.random.default_rng(43)
        elements = [sr_sample(SrParams(0.5), rng) for _ in range(8)]
        rep = measure_sub(elements, collect_pairs=True)
        assert _report_sha(rep) == DRIVER_GOLDEN["sr_exhaustive"]


def _sampled_batch_chunk(args):
    """One chunk drawn and scored on its own, with its first maximum built
    as matrices: the task of a sampled run before chunks were stacked in
    groups, kept as the reference for ``asm._sampled_group``."""
    sampler, count, seed_seq, kernel = args
    drawn = sampler.batch(np.random.default_rng(seed_seq), count)
    vals = kernel(drawn)
    return vals, drawn.pair(int(vals.argmax()))


def _per_chunk_report(family, count, seed, collect_pairs):
    """The sampled run of ``family`` scored chunk by chunk in one process,
    as ``asm._measure_sampled`` scored it before groups: (defects, report)."""
    if family == "sr":
        sampler, kernel, vmax, convention = (
            sr_sampler(SrParams(0.5)), asm._sr_batch_defects, None, "nonzero")
        worst_of = pair_sub_defect
    else:
        sampler, kernel, vmax, convention = (
            tadpole_sampler(int(family[7:])), asm._tadpole_batch_defects, 0.5, None)
        worst_of = pair_defect
    sizes = asm._chunk_sizes(count, asm.SAMPLE_CHUNKS)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    parts = [_sampled_batch_chunk((sampler, c, s, kernel))
             for c, s in zip(sizes, seeds)]
    values = np.concatenate([p[0] for p in parts])
    best_idx = int(values.argmax())
    a, b = parts[int(np.searchsorted(np.cumsum(sizes), best_idx, side="right"))][1]
    worst = worst_of(a, b, pair=("sampled", best_idx))
    rows = ([(int(t), -1, float(v)) for t, v in enumerate(values)]
            if collect_pairs else None)
    return values, AsmReport(
        kind=worst.kind, mode="sampled", bound="lower",
        epsilon=float(values.max()), epsilon_exact=None, exact=False,
        pair_total=count, sample_count=count, seed=seed, group_order=None,
        worst=worst, histogram=asm._make_histogram(values, asm.DEFAULT_BINS, vmax),
        gamma_convention=convention, pair_rows=rows)


_REFERENCE_REPORTS: dict = {}


def _reference(family, count, collect_pairs=True):
    key = (family, count, collect_pairs)
    if key not in _REFERENCE_REPORTS:
        _REFERENCE_REPORTS[key] = _per_chunk_report(family, count, 7 * count + 1,
                                                    collect_pairs)
    return _REFERENCE_REPORTS[key]


def _grouped_report(family, count, **kw):
    if family == "sr":
        return measure_sub(sr_sampler(SrParams(0.5)), pair_count=count,
                           seed=7 * count + 1, **kw)
    return measure_asm_sampled(tadpole_sampler(int(family[7:])), count,
                               seed=7 * count + 1, **kw)


SAMPLED_FAMILIES = ["tadpole2", "tadpole3", "tadpole5", "tadpole7", "sr"]
# pair counts around the chunk count (64), around 800 (the group budget
# before it was 1,600) and around the group budget itself
GROUPED_COUNTS = [1, 63, 64, 65, 799, 800, 801, asm.SAMPLE_GROUP_PAIRS - 1,
                  asm.SAMPLE_GROUP_PAIRS, asm.SAMPLE_GROUP_PAIRS + 1, 5000, 24000]


class TestGroupedScoring:
    """Stacked groups against the per-chunk reference, bit for bit."""

    @pytest.mark.parametrize("count", GROUPED_COUNTS)
    @pytest.mark.parametrize("family", SAMPLED_FAMILIES)
    def test_matches_the_per_chunk_reference(self, family, count):
        values, ref = _reference(family, count)
        rep = _grouped_report(family, count, collect_pairs=True)
        got = np.array([v for _, _, v in rep.pair_rows])
        assert np.array_equal(got.view(np.int64), values.view(np.int64))
        assert rep.epsilon == ref.epsilon
        assert rep.worst.matrix_a is not None and rep.worst.matrix_b is not None
        assert rep.worst.to_json_dict() == ref.worst.to_json_dict()
        assert rep.histogram == ref.histogram
        assert rep.to_json_dict() == ref.to_json_dict()

    @pytest.mark.parametrize("count", [65, 5000])
    @pytest.mark.parametrize("family", SAMPLED_FAMILIES)
    def test_without_collected_pairs(self, family, count):
        _, ref = _reference(family, count, collect_pairs=False)
        assert _grouped_report(family, count).to_json_dict() == ref.to_json_dict()

    @pytest.mark.parametrize("family", ["tadpole5", "sr"])
    def test_pool_above_the_floor_matches_one_process(self, family, monkeypatch):
        # the tadpole floor, to which sr's is lowered
        count = TadpoleSampler.PARALLEL_MIN_PAIRS
        pool_floor(monkeypatch, count)
        seen = spy_workers(monkeypatch)
        one = _grouped_report(family, count, workers=1, collect_pairs=True)
        two = _grouped_report(family, count, workers=2, collect_pairs=True)
        # 64 chunks of 312 or 313 pairs, 5 chunks a group
        assert seen == [(1, 13), (2, 13)]
        assert one.to_json_dict() == two.to_json_dict()
        assert two.to_json_dict() == _reference(family, count)[1].to_json_dict()


class TestPoolFloor:
    """The pair count from which the tasks go to the pool, and whether a
    task is a group of chunks or one chunk."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def in_process(fn, chunk_args, workers):
            calls.append((len(chunk_args), workers))
            return [fn(c) for c in chunk_args]

        monkeypatch.setattr(asm, "_map_chunks", in_process)
        return calls

    def test_batched_run_below_its_floor_stays_in_process(self, calls):
        measure_asm_sampled(tadpole_sampler(3), 2048, seed=1, workers=2)
        # 64 chunks of 32 pairs, in groups of 50 and 14 chunks
        assert calls == [(2, 1)]

    def test_batched_run_from_its_floor_uses_the_pool(self, calls, monkeypatch):
        pool_floor(monkeypatch, 3000)
        for count in (3000, 2999):
            measure_sub(sr_sampler(SrParams(0.5)), pair_count=count, seed=1,
                        workers=2)
        # 64 chunks of at most 47 pairs, in groups of 34 and 30
        assert calls == [(2, 2), (2, 1)]

    def test_each_family_has_its_own_floor(self, monkeypatch):
        # 30,000 pairs reach the tadpole floor but not sr's, whose pool pays
        # later: the sr run stays in one process, whatever --workers says
        assert (TadpoleSampler.PARALLEL_MIN_PAIRS <= 30_000
                < SrSampler.PARALLEL_MIN_PAIRS)
        seen = spy_workers(monkeypatch)
        reps = [measure_sub(sr_sampler(SrParams(0.5)), pair_count=30_000,
                            seed=3, workers=workers).to_json_dict()
                for workers in (2, 1)]
        # 64 chunks of 468 or 469 pairs, 3 chunks a group
        assert seen == [(1, 22), (1, 22)]
        assert reps[0] == reps[1]

    @pytest.mark.parametrize("budget, count", [
        (800, 799), (800, 800), (800, 801), (800, 5000), (800, 12000),
        (50, 1000), (50, 3199), (50, 3200), (50, 3201), (50, 6000)])
    def test_no_group_exceeds_the_pair_budget(self, budget, count, monkeypatch):
        monkeypatch.setattr(asm, "SAMPLE_GROUP_PAIRS", budget)
        tasks = []

        def in_process(fn, chunk_args, workers):
            tasks.extend(chunk_args)
            return [fn(c) for c in chunk_args]

        monkeypatch.setattr(asm, "_map_chunks", in_process)
        measure_sub(sr_sampler(SrParams(0.5)), pair_count=count, seed=3)
        sizes = asm._chunk_sizes(count, asm.SAMPLE_CHUNKS)
        groups = [[c for c, _ in task[1]] for task in tasks]
        # every chunk once, in order
        assert [c for g in groups for c in g] == sizes
        if sizes[0] <= budget:
            assert max(map(sum, groups)) <= budget
            # as many chunks as the budget holds, but in the last group
            assert {len(g) for g in groups[:-1]} <= {budget // sizes[0]}
        else:
            assert all(len(g) == 1 for g in groups)


class _ZeroNormals:
    """A generator whose normals for the last element's x come out as
    zeros; every draw is still made from ``rng``."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size):
        gauss = self.rng.standard_normal(size)
        gauss[-1, 0] = 0.0
        return gauss

    def random(self, size):
        return self.rng.random(size)


class TestSrBatchChunk:
    """The batched chord kernel against ``_loop_pair_sub_defect`` pair by
    pair, and the run's winner against it too."""

    PER_PAIR = partial(_loop_pair_sub_defect, with_matrices=False)

    def _chunks(self, sampler, seed, count=40):
        seq = np.random.SeedSequence(seed)
        vals = asm._sampled_group((sampler, [(count, seq)], asm._sr_batch_defects))
        one_by_one = _one_pair_chunk((sr_sampler(sampler.params), count, seq,
                                      self.PER_PAIR))
        drawn = sampler.batch(np.random.default_rng(seq), count)
        return (vals, drawn.pair(int(vals.argmax()))), one_by_one

    def _assert_same(self, got, want):
        vals, pair = got
        svals, spair, sexact = want
        assert np.array_equal(vals.view(np.int64), svals.view(np.int64))
        assert not sexact
        assert (pair_sub_defect(*pair).to_json_dict()
                == _loop_pair_sub_defect(*spair).to_json_dict())

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chunk_matches_pair_sub_defect(self, n, r, seed):
        self._assert_same(*self._chunks(sr_sampler(SrParams(r, n)), seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_vector_assembles_to_zero(self, seed):
        """Normals that are all 0 give the vector 0; every other element of
        the batch stays bit for bit what it was."""
        sampler = sr_sampler(SrParams(0.5))
        want = sampler.batch(np.random.default_rng(seed), 10)
        got = sampler.batch(_ZeroNormals(np.random.default_rng(seed)), 10)
        assert not got.row[-1].any()
        got.row[-1] = want.row[-1]
        for a, b in zip((got.lam, got.row, got.col), (want.lam, want.row, want.col)):
            assert np.array_equal(a.view(np.float64), b.view(np.float64))

    def test_zero_normals_still_draw_the_radius(self):
        """``sr_sample`` makes the same draws whatever its normals are: a
        zero vector still takes its radius."""
        params = SrParams(0.5)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        e = sr_sample(params, _ZeroNormals(rng))
        assert not any(e.row) and any(e.col)
        assert sr_sample(params, ref).col == e.col
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sampler_without_batch(self, monkeypatch, workers):
        """A sampler without ``batch`` is refused before it draws; with one,
        the run is the one-pair reference's, in one process or the pool."""
        pool_floor(monkeypatch, 1)
        seen = spy_workers(monkeypatch)
        called = []

        def plain(rng):
            called.append(rng)
            return sr_sample(SrParams(0.5), rng)

        with pytest.raises(TypeError, match="batch"):
            measure_sub(plain, pair_count=300, seed=41, workers=workers)
        with pytest.raises(TypeError, match="batch"):
            measure_asm_sampled(plain, 300, seed=41, workers=workers)
        assert called == [] and seen == []
        ref = _one_pair_report(sr_sampler(SrParams(0.5)), 300, 41, pair_sub_defect,
                               None, "nonzero")
        assert _report_sha(ref) == DRIVER_GOLDEN["sr_sampled"]
        rep = measure_sub(sr_sampler(SrParams(0.5)), pair_count=300, seed=41,
                          workers=workers, collect_pairs=True)
        assert seen == [(workers, 1)]
        assert rep.to_json_dict() == ref.to_json_dict()

    def test_chord_kernel_rejects_zero_radius(self):
        z = np.array([0j, 1 + 0j])
        with pytest.raises(ZeroSpectralRadiusError):
            asm._chord_defects(z, z[::-1], z)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_chord_kernel_rejects_non_finite_values(self, bad):
        z = np.array([1 + 0j, 0.5j, bad + 0j])
        with pytest.raises(InvalidParamsError, match="not finite"):
            asm._chord_defects(z, z, z[::-1])
