"""Construction families: tadpole algebra, generator pairs, rank-one
semigroup, admissible prime sets."""

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_fuzz import JSON_VALUES, json_paths, replaced

from specmul import constructions
from specmul.asm import pair_defect
from specmul.circle import ONE, RationalAngle, UnitPoint
from specmul.constructions import (
    MillerMorenoParams,
    QSetParams,
    SR_MARGIN,
    SrBatch,
    SrElement,
    SrParams,
    TadpoleBatch,
    TadpoleParams,
    adversarial_case4_pair,
    cycle_matrix,
    default_miller_moreno,
    is_prime,
    miller_moreno,
    mm_gap_analysis,
    primes_up_to,
    q_set,
    random_det1_diagonal,
    sample_tadpole,
    spectrum_dck,
    sr_pair_gamma,
    sr_ratio_bound,
    sr_sample,
    sr_sampler,
    tadpole,
    tadpole_case,
    tadpole_identity,
    tadpole_inverse,
    tadpole_mul,
    tadpole_sampler,
)
from specmul.errors import (
    DeterminantNotOneError,
    InvalidParamsError,
    MalformedJsonError,
    PrimeMismatchError,
    SpecmulError,
)
from specmul.linalg import match_spectra

RNG = np.random.default_rng(20240902)


def naive_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


class TestPrimes:
    def test_small_values(self):
        got = [n for n in range(10_000) if is_prime(n)]
        assert got == [n for n in range(10_000) if naive_is_prime(n)]

    @pytest.mark.parametrize("n", [10**18 + 3, 2**61 - 1])
    def test_large_primes(self, n):
        assert is_prime(n)

    # strong pseudoprimes to the bases 2..7, 2..31 and 2..37
    @pytest.mark.parametrize("n", [3_215_031_751, 3_825_123_056_546_413_051,
                                   318_665_857_834_031_151_167_461])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_refuses_n_past_the_proven_bound(self):
        limit = constructions._MR_LIMIT
        assert not is_prime(limit - 1)
        with pytest.raises(InvalidParamsError):
            is_prime(limit)

    def test_sieve_matches_trial_division(self):
        assert primes_up_to(997) == [n for n in range(998) if naive_is_prime(n)]
        assert primes_up_to(1) == []


def random_params(p, rng=RNG, exact=True):
    return sample_tadpole(p, rng, exact=exact)


class TestSpectrumDck:
    def test_shifted_case_is_roots_of_unity(self):
        d = random_det1_diagonal(5, RNG, exact=True)
        s = spectrum_dck(d, 2, 5)
        assert [pt.angle for pt in s.points] == [RationalAngle(t, 5) for t in range(5)]

    def test_diagonal_case_keeps_entries(self):
        d = random_det1_diagonal(5, RNG, exact=True)
        s = spectrum_dck(d, 0, 5)
        assert sorted(pt.angle.as_fraction() for pt in s.points) == sorted(
            x.angle.as_fraction() for x in d)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_against_dense_eigensolver(self, k):
        d = random_det1_diagonal(5, RNG, exact=True)
        m = tadpole(TadpoleParams(5, d, k, (0,) * 4))
        head = m.to_dense()[:5, :5]
        ang = np.angle(np.linalg.eigvals(head)) / (2 * math.pi) % 1.0
        assert match_spectra(spectrum_dck(d, k, 5), ang) < 1e-8

    def test_rejects_bad_determinant(self):
        d = (UnitPoint.exact(1, 3), ONE, ONE)
        with pytest.raises(DeterminantNotOneError):
            spectrum_dck(d, 1, 3)

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidParamsError):
            spectrum_dck((ONE,) * 3, 1, 5)


# an exact and a float tadpole, as JSON
TADPOLE_DOCS = [
    TadpoleParams(3, (UnitPoint.exact(1, 9), UnitPoint.exact(1, 18),
                      UnitPoint.exact(5, 6)), 2, (1, 0)).to_json_dict(),
    TadpoleParams(2, (UnitPoint.approx(0.25), UnitPoint.approx(0.75)), 1,
                  (1,)).to_json_dict(),
]


class TestTadpoleParams:
    def test_validation(self):
        good = tadpole_identity(3)
        with pytest.raises(InvalidParamsError):
            TadpoleParams(4, (ONE,) * 4, 0, (0, 0, 0))  # p not prime
        with pytest.raises(InvalidParamsError):
            TadpoleParams(3, (ONE,) * 2, 0, (0, 0))  # wrong diagonal length
        with pytest.raises(InvalidParamsError):
            TadpoleParams(3, good.d, 3, good.a)  # k out of range
        with pytest.raises(InvalidParamsError):
            TadpoleParams(3, good.d, 0, (0,))  # wrong tail length
        with pytest.raises(InvalidParamsError):
            TadpoleParams(3, good.d, 0, (0, 3))  # exponent out of range
        with pytest.raises(InvalidParamsError):
            TadpoleParams(3, (UnitPoint.exact(1, 3), ONE, ONE), 0, (0, 0))  # det != 1

    def test_tail_points(self):
        t = TadpoleParams(3, (ONE,) * 3, 1, (2, 0))
        angles = [pt.angle for pt in t.tail_points()]
        # xi^(j*k + a_j*p) with xi of order p^2 = 9
        assert angles == [RationalAngle(0, 1), RationalAngle(7, 9), RationalAngle(2, 9)]

    def test_matrix_shape(self):
        m = tadpole(random_params(3))
        assert m.dim == 6
        dense = m.to_dense()
        assert np.allclose(dense[:3, 3:], 0) and np.allclose(dense[3:, :3], 0)

    def test_json_round_trip_exact(self):
        t = random_params(5)
        back = TadpoleParams.from_json_dict(t.to_json_dict())
        assert back == t

    def test_json_round_trip_float(self):
        t = random_params(3, exact=False)
        back = TadpoleParams.from_json_dict(t.to_json_dict())
        assert back.k == t.k and back.a == t.a
        assert all(x.turns == y.turns for x, y in zip(back.d, t.d))

    def test_json_float_angles_are_numbers(self):
        t = random_params(5, exact=False)
        d = t.to_json_dict()
        assert all(isinstance(e["angle"], float) for e in d["d"])
        assert TadpoleParams.from_json_dict(json.loads(json.dumps(d))) == t
        # files written with the angle as a decimal string still load
        old = dict(d, d=[dict(e, angle=repr(e["angle"])) for e in d["d"]])
        assert TadpoleParams.from_json_dict(old) == t

    @pytest.mark.parametrize("change", [
        {"k": 1.9}, {"k": True}, {"p": 3.0}, {"a": [0.2, 1.7]}, {"a": [False, 1]},
        {"a": "01"}, {"d": {"x": 1}}, {"d": [{"num": 0.5, "den": 1}] * 3},
    ], ids=["k-float", "k-bool", "p-float", "a-floats", "a-bool", "a-string",
            "d-object", "num-float"])
    def test_json_malformed_fields_raise(self, change):
        d = {**TadpoleParams(3, (ONE,) * 3, 1, (0, 1)).to_json_dict(), **change}
        with pytest.raises(MalformedJsonError):
            TadpoleParams.from_json_dict(d)

    def test_json_large_prime_is_refused_before_the_primality_test(self):
        # the diagonal's length is checked first and refuses this p
        d = {**tadpole_identity(3).to_json_dict(), "p": 2 ** 61 - 1}
        with pytest.raises(InvalidParamsError, match="length p"):
            TadpoleParams.from_json_dict(d)

    @pytest.mark.parametrize("d", [{"p": 3}, {}, [], None])
    def test_json_missing_fields_raise(self, d):
        with pytest.raises(MalformedJsonError):
            TadpoleParams.from_json_dict(d)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_json_fuzzed_fields_load_or_raise(self, data, value):
        doc = data.draw(st.sampled_from(TADPOLE_DOCS))
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        try:
            TadpoleParams.from_json_dict(replaced(doc, path, value))
        except SpecmulError:
            pass


class TestTadpoleAlgebra:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_product_params_match_matrix_product(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([3, 5]))
        a, b = random_params(p, rng), random_params(p, rng)
        got = tadpole(tadpole_mul(a, b)).to_dense()
        want = tadpole(a).to_dense() @ tadpole(b).to_dense()
        assert np.allclose(got, want, atol=1e-12)

    def test_associativity_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = int(rng.choice([3, 5, 7]))
            a, b, c = (random_params(p, rng) for _ in range(3))
            assert tadpole_mul(tadpole_mul(a, b), c) == tadpole_mul(a, tadpole_mul(b, c))

    def test_identity_laws(self):
        rng = np.random.default_rng(11)
        for p in (3, 5):
            e = tadpole_identity(p)
            a = random_params(p, rng)
            assert tadpole_mul(a, e) == a
            assert tadpole_mul(e, a) == a

    def test_inverse_laws(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = int(rng.choice([3, 5]))
            a = random_params(p, rng)
            e = tadpole_identity(p)
            assert tadpole_mul(a, tadpole_inverse(a)) == e
            assert tadpole_mul(tadpole_inverse(a), a) == e

    def test_mismatched_primes(self):
        with pytest.raises(PrimeMismatchError):
            tadpole_mul(tadpole_identity(3), tadpole_identity(5))

    def test_case_split(self):
        rng = np.random.default_rng(17)
        p = 5

        def with_k(k):
            t = random_params(p, rng)
            return TadpoleParams(p, t.d, k, t.a)

        assert tadpole_case(with_k(0), with_k(0)) == 1
        assert tadpole_case(with_k(0), with_k(2)) == 2
        assert tadpole_case(with_k(3), with_k(0)) == 2
        assert tadpole_case(with_k(1), with_k(2)) == 3
        assert tadpole_case(with_k(2), with_k(3)) == 4


class TestAdversarialPair:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_defect_is_exactly_half_grid_spacing(self, p):
        pa, pb = adversarial_case4_pair(p)
        assert tadpole_case(pa, pb) == 4
        d = pair_defect(tadpole(pa), tadpole(pb))
        assert d.defect_exact == Fraction(1, 2 * p * p)

    def test_product_head_sits_between_grid_points(self):
        p = 5
        pa, pb = adversarial_case4_pair(p, k=2)
        prod = tadpole_mul(pa, pb)
        assert prod.k == 0
        fr = [x.angle.as_fraction() for x in prod.d]
        assert fr[:-1] == [Fraction(1, 2 * p * p)] * (p - 1)
        assert fr[-1] == Fraction(-(p - 1), 2 * p * p) % 1

    def test_k_out_of_range(self):
        with pytest.raises(InvalidParamsError):
            adversarial_case4_pair(5, k=0)
        with pytest.raises(InvalidParamsError):
            adversarial_case4_pair(5, k=5)


class TestSamplers:
    def test_tadpole_sampler_exact_and_float(self):
        rng = np.random.default_rng(1)
        s = tadpole_sampler(3, exact=True)
        m = s(rng)
        assert m.dim == 6 and m.exact
        s = tadpole_sampler(3)
        assert not s(rng).exact

    def test_det1_float_really_corrects(self):
        pts = random_det1_diagonal(7, np.random.default_rng(2))
        total = sum(p.turns for p in pts) % 1.0
        assert min(total, 1.0 - total) < 1e-12


def loop_tadpoles(p, rng, n, exact=False):
    """n tadpoles drawn one row or one entry at a time, in the order the
    batch makes its calls: every head, then every shift with its tail.  The
    reference for ``TadpoleSampler.batch``; returns arrays (d, k, a) of
    ``n`` rows."""
    if exact:
        den = 2 * p * p
        picks = [rng.integers(0, 2, size=p - 1) for _ in range(n)]
        heads = []
        for pick in picks:
            nums = [int(rng.integers(0, (p * p, den)[c])) * (2 - c) for c in pick]
            heads.append(nums + [-sum(nums) % den])
        d = np.array(heads)
    else:
        angles = np.array([rng.random(p - 1) for _ in range(n)])
        last = (-angles.sum(axis=1)) % 1.0 % 1.0
        d = np.concatenate([angles, last[:, None]], axis=1)
    ints = np.array([rng.integers(0, p, size=p) for _ in range(n)])
    return d, ints[:, 0], ints[:, 1:]


def _with_buffer(seed, has_uint32, uinteger):
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    rng.bit_generator.state = state
    return rng


BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.SFC64,
                  np.random.MT19937]


class TestTadpoleReplay:
    """``TadpoleSampler.batch`` against ``loop_tadpoles``, which makes the
    batch's calls row by row: equal arrays, and the generator left where the
    loop leaves it."""

    @staticmethod
    def _assert_replays(p, rng, ref, count, exact=False):
        drawn = tadpole_sampler(p, exact=exact).batch(rng, count)
        d, k, a = loop_tadpoles(p, ref, 2 * count, exact)
        assert drawn.exact is exact
        assert drawn.d.dtype == d.dtype
        assert np.array_equal(drawn.d.view(np.int64), d.reshape(count, 2, p).view(np.int64))
        assert drawn.k.dtype == k.dtype and np.array_equal(drawn.k, k.reshape(count, 2))
        assert drawn.a.dtype == a.dtype
        assert np.array_equal(drawn.a, a.reshape(count, 2, p - 1))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("count", [1, 2, 7, 40])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_arrays_and_state_match_the_loop(self, p, count, buffered):
        for exact in (False, True):
            rng, ref = np.random.default_rng(p), np.random.default_rng(p)
            if buffered:  # one 32-bit draw leaves the high half in the buffer
                rng.integers(0, 3), ref.integers(0, 3)
                assert rng.bit_generator.state["has_uint32"] == 1
            self._assert_replays(p, rng, ref, count, exact)
            # and the next draws go on from there
            self._assert_replays(p, rng, ref, 3, exact)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("count", [1, 4])
    def test_forced_rejection_matches_the_loop(self, p, count):
        # a buffered 0 is the first 32-bit draw, and Lemire's method rejects 0
        for exact in (False, True):
            rng, ref = _with_buffer(1, 1, 0), _with_buffer(1, 1, 0)
            self._assert_replays(p, rng, ref, count, exact)

    def test_rejection_past_the_first_round(self):
        # 2**32 mod p = 30742 of 2**32 draws are rejected, so the 240,068
        # shift and tail draws of 2 pairs meet about 1.7 rejections
        for seed in range(6):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            self._assert_replays(60017, rng, ref, 2)

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS)
    def test_any_bit_generator(self, bitgen):
        for exact in (False, True):
            rng, ref = np.random.Generator(bitgen(3)), np.random.Generator(bitgen(3))
            self._assert_replays(5, rng, ref, 7, exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_tadpole_is_a_batch_of_one(self, exact):
        for p in (2, 3, 5, 7):
            rng, ref = np.random.default_rng(p), np.random.default_rng(p)
            for _ in range(5):
                got = sample_tadpole(p, rng, exact=exact)
                d, k, a = loop_tadpoles(p, ref, 1, exact)
                want = TadpoleBatch(p, d[None], k[None], a[None], exact).params(0, 0)
                assert got == want and got.exact is exact
                np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
            head = random_det1_diagonal(p, rng, exact=exact)
            assert head == constructions._head_points(
                constructions._det1_heads(p, ref, 1, exact)[0], p, exact)
            np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    def test_shifts_and_tails_lie_in_range(self):
        for p in (2, 5, 7):
            for exact in (False, True):
                drawn = tadpole_sampler(p, exact=exact).batch(np.random.default_rng(p), 500)
                assert set(drawn.k.ravel().tolist()) == set(range(p))
                assert set(drawn.a.ravel().tolist()) == set(range(p))

    def test_batch_refuses_a_composite_p(self):
        with pytest.raises(InvalidParamsError):
            tadpole_sampler(4).batch(np.random.default_rng(0), 5)


class TestExactHead:
    """The exact heads: each denominator picked by ``integers(0, 2)``, as
    ``choice`` of the two picks it, each numerator on its grid, and every
    row summing to 0 mod 2p^2."""

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize("p", [2, 5])
    def test_draws_as_choice_does(self, bitgen, p):
        den = 2 * p * p
        for seed in range(20):
            rng = np.random.Generator(bitgen(seed))
            ref = np.random.Generator(bitgen(seed))
            got = constructions._det1_heads(p, rng, 10, exact=True)
            over = ref.choice((p * p, den), size=(10, p - 1))
            assert np.array_equal(got[:, :-1], ref.integers(0, over) * (den // over))
            np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_heads_lie_on_the_grid_and_sum_to_zero(self, p):
        den = 2 * p * p
        d = constructions._det1_heads(p, np.random.default_rng(p), 4000, exact=True)
        assert d.dtype == np.int64 and ((d >= 0) & (d < den)).all()
        assert not (d.sum(axis=1) % den).any()
        # a numerator over p^2 is even over 2p^2; one over 2p^2 is odd half
        # the time, so about 1/4 of the free entries are odd
        odd = float((d[:, :-1] % 2).mean())
        assert 0.22 < odd < 0.28


class TestMod1:
    """``_mod1`` (x - floor(x)) equals numpy's float ``x % 1.0`` bit for bit;
    the batched spectra and the float kernel rely on it."""

    @staticmethod
    def _assert_same(x):
        with np.errstate(invalid="ignore"):
            want = np.remainder(x, 1.0)
            got = constructions._mod1(x)
            out = np.empty_like(x)
            into = constructions._mod1(x, out=out)
            in_place = x.copy()
            constructions._mod1(in_place, out=in_place)
        nan = np.isnan(want)
        for res in (got, into, in_place):
            assert np.array_equal(np.isnan(res), nan)
            assert np.array_equal(res[~nan].view(np.int64), want[~nan].view(np.int64))
        assert into is out

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_double(self, xs):
        # st.floats() draws nan, +-inf, +-0 and subnormals too
        self._assert_same(np.array(xs, dtype=float))

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, words):
        self._assert_same(np.array(words, dtype=np.uint64).view(np.float64))

    def test_edge_values(self):
        tiny = 5e-324
        self._assert_same(np.array([
            0.0, -0.0, tiny, -tiny, -1e-300, -2.0 ** -53, 1 - 2.0 ** -53,
            -(1 - 2.0 ** -53), 1.0, -1.0, 2.0, -2.0, 2.0 ** 52 + 0.5, 2.0 ** 53,
            1e308, -1e308, np.inf, -np.inf, np.nan]))


class TestBatchStacking:
    """``concat`` and ``take`` of the sampled batches."""

    @staticmethod
    def _check(parts, spectra):
        stacked = type(parts[0]).concat(parts)
        pairs = [x.pair(t) for x in parts for t in range(len(spectra(x)[0]))]
        assert [stacked.pair(t) for t in range(len(pairs))] == pairs
        for got, want in zip(spectra(stacked),
                             (np.concatenate(z) for z in zip(*map(spectra, parts)))):
            assert got.tobytes() == want.tobytes()
        for t, pair in enumerate(pairs):
            one = stacked.take(t)
            assert one.pair(0) == pair
            assert not any(np.shares_memory(getattr(one, f), getattr(stacked, f))
                           for f in vars(one) if isinstance(getattr(one, f), np.ndarray))
        assert type(parts[0]).concat(parts[:1]) is parts[0]

    def test_tadpole(self):
        sampler = tadpole_sampler(5)
        self._check([sampler.batch(np.random.default_rng(s), c)
                     for s, c in ((0, 3), (1, 1), (2, 4))],
                    lambda x: x.spectra())

    def test_sr(self):
        sampler = sr_sampler(SrParams(0.5))
        self._check([sampler.batch(np.random.default_rng(s), c)
                     for s, c in ((0, 3), (1, 1), (2, 4))],
                    lambda x: x.eigenvalues())


def loop_sr_elements(params, rng, n):
    """n ``sr`` elements drawn one call at a time, in the order the batch
    makes its calls (every turn, every normal vector, every radius), and
    assembled in Python scalars: the reference for ``SrSampler.batch``.
    Returns arrays (lam (n,), row (n, dim), col (n, dim))."""
    dim = params.n - 1
    turns = [rng.random() for _ in range(n)]
    gauss = [rng.standard_normal(2 * dim) for _ in range(2 * n)]
    radii = [rng.random() for _ in range(2 * n)]
    vectors = []
    for g, u in zip(gauss, radii):
        v = g[:dim] + 1j * g[dim:]
        nrm = math.sqrt(sum(abs(z) ** 2 for z in v.tolist()))
        vectors.append(v / (nrm or 1.0) * (params.r * SR_MARGIN * u ** (1 / (2 * dim))))
    vectors = np.array(vectors).reshape(n, 2, dim)
    lam = np.array([cmath.exp(2j * math.pi * u) for u in turns])
    return lam, vectors[:, 0], vectors[:, 1]


class TestSrReplay:
    """``SrSampler.batch`` against ``loop_sr_elements``: equal arrays up to
    the rounding of numpy's ``exp``, ``**`` and norm against Python's, and
    the generator left where the loop leaves it."""

    @staticmethod
    def _assert_replays(params, rng, ref, count):
        drawn = sr_sampler(params).batch(rng, count)
        for got, want in zip((drawn.lam, drawn.row, drawn.col),
                             loop_sr_elements(params, ref, 2 * count)):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("count", [1, 5, 60])
    @pytest.mark.parametrize("has_uint32", [0, 1])
    def test_arrays_and_state_match_the_loop(self, n, count, has_uint32):
        params, seed = SrParams(0.5, n), 100 * n + count
        rng = _with_buffer(seed, has_uint32, 0x9E3779B9)
        ref = _with_buffer(seed, has_uint32, 0x9E3779B9)
        self._assert_replays(params, rng, ref, count)
        # the next draws, 32-bit ones first, go on from there
        assert np.array_equal(rng.integers(0, 7, size=3), ref.integers(0, 7, size=3))
        assert rng.normal() == ref.normal()
        self._assert_replays(params, rng, ref, 3)

    def test_draws_match_the_loop_over_many_chunks(self):
        params = SrParams(0.5, 4)
        for seed in range(120):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            self._assert_replays(params, rng, ref, 25)

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS)
    def test_any_bit_generator(self, bitgen):
        rng, ref = np.random.Generator(bitgen(3)), np.random.Generator(bitgen(3))
        self._assert_replays(SrParams(0.7, 3), rng, ref, 20)

    def test_one_element_is_a_batch_of_one(self):
        params = SrParams(0.5, 4)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(5):
            got = sr_sample(params, rng)
            want = constructions._draw_sr(params, ref, 1)
            assert got == SrElement(complex(want.lam[0]), tuple(want.row[0]),
                                    tuple(want.col[0]))
            np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    def test_long_stream_follows_the_radius_law(self):
        # 4,000 elements of dimension 8: |lam| = 1, every vector inside the
        # ball of radius r * SR_MARGIN, and the radii s (over that radius)
        # pass a Kolmogorov-Smirnov test of P(s <= x) = x^(2 dim) at the
        # 0.1% level, where a uniform s fails it
        params = SrParams(0.5, 8)
        drawn = sr_sampler(params).batch(np.random.default_rng(11), 2000)
        np.testing.assert_allclose(np.abs(drawn.lam), 1.0, rtol=0, atol=1e-15)
        norms = np.linalg.norm(np.stack([drawn.row, drawn.col]), axis=-1).ravel()
        s = norms / (params.r * SR_MARGIN)
        assert s.max() < 1.0

        def ks(u):
            u, n = np.sort(u), len(u)
            return max((np.arange(1, n + 1) / n - u).max(), (u - np.arange(n) / n).max())

        bound = 1.95 / math.sqrt(len(s))
        assert ks(s ** 14) < bound < ks(s)


class TestMillerMoreno:
    def test_validation(self):
        ok = ((1, 2, 4),)
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(4, 7, ok, (RationalAngle(0, 1),))  # p not prime
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(3, 3, ok, (RationalAngle(0, 1),))  # p == q
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(3, 7, (), ())  # no rows
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(3, 7, ok, ())  # fewer scalars than rows
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(3, 7, ((1, 2),), (RationalAngle(0, 1),))  # short row
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(3, 7, ((7, 2, 5),), (RationalAngle(0, 1),))  # zero mod q
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(3, 7, ((1, 1, 1),), (RationalAngle(0, 1),))  # constant
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(3, 7, ((1, 2, 3),), (RationalAngle(0, 1),))  # sum != 0
        with pytest.raises(InvalidParamsError):
            MillerMorenoParams(3, 7, ok, (RationalAngle(1, 6),))  # scalar order not 3^j

    def test_default_row_is_geometric(self):
        params = default_miller_moreno(3, 7)
        g = params.theta_exponents[0][1]
        assert pow(g, 3, 7) == 1 and g != 1
        assert params.theta_exponents[0] == (1, g % 7, g * g % 7)
        assert params.m == 1 and params.n == 3

    def test_default_needs_compatible_primes(self):
        with pytest.raises(PrimeMismatchError):
            default_miller_moreno(3, 5)  # 5 != 1 mod 3

    def test_generator_matrices(self):
        x, y = miller_moreno(default_miller_moreno(3, 7))
        assert x.dim == y.dim == 3
        xd, yd = x.to_dense(), y.to_dense()
        assert np.allclose(xd, np.diag(np.diag(xd)))
        assert np.allclose(np.linalg.matrix_power(yd, 3), np.eye(3), atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(xd, 7), np.eye(3), atol=1e-12)

    def test_extra_scalar_slots(self):
        params = MillerMorenoParams(
            3, 7, ((1, 2, 4),), (RationalAngle(0, 1), RationalAngle(1, 3)))
        assert params.n == 4
        x, y = miller_moreno(params)
        assert x.dim == 4
        assert y.to_dense()[3, 3] == pytest.approx(np.exp(2j * np.pi / 3))


class TestMmGapAnalysis:
    def test_small_instance(self):
        r = mm_gap_analysis(default_miller_moreno(3, 7))
        assert (r.n, r.distinct_products, r.product_bound) == (3, 3, 3)
        assert r.widest_gap == Fraction(1, 3)
        assert r.gap_midpoint == RationalAngle(1, 6)
        assert r.midpoint_distance == Fraction(1, 6)
        assert r.midpoint_distance >= r.midpoint_lower_bound == Fraction(1, 16)
        assert r.nearest_qth_root == RationalAngle(1, 7)
        assert r.root_distance == Fraction(1, 7)
        assert r.asm_threshold == Fraction(1, 18)

    def test_large_prime_instance(self):
        r = mm_gap_analysis(default_miller_moreno(3, 151))
        assert r.distinct_products <= r.product_bound == 3
        assert r.nearest_qth_root == RationalAngle(25, 151)
        assert r.root_distance == Fraction(25, 151)
        assert r.root_distance >= r.root_distance_lower_bound == Fraction(135, 2416)
        # the guaranteed gap beats the threshold the defect has to clear
        assert r.root_distance_lower_bound > r.asm_threshold

    def test_products_counted_exactly(self):
        params = default_miller_moreno(3, 7)
        _, y = miller_moreno(params)
        sy = [pt.angle.as_fraction() for pt in y.spectrum().points]
        syi = [pt.angle.as_fraction() for pt in y.inverse().spectrum().points]
        want = {(a + b) % 1 for a in sy for b in syi}
        assert mm_gap_analysis(params).distinct_products == len(want)

    @pytest.mark.parametrize("q", [2, 3, 4, 7, 12, 31, 61])
    def test_nontrivial_root_against_the_scan(self, q):
        # every midpoint between adjacent roots (exact ties), angles just
        # off them and off 1, values past 1 and random fractions
        rng = np.random.default_rng(q)
        xs = [Fraction(j, 2 * q) + d for j in range(4 * q)
              for d in (0, Fraction(1, 10**9), -Fraction(1, 10**9))]
        xs += [Fraction(int(n), 10**6) for n in rng.integers(0, 2 * 10**6, 200)]

        def arc(f, g):
            d = (f - g) % 1
            return min(d, 1 - d)

        for x in xs:
            want = min(range(1, q), key=lambda j: arc(Fraction(j, q), x))
            assert constructions._nontrivial_root(x, q) == RationalAngle(want, q), x


def _bits(*values) -> bytes:
    """The exact bits of complex scalars, or of an element's lam and vectors."""
    if isinstance(values[0], SrElement):
        (e,) = values
        values = (e.lam, *e.row, *e.col)
    return np.array(values, dtype=complex).tobytes()


class TestRankOneSemigroup:
    def test_params_validation(self):
        with pytest.raises(InvalidParamsError):
            SrParams(0.0)
        with pytest.raises(InvalidParamsError):
            SrParams(1.0)
        with pytest.raises(InvalidParamsError):
            SrParams(0.5, n=1)

    def test_matrix_layout_and_rank(self):
        e = SrElement(1j, (0.1 + 0.2j, 0.0), (0.3j, 0.1))
        m = e.matrix()
        assert m.shape == (3, 3)
        assert m[0, 0] == 1j
        assert np.linalg.matrix_rank(m) == 1

    def test_nonzero_eigenvalue_is_trace(self):
        for _ in range(50):
            e = sr_sample(SrParams(0.5), RNG)
            assert e.nonzero_eigenvalue() == pytest.approx(np.trace(e.matrix()))
            assert e.spectral_radius() == pytest.approx(abs(np.trace(e.matrix())))

    def test_pair_gamma_is_product_trace(self):
        params = SrParams(0.6, n=5)
        for _ in range(50):
            a, b = sr_sample(params, RNG), sr_sample(params, RNG)
            assert sr_pair_gamma(a, b) == pytest.approx(
                np.trace(a.matrix() @ b.matrix()))

    def test_sample_stays_in_ball(self):
        params = SrParams(0.4, n=6)
        for _ in range(100):
            e = sr_sample(params, RNG)
            assert abs(abs(e.lam) - 1.0) < 1e-12
            assert np.linalg.norm(e.row) < 0.4
            assert np.linalg.norm(e.col) < 0.4

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_batch_draws_what_sr_sample_draws(self, n, r):
        # sr_sample is a batch of one element: the batch draws its 80
        # elements at once, and its eigenvalues are the elements' own, bit
        # for bit
        sampler = sr_sampler(SrParams(r, n))
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        drawn = sampler.batch(rng, 40)
        want = constructions._draw_sr(sampler.params, ref, 80)
        eigs = drawn.eigenvalues()
        for t in range(40):
            a, b = drawn.pair(t)
            assert [_bits(e) for e in (a, b)] == [_bits(e) for e in want.pair(t)]
            want_eigs = (a.nonzero_eigenvalue(), b.nonzero_eigenvalue(), sr_pair_gamma(a, b))
            assert _bits(*(z[t] for z in eigs)) == _bits(*want_eigs)
        assert rng.random() == ref.random()

    def test_batch_of_elements(self):
        sampler = sr_sampler(SrParams(0.7, 5))
        drawn = sampler.batch(np.random.default_rng(8), 25)
        again = SrBatch.of([e for t in range(25) for e in drawn.pair(t)])
        assert all(again.pair(t) == drawn.pair(t) for t in range(25))
        assert all(np.array_equal(x, y)
                   for x, y in zip(again.eigenvalues(), drawn.eigenvalues()))

    def test_ratio_bound_value_and_validity(self):
        assert sr_ratio_bound(0.5) == pytest.approx(16.0 / 9.0)
        params = SrParams(0.5)
        bound = sr_ratio_bound(0.5)
        for _ in range(200):
            a, b = sr_sample(params, RNG), sr_sample(params, RNG)
            gamma = sr_pair_gamma(a, b)
            prod = a.nonzero_eigenvalue() * b.nonzero_eigenvalue()
            assert abs(gamma / prod - 1.0) <= bound + 1e-12


class TestQSet:
    def test_params_validation(self):
        with pytest.raises(InvalidParamsError):
            QSetParams(4, Fraction(1, 10))
        with pytest.raises(InvalidParamsError):
            QSetParams(5, Fraction(1, 10))  # epsilon not below 1/(2p)
        with pytest.raises(InvalidParamsError):
            QSetParams(5, Fraction(0))

    def test_delta_and_cutoff(self):
        params = QSetParams(5, Fraction(2, 25))
        assert params.delta == Fraction(1, 50)
        assert params.cutoff == 25

    def test_known_members(self):
        res = q_set(QSetParams(3, Fraction(11, 75)))
        assert res.members == (3, 5, 7)
        assert res.cutoff == 25

    def test_p_always_qualifies(self):
        for p in (3, 5, 7, 11):
            eps = Fraction(1, 2 * p) - Fraction(1, 100 * p)
            res = q_set(QSetParams(p, eps))
            assert p in res.members

    def test_against_brute_force(self):
        params = QSetParams(5, Fraction(3, 40))
        res = q_set(params)
        delta = params.delta
        for q, member, witness in res.verdicts:
            # scan every fraction against every odd multiple of 1/(2p)
            bad = [
                Fraction(k, q)
                for k in range(1, q)
                for j in range(0, 2 * params.p, 2)
                if abs(Fraction(k, q) - Fraction(j + 1, 2 * params.p)) < delta
            ]
            assert member == (not bad)
            if witness is not None:
                assert witness in bad

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 10**6 + 3])
    def test_window_witness_against_the_scan(self, p):
        # deltas up to just below 1/(2p), and q past and below p
        def scan(q, delta):
            for k in range(1, q):
                if abs(Fraction(k, q) % Fraction(1, p) - Fraction(1, 2 * p)) < delta:
                    return Fraction(k, q)
            return None

        half = Fraction(1, 2 * p)
        deltas = [half / 1000, half / 7, Fraction(2, 5) * half, half / 2,
                  Fraction(9, 10) * half, half - Fraction(1, 10**6 * p)]
        for delta in deltas:
            for q in range(2, 90):
                assert constructions._window_witness(q, p, delta) == scan(q, delta)

    def test_q_max_truncates(self):
        res = q_set(QSetParams(3, Fraction(11, 75)), q_max=4)
        assert all(q <= 4 for q, _, _ in res.verdicts)

    def test_json_dict(self):
        d = q_set(QSetParams(3, Fraction(11, 75))).to_json_dict()
        assert d["members"] == [3, 5, 7]
        assert d["epsilon"] == "11/75"
        assert any(v["witness"] for v in d["verdicts"])


class TestCycleMatrix:
    def test_shape_and_order(self):
        c = cycle_matrix(4).to_dense()
        assert np.allclose(np.linalg.matrix_power(c, 4), np.eye(4))
        assert c[0, 1] == 1.0
        with pytest.raises(InvalidParamsError):
            cycle_matrix(1)
