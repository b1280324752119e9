"""Construction families: tadpole algebra, generator pairs, rank-one
semigroup, admissible prime sets."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_fuzz import JSON_VALUES, json_paths, replaced

from specmul import _ziggurat, constructions
from specmul.asm import pair_defect
from specmul.circle import ONE, RationalAngle, UnitPoint
from specmul.constructions import (
    MillerMorenoParams,
    QSetParams,
    SrBatch,
    SrElement,
    SrParams,
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
        got = [n for n in range(200) if is_prime(n)]
        assert got == [n for n in range(200) if naive_is_prime(n)]

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
        # trial division up to sqrt(2^61 - 1) would take minutes; the
        # diagonal's length refuses this p at once
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


def loop_batch(p, rng, count):
    """``TadpoleSampler(p).batch`` drawn one scalar call at a time, the way
    2*count ``sample_tadpole`` calls draw: the reference for the raw-word
    replay.  Returns the arrays (d, k, a) of the batch."""
    angles, k, a = [], [], []
    for _ in range(2 * count):
        angles.append(rng.random(p - 1))
        k.append(rng.integers(0, p))
        a.append(rng.integers(0, p, size=p - 1))
    angles = np.array(angles)
    last = (-angles.sum(axis=1)) % 1.0 % 1.0
    d = np.concatenate([angles, last[:, None]], axis=1)
    return (d.reshape(count, 2, p), np.array(k).reshape(count, 2),
            np.array(a).reshape(count, 2, p - 1))


def _with_buffer(seed, has_uint32, uinteger):
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    rng.bit_generator.state = state
    return rng


class TestTadpoleReplay:
    """``TadpoleSampler.batch`` replays raw PCG64 words; ``loop_batch`` is
    the scalar-call reference."""

    @staticmethod
    def _assert_replays(p, rng, ref, count):
        drawn = tadpole_sampler(p).batch(rng, count)
        d, k, a = loop_batch(p, ref, count)
        assert np.array_equal(drawn.d.view(np.int64), d.view(np.int64))
        assert drawn.k.dtype == k.dtype and np.array_equal(drawn.k, k)
        assert drawn.a.dtype == a.dtype and np.array_equal(drawn.a, a)
        # the generator is left where the loop leaves it, buffer included
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("count", [1, 2, 7, 40])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_arrays_and_state_match_the_loop(self, p, count, buffered):
        rng, ref = np.random.default_rng(p), np.random.default_rng(p)
        if buffered:  # one 32-bit draw leaves the high half in the buffer
            rng.integers(0, 3), ref.integers(0, 3)
            assert rng.bit_generator.state["has_uint32"] == 1
        self._assert_replays(p, rng, ref, count)
        # and the next draws go on from there
        self._assert_replays(p, rng, ref, 3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("count", [1, 4])
    def test_forced_rejection_matches_the_loop(self, p, count):
        # a buffered 0 is the first 32-bit draw, and Lemire's method rejects 0
        rng, ref = _with_buffer(1, 1, 0), _with_buffer(1, 1, 0)
        probe = _with_buffer(1, 1, 0).bit_generator
        assert constructions._replay_words(probe, p, 2 * count)[2] == 0
        self._assert_replays(p, rng, ref, count)

    def test_rejection_past_the_first_round(self):
        # 2**32 mod p = 30742 draws are rejected, so about 0.43 rounds in one
        p, rounds, hits = 60017, 3, set()
        for seed in range(6):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            probe = np.random.default_rng(seed).bit_generator
            hits.add(constructions._replay_words(probe, p, rounds)[2])
            angles, ints = constructions._tadpole_draws(rng, p, rounds)
            for t in range(rounds):
                assert np.array_equal(angles[t], ref.random(p - 1))
                assert ints[t, 0] == ref.integers(0, p)
                assert np.array_equal(ints[t, 1:], ref.integers(0, p, size=p - 1))
            assert rng.bit_generator.state == ref.bit_generator.state
        assert hits - {None, 0}

    def test_other_bit_generators_decline(self):
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(TypeError, match="Philox"):
            tadpole_sampler(3).batch(rng, 5)
        assert rng.random() == np.random.Generator(np.random.Philox(0)).random()
        # exact draws make the one-pair calls themselves, on any bit generator
        ref = np.random.Generator(np.random.Philox(0))
        ref.random()
        drawn = tadpole_sampler(3, exact=True).batch(rng, 5)
        want = [sample_tadpole(3, ref, exact=True) for _ in range(10)]
        assert [drawn.params(t, side) for t in range(5) for side in (0, 1)] == want
        # Philox's state holds arrays, which print in full at this size
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    def test_batch_refuses_a_composite_p(self):
        with pytest.raises(InvalidParamsError):
            tadpole_sampler(4).batch(np.random.default_rng(0), 5)


def _exact_head_by_choice(p, rng):
    """``constructions._exact_head`` as it drew with ``rng.choice``."""
    den = 2 * p * p
    nums = []
    for _ in range(p - 1):
        over = int(rng.choice((p * p, den)))
        nums.append(int(rng.integers(0, over)) * (den // over))
    return nums + [-sum(nums) % den]


class TestExactHead:
    """The exact draw picks its denominator with ``integers(0, 2)``, which
    gives the integer and leaves the generator as ``choice`` of the two
    does; a numpy whose ``choice`` draws otherwise fails here."""

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize("p", [2, 5])
    def test_draws_as_choice_does(self, bitgen, p):
        for seed in range(20):
            rng = np.random.Generator(bitgen(seed))
            ref = np.random.Generator(bitgen(seed))
            got = [constructions._exact_head(p, rng) for _ in range(10)]
            assert got == [_exact_head_by_choice(p, ref) for _ in range(10)]
            np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


class TestMod1:
    """``_mod1`` (x - floor(x)) equals numpy's float ``x % 1.0`` bit for bit;
    the batched spectra and the float kernel rely on it."""

    @staticmethod
    def _assert_same(x):
        with np.errstate(invalid="ignore"):
            want = np.remainder(x, 1.0)
            got = constructions._mod1(x)
            out, floor = np.empty_like(x), np.empty_like(x)
            into = constructions._mod1(x, out=out, floor=floor)
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


def loop_sr_batch(params, rng, count):
    """``SrSampler(params).batch`` drawn one scalar call at a time, the way
    2*count ``sr_sample`` calls draw: the reference for the raw-word replay.
    Returns the draws (turns, gauss, radii) that ``SrSampler.assemble``
    takes."""
    dim = params.n - 1
    turns, gauss, radii = [], [], []
    for _ in range(2 * count):
        turns.append(rng.random())
        for _ in range(2):  # x, then y
            gauss.append(rng.normal(size=2 * dim))
            radii.append(rng.random())
    return (np.array(turns), np.array(gauss).reshape(2 * count, 2, 2 * dim),
            np.array(radii).reshape(2 * count, 2))


def _same_bits(got, want) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _unit(word) -> float:
    return (int(word) >> 11) * 2.0 ** -53


def _branches(words, draws, pattern):
    """Which branch of numpy's ziggurat each ``normal()`` draw took, told
    from the raw words and the drawn values alone, and how many words the
    draws used.  ``pattern`` marks the normal draws of a round, as in
    ``_pcg64_draws``."""
    z = _ziggurat
    counts = dict.fromkeys(("fast", "wedge accept", "wedge reject", "tail"), 0)
    q = 0
    for value, is_normal in zip(draws.tolist(), itertools.cycle(pattern)):
        if not is_normal:
            assert value == _unit(words[q])
            q += 1
            continue
        while True:
            w = int(words[q])
            layer, mag = w & 0xFF, (w >> 9) & (2**52 - 1)
            x = -(mag * z.WI[layer]) if w >> 8 & 1 else mag * z.WI[layer]
            if mag < z.KI[layer]:
                assert value == x
                counts["fast"] += 1
                q += 1
                break
            if layer == 0:
                # the accepted pair is the first whose R + xx is the draw
                q += 1
                while z.R + -z.INV_R * math.log1p(-_unit(words[q])) != abs(value):
                    q += 2
                counts["tail"] += 1
                q += 2
                break
            q += 2
            if value == x:
                counts["wedge accept"] += 1
                break
            counts["wedge reject"] += 1
    return counts, q


class TestSrReplay:
    """``SrSampler.batch`` replays raw PCG64 words, ziggurat normals
    included; ``loop_sr_batch`` is the scalar-call reference."""

    @staticmethod
    def _assert_replays(params, rng, ref, count):
        sampler = sr_sampler(params)
        drawn = sampler.batch(rng, count)
        want = sampler.assemble(*loop_sr_batch(params, ref, count))
        for name in ("lam", "row", "col"):
            assert _same_bits(getattr(drawn, name), getattr(want, name))
        # the generator is left where the loop leaves it, buffer included
        assert rng.bit_generator.state == ref.bit_generator.state

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
            got = constructions._sr_draws(rng.bit_generator, 3, 2 * 25)
            want = loop_sr_batch(params, ref, 25)
            assert all(_same_bits(g, w) for g, w in zip(got, want))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_long_stream_takes_every_branch(self):
        params, seed = SrParams(0.5, 8), 11
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        words = np.random.default_rng(seed).bit_generator.random_raw(150_000)
        turns, gauss, radii = constructions._sr_draws(rng.bit_generator, 7, 4000)
        want = loop_sr_batch(params, ref, 2000)
        assert all(_same_bits(g, w) for g, w in zip((turns, gauss, radii), want))
        assert rng.bit_generator.state == ref.bit_generator.state
        # the calls in the order sr_sample makes them
        stream = np.concatenate([turns[:, None], gauss[:, 0], radii[:, :1],
                                 gauss[:, 1], radii[:, 1:]], axis=1).ravel()
        vector = [True] * 14 + [False]
        counts, used = _branches(words, stream, [False] + 2 * vector)
        # the replay used as many words as the branches did
        probe = np.random.default_rng(seed).bit_generator
        probe.advance(used)
        assert probe.state["state"] == rng.bit_generator.state["state"]
        # of 112,000 normals, 111,083 end on a fast word, 892 on an accepting
        # wedge and 25 in the tail; 800 wedges reject and start over
        assert counts["fast"] > 100_000
        assert counts["wedge accept"] > 300 and counts["wedge reject"] > 300
        assert counts["tail"] >= 10

    def test_quick_wedges_are_the_one_word_draws(self):
        # a slow word is decided at once exactly when its draw takes one more
        # word; the first 20 words are layer 0 past KI[0] (the tail), each
        # followed by a word whose u is 1 - 2**-53
        words = np.random.default_rng(5).bit_generator.random_raw(100_000)
        words[:40:2] = np.uint64((int(_ziggurat.KI[0]) + 1) << 9)
        words[1:40:2] = np.uint64(2**64 - 1)
        slow, quick = constructions._slow_words(words)
        assert set(range(0, 40, 2)) <= set(slow) and sum(quick) > 500
        for p, decided in zip(slow, quick):
            try:
                used = constructions._slow_normal(words, p)[1]
            except IndexError:
                assert not decided
                continue
            assert decided == (used == 2)

    def test_running_short_draws_more_words(self, monkeypatch):
        grew = []
        more = constructions._more_words

        def spy(*args):
            grew.append(len(args[1]))
            return more(*args)

        monkeypatch.setattr(constructions, "_more_words", spy)
        for seed in range(300):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            # three normals get three words and no spare: a slow word runs
            # out inside its draw or leaves the last draw without a word
            got = constructions._pcg64_draws(rng.bit_generator, [True] * 3, 1)
            assert _same_bits(got.ravel(), ref.normal(size=3))
            assert rng.bit_generator.state == ref.bit_generator.state
        assert grew

    def test_other_bit_generators_decline(self):
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(TypeError, match="Philox"):
            sr_sampler(SrParams(0.5)).batch(rng, 5)
        assert rng.random() == np.random.Generator(np.random.Philox(0)).random()


class TestZigguratGuard:
    """The ziggurat tables and steps copied from numpy against numpy itself:
    an upgrade that changes them would silently move every ``sr`` report."""

    def test_replays_standard_normal(self):
        rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        got = constructions._pcg64_draws(rng.bit_generator, [True], 250_000).ravel()
        want = ref.standard_normal(250_000)
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert not differ.size, (
            f"numpy {np.__version__}: the ziggurat replay differs from "
            f"standard_normal at {differ.size} of 250,000 draws, first at "
            f"{differ[0]}; its tables or steps changed")
        assert rng.bit_generator.state == ref.bit_generator.state, (
            f"numpy {np.__version__}: the ziggurat replay used a different "
            f"number of words than standard_normal")


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
        sampler = sr_sampler(SrParams(r, n))
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        drawn = sampler.batch(rng, 40)
        eigs = drawn.eigenvalues()
        for t in range(40):
            a, b = sr_sample(sampler.params, ref), sr_sample(sampler.params, ref)
            assert [_bits(e) for e in drawn.pair(t)] == [_bits(a), _bits(b)]
            want = (a.nonzero_eigenvalue(), b.nonzero_eigenvalue(), sr_pair_gamma(a, b))
            assert _bits(*(z[t] for z in eigs)) == _bits(*want)
        # the batch left the generator where 80 sr_sample calls leave it
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
