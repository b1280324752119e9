"""Group closures: enumeration, Cayley tables, centres, irreducibility."""

import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_fuzz import JSON_VALUES

from specmul.circle import ONE, UnitPoint
from specmul.cli import (
    _param_closure_count,
    _q8_generators,
    _restricted_tadpole_generators,
)
from specmul.constructions import (
    MillerMorenoParams,
    RationalAngle,
    default_miller_moreno,
    miller_moreno,
    tadpole,
)
from specmul import cli, groups, linalg
from specmul.asm import measure_asm
from specmul.errors import (
    ClosureInvariantError,
    ClosureRefusedError,
    IncompleteClosureError,
    MalformedJsonError,
    SpecmulError,
)
from specmul.groups import (
    DEFAULT_BUDGET,
    GroupClosure,
    _check_generator_action,
    centre,
    close,
    closure_from_json,
    closure_to_json,
    is_irreducible,
    quotient_order_mod_centre,
)
from specmul.linalg import (
    BlockDiag,
    Dense,
    Diagonal,
    MonomialCycle,
    identity_like,
    matmul,
)


def spy_tables(monkeypatch):
    """Record the order of every closure whose full Cayley table is built."""
    built, real = [], GroupClosure.cayley_table

    def spy(self):
        built.append(self.order)
        return real(self)

    monkeypatch.setattr(GroupClosure, "cayley_table", spy)
    return built


def cyclic_generator(p):
    return Diagonal(tuple(UnitPoint.exact(j, p) for j in range(p)))


class TestClose:
    def test_cyclic_group(self):
        c = close([cyclic_generator(5)])
        assert c.complete and c.order == 5
        assert centre(c) == list(range(5))
        assert quotient_order_mod_centre(c) == 1

    def test_quaternion_group(self):
        c = close(_q8_generators())
        assert c.complete and c.order == 8
        assert len(centre(c)) == 2
        assert quotient_order_mod_centre(c) == 4

    def test_identity_is_element_zero(self):
        c = close(_q8_generators())
        assert np.allclose(c.elements[0].to_dense(), np.eye(2))
        assert c.index_of(c.generators[0]) == c.gen_indices[0]

    def test_budget_stops_cleanly(self):
        c = close(_q8_generators(), max_elements=5)
        assert not c.complete
        assert c.order <= 5
        with pytest.raises(IncompleteClosureError):
            c.cayley_table()

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_refused(self, budget):
        with pytest.raises(ValueError, match="at least 1"):
            close(_q8_generators(), max_elements=budget)

    def test_refuses_approx_structured(self):
        g = Diagonal((UnitPoint.approx(0.123), ONE))
        with pytest.raises(ClosureRefusedError):
            close([g])

    def test_no_generators(self):
        with pytest.raises(ValueError):
            close([])

    def test_duplicate_generators_collapse(self):
        g = cyclic_generator(3)
        c = close([g, g])
        assert c.order == 3
        assert len(c.generators) == 1

    def test_mixed_families_densify(self):
        # same group given as (diagonal, monomial) and as dense matrices
        structured = close(_q8_generators())
        mixed = close([_q8_generators()[0], Dense(_q8_generators()[1].to_dense())])
        assert all(isinstance(e, Dense) for e in mixed.elements)
        assert mixed.complete and mixed.order == structured.order

    def test_dense_unitary_closure(self):
        dense_gens = [Dense(g.to_dense()) for g in _q8_generators()]
        c = close(dense_gens)
        assert c.complete and c.order == 8


@pytest.fixture(scope="module")
def q8():
    return close(_q8_generators())


class TestCayleyTable:
    def test_against_brute_force(self, q8):
        cay = q8.cayley_table()
        for i in range(q8.order):
            for j in range(q8.order):
                prod = matmul(q8.elements[i], q8.elements[j])
                assert q8.index_of(prod) == cay[i, j]

    def test_is_a_latin_square(self, q8):
        cay = q8.cayley_table()
        want = np.arange(q8.order)
        for i in range(q8.order):
            assert np.array_equal(np.sort(cay[i]), want)
            assert np.array_equal(np.sort(cay[:, i]), want)

    def test_inverse_index(self, q8):
        inv = q8.inverses()
        for i in range(q8.order):
            j = inv[i]
            assert np.allclose(
                matmul(q8.elements[i], q8.elements[j]).to_dense(), np.eye(2),
                atol=1e-12)

    def test_rows_on_demand_match_the_table(self, monkeypatch):
        c = close(miller_moreno(default_miller_moreno(3, 7)))
        idx = [5, 0, 20, 5, 11]
        built = spy_tables(monkeypatch)
        rows = c.cayley_rows(idx)
        assert built == []
        assert np.array_equal(rows, c.cayley_table()[idx])
        assert c.cayley_rows([]).shape == (0, 21)

    @pytest.mark.parametrize("make", [
        lambda: close(miller_moreno(default_miller_moreno(5, 11))),
        lambda: _object_closure(miller_moreno(default_miller_moreno(5, 11))),
        lambda: close([Dense(g.to_dense()) for g in _q8_generators()]),
        lambda: close([cyclic_generator(7)]),
    ], ids=["mm5_11_array", "mm5_11_object", "q8_dense", "cyclic7"])
    def test_layered_rows_match_the_column_loop(self, make):
        c = make()
        idx = np.arange(c.order)[::-1]
        want = np.empty((c.order, c.order), dtype=np.int64)
        want[:, 0] = idx
        for j in range(1, c.order):
            pj, gj = c.parents[j]
            want[:, j] = c.gen_table[want[:, pj], gj]
        assert np.array_equal(c.cayley_rows(idx), want)

    def test_rows_of_the_trivial_group(self):
        c = close([Diagonal((ONE, ONE))])
        assert c.cayley_rows([0, 0]).tolist() == [[0], [0]]

    def test_rows_need_a_complete_closure(self):
        with pytest.raises(IncompleteClosureError):
            close(_q8_generators(), max_elements=5).cayley_rows([0])


def _class_oracle(c):
    """Class minimum of every x over {g x g^-1 : g}, from the full table."""
    cay = c.cayley_table()
    inv = [int(np.nonzero(cay[g] == 0)[0][0]) for g in range(c.order)]
    return [min(int(cay[cay[g, x], inv[g]]) for g in range(c.order))
            for x in range(c.order)]


def _union_find_labels(c):
    """Class minimum of every element: the orbits of x -> g^-1 x g over the
    generators g, joined one edge at a time by union-find."""
    inverses = []
    for col in c.gen_table.T:
        prev, x = 0, int(col[0])
        while x != 0:
            prev, x = x, int(col[x])
        inverses.append(prev)
    left = c.cayley_rows(inverses)
    root = list(range(c.order))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for gi, row in enumerate(left):
        for x, y in enumerate(c.gen_table[row, gi].tolist()):
            rx, ry = find(x), find(y)
            root[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(c.order)]


CLASS_GROUPS = {
    "q8": (_q8_generators, 5),
    "cyclic5": (lambda: [cyclic_generator(5)], 5),
    "mm3_7": (lambda: miller_moreno(default_miller_moreno(3, 7)), 3 + 6 // 3),
    "mm5_11": (lambda: miller_moreno(default_miller_moreno(5, 11)), 5 + 10 // 5),
}


class TestConjugacyClasses:
    @pytest.mark.parametrize("name", sorted(CLASS_GROUPS))
    def test_labels_match_brute_force(self, name):
        gens, count = CLASS_GROUPS[name]
        c = close(gens())
        labels = c.conjugacy_labels()
        assert labels.tolist() == _class_oracle(c)
        # Q8 has 5 classes, MM(p, q) has p + (q - 1)/p
        assert len(np.unique(labels)) == count

    def test_dense_closure_labels(self):
        c = close([Dense(g.to_dense()) for g in _q8_generators()])
        assert c.conjugacy_labels().tolist() == _class_oracle(c)

    @pytest.mark.parametrize("p,q", [(3, 7), (13, 157), (41, 739)])
    def test_labels_match_union_find(self, p, q):
        c = close(miller_moreno(default_miller_moreno(p, q)))
        labels = c.conjugacy_labels()
        assert labels.tolist() == _union_find_labels(c)
        assert len(np.unique(labels)) == p + (q - 1) // p

    def test_object_closure_labels(self):
        c = _object_bfs(DENSE_BLOCK_GROUPS["q8"]())
        assert isinstance(c.elements, list)
        assert c.conjugacy_labels().tolist() == _class_oracle(c)


class TestCentre:
    @pytest.mark.parametrize("name", ["q8", "cyclic5", "mm3_7"])
    def test_matches_full_table_scan(self, name, monkeypatch):
        c = close(CLASS_GROUPS[name][0]())
        built = spy_tables(monkeypatch)
        z = centre(c)
        assert built == []
        cay = c.cayley_table()
        assert z == [i for i in range(c.order)
                     if all(cay[i, g] == cay[g, i] for g in c.gen_indices)]


class TestClosureInvariants:
    def test_corrupted_gen_table_rejected(self):
        table = close(_q8_generators()).gen_table.copy()
        _check_generator_action(table)
        table[3, 1] = table[4, 1]
        with pytest.raises(ClosureInvariantError, match="generator 1"):
            _check_generator_action(table)

    @staticmethod
    def _merge_fifth_product(monkeypatch):
        """Make the closure's fifth product come out as the identity, so
        two elements times the same generator land on one element.  The
        closure forms its products a layer at a time with
        ``_MonomialCode.products`` or ``_DenseCode.products``."""
        calls = []
        products = groups._MonomialCode.products
        dense_products = groups._DenseCode.products

        def bad_products(code, rows, gen_rows):
            out = products(code, rows, gen_rows)
            flat = out.reshape(-1, 2 * code.dim)
            t = 4 - len(calls)
            if 0 <= t < len(flat):
                flat[t] = np.concatenate([np.arange(code.dim), np.zeros(code.dim)])
            calls.extend([None] * len(flat))
            return out

        def bad_dense_products(rows, gen_rows):
            out = dense_products(rows, gen_rows)
            flat = out.reshape(-1, *rows.shape[1:])
            t = 4 - len(calls)
            if 0 <= t < len(flat):
                flat[t] = np.eye(rows.shape[1])
            calls.extend([None] * len(flat))
            return out

        monkeypatch.setattr(groups._MonomialCode, "products", bad_products)
        monkeypatch.setattr(groups._DenseCode, "products",
                            staticmethod(bad_dense_products))

    def test_close_checks_the_generator_action(self, monkeypatch):
        self._merge_fifth_product(monkeypatch)
        with pytest.raises(ClosureInvariantError):
            close(_q8_generators())

    def test_dense_blocks_check_the_generator_action(self, monkeypatch):
        self._merge_fifth_product(monkeypatch)
        # dense blocks are flattened onto the dense array path
        with pytest.raises(ClosureInvariantError):
            close(DENSE_BLOCK_GROUPS["q8"]())

    def test_dense_array_path_checks_the_generator_action(self, monkeypatch):
        self._merge_fifth_product(monkeypatch)
        with pytest.raises(ClosureInvariantError):
            close([Dense(g.to_dense()) for g in _q8_generators()])

    def test_cli_exits_one(self, monkeypatch, capsys):
        self._merge_fifth_product(monkeypatch)
        assert cli.main(["measure", "--builtin", "q8", "--deterministic"]) == 1
        assert "not a permutation" in capsys.readouterr().err


class _Unreadable(Sequence):
    """An element list whose entries may not be read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        raise AssertionError("element read")


class _ObjectClosure(GroupClosure):
    """A closure of matrix objects, keyed by their ``canonical_key``."""

    def index_of(self, m):
        return self.key_index.get(m.canonical_key())


def _object_bfs(gens, budget=DEFAULT_BUDGET):
    """The reference BFS on ``gens`` as given: one ``matmul`` and one
    ``canonical_key`` per product, the products of element i found before
    those of element i + 1.  A row cut short by the budget is dropped."""
    ident = identity_like(gens[0])
    elements = [ident]
    parents = [(-1, -1)]
    key_index = {ident.canonical_key(): 0}
    rows = []
    complete = True
    while complete and len(rows) < len(elements):
        i, row = len(rows), []
        for gi, g in enumerate(gens):
            h = matmul(elements[i], g)
            k = h.canonical_key()
            if k not in key_index:
                if len(elements) >= budget:
                    complete = False
                    break
                key_index[k] = len(elements)
                elements.append(h)
                parents.append((i, gi))
            row.append(key_index[k])
        else:
            rows.append(row)
    gen_table = np.full((len(elements), len(gens)), -1, dtype=np.int64)
    gen_table[:len(rows)] = np.reshape(rows, (-1, len(gens)))
    return _ObjectClosure(
        elements=elements, generators=list(gens), complete=complete,
        parents=parents, gen_table=gen_table, key_index=key_index,
        gen_indices=[key_index.get(g.canonical_key(), -1) for g in gens])


def _object_closure(gens, budget=DEFAULT_BUDGET):
    """The reference BFS on the generators ``close`` would use."""
    return _object_bfs(groups._prepare(gens)[1], budget)


# Roots of unity of an order past 2**62, so the rows hold Python ints; x
# times its conjugate is 1, so these monomials have small finite orders.
BIG_ROOTS = 2 ** 62 + 3
X_BIG, X_BIG_BAR = UnitPoint.exact(1, BIG_ROOTS), UnitPoint.exact(-1, BIG_ROOTS)


def _mm3_7_big_block():
    """MM(3,7) with a third block, an order-3 monomial with entries of
    order 2**62 + 3 on X only: the group is MM(3,7) x C3, of order 63."""
    x, y = CLASS_GROUPS["mm3_7"][0]()
    return [BlockDiag((x, MonomialCycle((X_BIG, X_BIG_BAR, ONE), 1))),
            BlockDiag((y, Diagonal((ONE,) * 3)))]


TWO_BLOCK_MM = MillerMorenoParams(
    3, 7, ((1, 2, 4), (3, 5, 6)),
    (RationalAngle(1, 9), RationalAngle(0, 1), RationalAngle(1, 3)))

ARRAY_GROUPS = {
    "q8": _q8_generators,
    "cyclic5": lambda: [cyclic_generator(5)],
    "mm3_7": CLASS_GROUPS["mm3_7"][0],
    "mm5_11": CLASS_GROUPS["mm5_11"][0],
    "tadpole3": lambda: [tadpole(g) for g in _restricted_tadpole_generators(3)],
    "mm_two_blocks": lambda: miller_moreno(TWO_BLOCK_MM),
    # a block whose offset is not a multiple of its size
    "q8_and_c3": lambda: [
        BlockDiag((g, h)) for g, h in zip(
            _q8_generators(),
            [MonomialCycle((ONE,) * 3, 1),
             Diagonal((UnitPoint.exact(1, 3), UnitPoint.exact(2, 3), ONE))])],
    "dihedral8_big_roots": lambda: [MonomialCycle((X_BIG, X_BIG_BAR), 1),
                                    _q8_generators()[0]],
    "mm3_7_big_block": _mm3_7_big_block,
    "q8_nested": lambda: [BlockDiag((g, BlockDiag((g, g))))
                          for g in _q8_generators()],
}

# generators that close as dense matrices although they are exact
DENSE_BLOCK_GROUPS = {
    "q8": lambda: [BlockDiag((Dense(g.to_dense()), g)) for g in _q8_generators()],
    "mm3_7": lambda: [BlockDiag((Dense(g.to_dense()), g))
                      for g in CLASS_GROUPS["mm3_7"][0]()],
}


def _haar_conjugated(gens, seed):
    """``gens`` conjugated by a seeded Haar unitary, as dense matrices."""
    rng = np.random.default_rng(seed)
    d = gens[0].dim
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return [Dense(u @ g.to_dense() @ u.conj().T, unitary=True) for g in gens]


DENSE_GROUPS = {
    "dense": lambda: [Dense(g.to_dense()) for g in _q8_generators()],
    # flattened to dense by _prepare
    "mixed": lambda: [_q8_generators()[0], Dense(_q8_generators()[1].to_dense())],
    "q8": lambda: _haar_conjugated(_q8_generators(), 0),
    "mm3_7": lambda: _haar_conjugated(CLASS_GROUPS["mm3_7"][0](), 1),
    "mm7_43": lambda: _haar_conjugated(
        miller_moreno(default_miller_moreno(7, 43)), 2),
}


def _object_int_spectra(code, rows):
    """``_MonomialCode.int_spectra`` the object way: each row decoded, its
    ``Spectrum``'s int angles at the common denominator of them all."""
    spectra = [code.decode(row).spectrum() for row in rows]
    scale = math.lcm(*(s.common_denominator() for s in spectra))
    return [s.int_angles(scale) for s in spectra], scale


# every monomial layout (ARRAY_GROUPS holds the CLASS_GROUPS groups too):
# Python-int rows, nested, offset and two blocks; and int64 rows,
# N = 2**62 - 1 (a multiple of 3), whose 3-cycle of exponent sum N / 3 has
# l N = 3 N past int64: a cyclic group of order 9
X_NEAR = UnitPoint.exact(1, 2 ** 62 - 1)
ROW_SPECTRA_GROUPS = {
    **ARRAY_GROUPS,
    "c9_near_2_62": lambda: [MonomialCycle(
        (X_NEAR, X_NEAR.conj(), UnitPoint.exact(1, 3)), 1)],
}


class TestRowSpectra:
    """Spectra read off the cycles of monomial rows against the decoded
    matrices' ``Spectrum`` objects."""

    @pytest.mark.parametrize("name", sorted(ROW_SPECTRA_GROUPS))
    def test_match_the_object_spectra(self, name):
        c = close(ROW_SPECTRA_GROUPS[name]())
        code, rows = c.elements.code, c.elements.rows
        reps = np.unique(c.conjugacy_labels())
        for pick in (reps, np.arange(c.order)):
            got = code.int_spectra(rows[pick])
            assert got == _object_int_spectra(code, rows[pick])
            assert all(type(x) is int for s in got[0] for x in s)

    @pytest.mark.parametrize("name", sorted(ROW_SPECTRA_GROUPS))
    def test_scan_matches_an_object_spectra_scan(self, name, monkeypatch):
        c = close(ROW_SPECTRA_GROUPS[name]())
        want = measure_asm(c, collect_pairs=c.order <= 64).to_json_dict()
        monkeypatch.setattr(groups._MonomialCode, "int_spectra", _object_int_spectra)
        assert measure_asm(c, collect_pairs=c.order <= 64).to_json_dict() == want


def _parent_layers(c):
    """(slice, parents, generators) of each BFS layer after the identity,
    read off ``parents`` one element at a time."""
    layers, j = [], 1
    while j < c.order:
        k = j
        while k < c.order and c.parents[k][0] < j:
            k += 1
        layers.append((slice(j, k), [p for p, _ in c.parents[j:k]],
                       [g for _, g in c.parents[j:k]]))
        j = k
    return layers


def _product_rows(code, rows, gen_rows):
    """``_MonomialCode.products`` one (a, b) at a time by fancy indexing:
    ``s = s_b[s_a]``, ``e = (e_a + e_b[s_a]) % roots``."""
    n = code.dim
    return np.array([[np.concatenate([g[:n][r[:n].astype(np.intp)],
                                      (r[n:] + g[n:][r[:n].astype(np.intp)])
                                      % code.roots])
                      for g in gen_rows] for r in rows], dtype=rows.dtype)


class TestClosureTables:
    """The BFS layer table and the monomial code's products and keys
    against plain references."""

    # ARRAY_GROUPS holds the CLASS_GROUPS groups too
    @pytest.mark.parametrize("name", sorted(ARRAY_GROUPS) + ["dense_q8"])
    def test_layer_table_is_built_once_from_parents(self, name, monkeypatch):
        built, prop = [], GroupClosure.__dict__["_layers"]

        def counted(self):
            built.append(self.order)
            return prop.func(self)

        spy = functools.cached_property(counted)
        spy.__set_name__(GroupClosure, "_layers")
        monkeypatch.setattr(GroupClosure, "_layers", spy)
        gens = ARRAY_GROUPS.get(name, DENSE_GROUPS["q8"])()
        c = close(gens)
        assert built == []
        c.conjugacy_labels()
        c.inverses()
        c.cayley_rows([0, c.order - 1])
        measure_asm(c)
        assert built == [c.order]
        got = [(x, p.tolist(), g.tolist()) for x, p, g in c._layers]
        assert got == _parent_layers(c)

    @pytest.mark.parametrize("name", sorted(ROW_SPECTRA_GROUPS))
    def test_products_match_fancy_indexing(self, name):
        c = close(ROW_SPECTRA_GROUPS[name]())
        code, rows = c.elements.code, c.elements.rows
        gen_rows = np.stack([code.encode(g) for g in c.generators])
        got = code.products(rows, gen_rows)
        want = _product_rows(code, rows, gen_rows)
        assert got.dtype == want.dtype == code.dtype
        assert got.shape == want.shape and (got == want).all()

    @pytest.mark.parametrize("name", sorted(ROW_SPECTRA_GROUPS))
    def test_keys_match_row_bytes(self, name):
        c = close(ROW_SPECTRA_GROUPS[name]())
        code, rows = c.elements.code, c.elements.rows
        if rows.dtype == object:
            want = [tuple(r) for r in rows.tolist()]
        else:
            buf, width = rows.tobytes(), 16 * code.dim
            want = [buf[lo:lo + width] for lo in range(0, len(buf), width)]
        got = code.keys(rows)
        assert got == want and all(type(k) is type(want[0]) for k in got)
        # a strided view keys as its copy does
        assert code.keys(rows[::2]) == want[::2]
        assert list(c.key_index) == got


def _layer_cut_budget(c):
    """A budget whose cut falls inside a BFS layer, on a parent that found
    a new element with generator 0 and is refused one with generator 1."""
    depth = [0]
    for parent, _ in c.parents[1:]:
        depth.append(depth[parent] + 1)
    for b in range(2, c.order):
        (p0, g0), (p1, g1) = c.parents[b - 1], c.parents[b]
        if (p0, g0, g1) == (p1, 0, 1) and depth[p1 - 1] == depth[p1] == depth[p1 + 1]:
            return b
    raise AssertionError("no such budget")


class TestArrayPath:
    """``close`` against the reference object BFS ``_object_bfs``."""

    @staticmethod
    def _assert_same(a, b):
        assert isinstance(a.elements, groups._EncodedElements)
        assert isinstance(b.elements, list)
        assert a.parents == b.parents
        assert np.array_equal(a.gen_table, b.gen_table)
        assert a.gen_indices == b.gen_indices
        assert (a.complete, a.order, a.exact) == (b.complete, b.order, b.exact)
        # == on the structured variants also compares their classes
        assert list(a.elements) == b.elements
        assert [a.index_of(e) for e in b.elements] == list(range(b.order))
        if isinstance(a.elements.code, groups._DenseCode):
            # the same products bit for bit, flagged alike and keyed alike
            assert (a.elements.rows.tobytes()
                    == np.stack([e.a for e in b.elements]).tobytes())
            assert ([(e.unitary, e.exactness_lost) for e in a.elements]
                    == [(e.unitary, e.exactness_lost) for e in b.elements])
            assert list(a.key_index.items()) == list(b.key_index.items())

    @pytest.mark.parametrize("name", sorted(ARRAY_GROUPS))
    def test_matches_object_bfs(self, name):
        gens = ARRAY_GROUPS[name]()
        a = close(gens)
        assert a.complete and a.exact
        self._assert_same(a, _object_closure(gens))

    @pytest.mark.parametrize("name", sorted(DENSE_GROUPS))
    def test_dense_matches_object_bfs(self, name):
        gens = DENSE_GROUPS[name]()
        a = close(gens)
        assert isinstance(a.elements.code, groups._DenseCode)
        assert a.complete and not a.exact
        self._assert_same(a, _object_closure(gens))

    @pytest.mark.parametrize("name", ["dense", "q8"])
    def test_dense_budget_cut(self, name):
        gens = DENSE_GROUPS[name]()
        # budgets 1 and 2 stop before every generator has an index
        for budget in (1, 2, 5):
            a = close(gens, max_elements=budget)
            assert not a.complete and a.order == budget
            self._assert_same(a, _object_closure(gens, budget))

    def test_dense_budget_cut_inside_a_layer(self):
        gens = _haar_conjugated(ARRAY_GROUPS["mm5_11"](), 3)
        b = _layer_cut_budget(close(gens))
        a = close(gens, max_elements=b)
        assert not a.complete and a.order == b
        cut = a.parents[b - 1][0]
        assert (a.gen_table[cut] == -1).all() and (a.gen_table[cut - 1] >= 0).all()
        self._assert_same(a, _object_closure(gens, b))

    def test_dense_index_of_structured_probes(self):
        gens = DENSE_GROUPS["q8"]()
        a, b = close(gens), _object_closure(gens)
        minus_one = a.index_of(Dense(-np.eye(2)))
        probes = [
            # keyed by its rounded entries: its dense form -I is an element
            Diagonal((UnitPoint.approx(0.5),) * 2),
            Diagonal((UnitPoint.approx(0.0),) * 2),
            # exact, and found all the same
            Diagonal((UnitPoint.exact(1, 2),) * 2),
            matmul(gens[1], gens[0]),
            _q8_generators()[0],
        ]
        got = [a.index_of(m) for m in probes]
        # any probe is keyed by its entries: it finds its dense form
        assert got == [b.index_of(Dense(m.to_dense())) for m in probes]
        assert got[:3] == [minus_one, 0, minus_one] and minus_one is not None
        assert got[3] is not None
        assert a.index_of(BlockDiag((Diagonal((UnitPoint.exact(1, 2),)),) * 2)) \
            == minus_one

    def test_orders(self):
        assert close(miller_moreno(TWO_BLOCK_MM)).order == 441
        assert close(ARRAY_GROUPS["tadpole3"]()).order == 3 ** 7

    def test_budget_cut(self):
        # budgets 1 and 2 stop before every generator has an index
        for budget in (1, 2, 5):
            a = close(_q8_generators(), max_elements=budget)
            assert not a.complete and a.order == budget
            self._assert_same(a, _object_closure(_q8_generators(), budget))
        assert close(_q8_generators(), max_elements=1).gen_indices == [-1, -1]

    def test_budget_cut_inside_a_layer(self):
        gens = ARRAY_GROUPS["mm5_11"]()
        b = _layer_cut_budget(close(gens))
        a = close(gens, max_elements=b)
        assert not a.complete and a.order == b
        # the cut parent's row is dropped, its generator-0 product kept
        cut = a.parents[b - 1][0]
        assert (a.gen_table[cut] == -1).all() and (a.gen_table[cut - 1] >= 0).all()
        self._assert_same(a, _object_closure(gens, b))

    @pytest.mark.parametrize("name", ["mm3_7", "mm_two_blocks"])
    def test_index_of_other_matrices(self, name):
        gens = ARRAY_GROUPS[name]()
        a, b = close(gens), _object_closure(gens)
        x, y = gens
        dim = x.dim
        probes = [
            matmul(y, x),
            Dense(x.to_dense()),
            Diagonal((UnitPoint.exact(1, 5),) + (ONE,) * (dim - 1)),
            # a root of unity of an order that does not divide N
            Diagonal((UnitPoint.exact(1, 10 ** 6 + 3),) + (ONE,) * (dim - 1)),
            Diagonal((UnitPoint.approx(0.5),) + (ONE,) * (dim - 1)),
            BlockDiag((Diagonal((ONE,) * (dim - 1)), Diagonal((ONE,)))),
            Diagonal((ONE,) * dim),
        ]
        if isinstance(x, BlockDiag):
            probes += [x.blocks[0],
                       BlockDiag((x.blocks[0], y.blocks[1], x.blocks[2]))]
        got = [a.index_of(m) for m in probes]
        assert got == [b.index_of(m) for m in probes]
        assert got[0] is not None and got[1] is None
        if isinstance(x, BlockDiag):
            # a nested probe is flattened as the generators are
            nested = BlockDiag((x.blocks[0], BlockDiag(x.blocks[1:])))
            assert a.index_of(nested) == a.gen_indices[0]

    def test_elements_index_like_a_read_only_list(self):
        c = close(ARRAY_GROUPS["mm3_7"]())
        assert c.elements[-1] == list(c.elements)[-1]
        assert c.elements[2:4] == [c.elements[2], c.elements[3]]
        with pytest.raises(TypeError):
            c.elements[0] = c.elements[1]
        with pytest.raises(IndexError):
            c.elements[c.order]

    @pytest.mark.parametrize("gens,code,dtype", [
        (_q8_generators, groups._MonomialCode, np.int64),
        (ARRAY_GROUPS["q8_nested"], groups._MonomialCode, np.int64),
        (lambda: [Diagonal((UnitPoint.exact(1, 2 ** 62 - 1), ONE))],
         groups._MonomialCode, np.int64),
        (lambda: [Diagonal((UnitPoint.exact(1, 2 ** 62), ONE))],
         groups._MonomialCode, object),
        (DENSE_GROUPS["dense"], groups._DenseCode, complex),
        (DENSE_GROUPS["mixed"], groups._DenseCode, complex),
        (DENSE_BLOCK_GROUPS["q8"], groups._DenseCode, complex),
    ], ids=["mono", "nested", "below_2_62", "large_denominator", "dense",
            "mixed", "dense_blocks"])
    def test_each_family_takes_its_code(self, gens, code, dtype):
        # a small budget shows the code as well as a complete closure would
        c = close(gens(), max_elements=50)
        assert type(c.elements.code) is code
        assert c.elements.rows.dtype == dtype

    @pytest.mark.parametrize("name,order,level", [
        ("dihedral8_big_roots", 8, Fraction(1, 4)),
        ("mm3_7_big_block", 63, Fraction(1, 7)),
        ("q8_nested", 8, Fraction(1, 4)),
    ])
    def test_large_roots_and_nested_blocks_stay_exact(self, name, order, level):
        c = close(ARRAY_GROUPS[name]())
        assert c.order == order
        assert measure_asm(c).epsilon_exact == level

    @pytest.mark.parametrize("gens", [
        DENSE_BLOCK_GROUPS["q8"], DENSE_BLOCK_GROUPS["mm3_7"],
        ARRAY_GROUPS["q8_nested"],
    ], ids=["dense_blocks_q8", "dense_blocks_mm3_7", "nested_q8"])
    def test_flattening_keeps_the_group(self, gens):
        """Dense blocks and nested blocks close flattened, into the group
        the object BFS finds on the generators as given."""
        a, b = close(gens()), _object_bfs(gens())
        assert a.complete and b.complete
        assert a.exact == b.exact
        assert a.parents == b.parents
        assert np.array_equal(a.gen_table, b.gen_table)
        assert np.array_equal(a.conjugacy_labels(), b.conjugacy_labels())
        assert [a.index_of(e) for e in b.elements] == list(range(b.order))

    def test_close_never_calls_matmul(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("matmul called")

        monkeypatch.setattr(linalg, "matmul", refuse)
        assert not hasattr(groups, "matmul")
        families = [*ARRAY_GROUPS.values(), *DENSE_GROUPS.values(),
                    *DENSE_BLOCK_GROUPS.values()]
        for gens in families:
            assert close(gens()).complete


class TestMillerMorenoClosures:
    def test_order_21_with_trivial_scalar(self):
        c = close(miller_moreno(default_miller_moreno(3, 7)))
        assert c.complete and c.order == 21
        assert len(centre(c)) == 1

    def test_order_63_with_ninth_root_scalar(self):
        params = MillerMorenoParams(
            3, 7, ((1, 2, 4),), (RationalAngle(1, 9),))
        c = close(miller_moreno(params))
        assert c.complete and c.order == 63
        assert len(centre(c)) == 3
        assert quotient_order_mod_centre(c) == 21

    def test_order_453_large_prime(self):
        c = close(miller_moreno(default_miller_moreno(3, 151)))
        assert c.complete and c.order == 453

    def test_inverses_present(self):
        c = close(miller_moreno(default_miller_moreno(3, 7)))
        cay = c.cayley_table()
        assert np.array_equal(cay[np.arange(c.order), c.inverses()], np.zeros(c.order))

    @pytest.mark.parametrize("make", [
        *(gens for gens, _ in CLASS_GROUPS.values()),
        lambda: [Dense(g.to_dense()) for g in _q8_generators()],
    ], ids=[*CLASS_GROUPS, "dense-q8"])
    def test_inverses_match_the_table(self, make, monkeypatch):
        c = close(make())
        cay = c.cayley_table()
        built = spy_tables(monkeypatch)
        inv = c.inverses()
        assert built == []
        every = np.arange(c.order)
        assert np.array_equal(cay[every, inv], np.zeros(c.order))
        assert np.array_equal(cay[inv, every], np.zeros(c.order))

    def test_generator_inverses_need_a_complete_closure(self):
        # the walk to each generator's inverse stops at an unfilled -1 entry
        # of an incomplete gen_table instead of cycling through it
        c = close(_q8_generators(), max_elements=5)
        for method in (c.inverses, c.conjugacy_labels):
            with pytest.raises(IncompleteClosureError):
                method()


class TestRestrictedTadpole:
    def test_order_matches_parameter_space_oracle(self):
        p = 3
        gens = _restricted_tadpole_generators(p)
        want = _param_closure_count(gens, budget=10000)
        c = close([tadpole(g) for g in gens], max_elements=10000)
        assert c.complete
        assert c.order == want == p ** (3 * p - 2)


class TestIsIrreducible:
    def test_cyclic_is_reducible(self):
        assert not is_irreducible(close([cyclic_generator(4)]))

    def test_q8_representation_is_irreducible(self):
        assert is_irreducible(close(_q8_generators()))

    def test_accepts_plain_arrays(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert is_irreducible([x, z])
        assert not is_irreducible([z, np.eye(2, dtype=complex)])

    def test_block_structure_is_reducible(self):
        gens = [tadpole(g) for g in _restricted_tadpole_generators(3)]
        assert not is_irreducible(gens)

    @pytest.mark.parametrize("name,want", [
        ("q8", True), ("cyclic4", False), ("mm3_7", True)])
    def test_closure_spans_from_its_generators(self, name, want):
        gens = {"q8": _q8_generators,
                "cyclic4": lambda: [cyclic_generator(4)],
                "mm3_7": CLASS_GROUPS["mm3_7"][0]}[name]
        c = close(gens())
        elements = list(c.elements)
        c.elements = _Unreadable(len(elements))
        assert is_irreducible(c) == is_irreducible(elements) == want

    def test_long_words_are_not_cut_off(self):
        """A diagonal with distinct roots of unity and a d-cycle span M_d
        only with words of about 2d factors: 65 rounds at d = 34."""
        d = 34
        x = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        y = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        assert is_irreducible([x, y])

    def test_empty(self):
        assert not is_irreducible([])


class TestJsonRoundTrip:
    def test_round_trip(self):
        c = close(_q8_generators())
        back = closure_from_json(closure_to_json(c, include_cayley=True))
        assert isinstance(back, GroupClosure)
        assert back.order == 8 and back.complete
        assert np.array_equal(back.cayley_table(), c.cayley_table())

    def test_tampered_order_rejected(self):
        d = closure_to_json(close(_q8_generators()))
        d["order"] = 9
        with pytest.raises(MalformedJsonError):
            closure_from_json(d)

    @pytest.mark.parametrize("key", ["generators", "order", "complete"])
    def test_missing_key(self, key):
        d = closure_to_json(close(_q8_generators()))
        del d[key]
        with pytest.raises(MalformedJsonError):
            closure_from_json(d)

    @pytest.mark.parametrize("bad", [
        [], {"generators": 3}, {"generators": [], "order": 1, "complete": True},
        {"generators": [{"variant": "cube"}], "order": 1, "complete": True},
    ], ids=["list", "int_generators", "no_generators", "unknown_variant"])
    def test_wrong_types(self, bad):
        with pytest.raises(MalformedJsonError):
            closure_from_json(bad)

    @pytest.mark.parametrize("key, value", [
        ("order", "8"), ("order", 8.0), ("complete", 1), ("complete", "true"),
        ("generators", [{"variant": "monomial_cycle", "d": [], "k": 0}]),
        ("generators", [{"variant": "diagonal", "entries": []}]),
    ], ids=["order-string", "order-float", "complete-int", "complete-string",
            "empty-cycle", "empty-diagonal"])
    def test_malformed_fields_are_not_a_mismatch(self, key, value):
        d = closure_to_json(close(_q8_generators()))
        d[key] = value
        with pytest.raises(MalformedJsonError, match="^malformed "):
            closure_from_json(d)

    @pytest.mark.parametrize("cayley", [[0, 1], "table", [[0.5] * 8] * 8, [2 ** 70] * 64])
    def test_malformed_cayley_table(self, cayley):
        d = closure_to_json(close(_q8_generators()))
        d["cayley"] = cayley
        with pytest.raises(MalformedJsonError):
            closure_from_json(d)

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(["generators", "order", "complete", "cayley"]),
           value=JSON_VALUES)
    def test_fuzzed_fields_load_or_raise_malformed(self, key, value):
        d = closure_to_json(close(_q8_generators()), include_cayley=True)
        d[key] = value
        try:
            closure_from_json(d, max_elements=50)
        except SpecmulError as exc:
            assert isinstance(exc, MalformedJsonError) or key == "generators"
