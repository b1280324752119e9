"""Finite closures of unitary generator sets.

``close`` runs a breadth-first enumeration of words in the generators
(multiplying on the right), deduplicating elements by canonical key: exact
structural keys for the structured variants, rounded-entry keys for dense
matrices.  Every discovered element remembers which parent and generator
produced it; that parent chain lets any row of the Cayley table be filled
in by dynamic programming without recomputing any matrix product:

    table[x][identity] = x
    table[x][j]        = gen_table[table[x][parent(j)]][gen(j)]

Conjugacy classes come from the same index tables: the orbits of
x -> g^-1 x g over the generators g.

Exact monomial generators (``Diagonal``/``MonomialCycle``), and exact
``BlockDiag`` generators whose blocks are all monomial (nested blocks are
flattened first), take the monomial code: every element is stored as a
permutation row ``s`` and an exponent row ``e`` mod N
(``M[i, s[i]] = exp(2 pi i e[i] / N)``), each BFS layer is two gathers, and
``GroupClosure.elements`` builds a matrix only for the indices read.  The
rows are int64 while N < 2^62 and Python ints from there on.  Every other
generator set (dense generators, mixed families, dense blocks) is flattened
to ``Dense`` and takes the dense code: the elements are one (n, d, d)
complex stack, each BFS layer is one stacked matrix product, and the keys
are sliced from one rounded array, equal to ``Dense.canonical_key``'s.

Closures over generators whose structured entries are approximate are
refused up front — rounded keys would silently merge distinct elements of
what is almost surely an infinite group; use the sampling-based measurements
for those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .circle import UnitPoint
from .errors import (
    ClosureInvariantError,
    ClosureRefusedError,
    DimensionMismatchError,
    IncompleteClosureError,
    MalformedJsonError,
    NonUnitaryError,
    _loading,
    _typed,
)
from .linalg import (
    BlockDiag,
    Dense,
    Diagonal,
    MonomialCycle,
    UMatrix,
    _dense_key,
    _dense_keys,
    _mono_parts,
    block_diag,
    identity_like,
    matrix_from_json,
    matrix_to_json,
    monomial_cycle,
)

__all__ = [
    "GroupClosure",
    "close",
    "centre",
    "quotient_order_mod_centre",
    "is_irreducible",
    "closure_to_json",
    "closure_from_json",
]

DEFAULT_BUDGET = 100_000


def _has_approx_structure(m: UMatrix) -> bool:
    if isinstance(m, (Diagonal, MonomialCycle)):
        return not m.exact
    if isinstance(m, BlockDiag):
        return any(_has_approx_structure(b) for b in m.blocks)
    return False


def _normalize(m: UMatrix) -> UMatrix:
    """Put a matrix in the representation its products would land in:
    monomial blocks collapsed as ``monomial_cycle`` does, nested
    ``BlockDiag``s flattened into one level."""
    if isinstance(m, MonomialCycle):
        return monomial_cycle(m.d, m.k)
    if isinstance(m, BlockDiag):
        return block_diag(tuple(
            c for b in map(_normalize, m.blocks)
            for c in (b.blocks if isinstance(b, BlockDiag) else (b,))))
    return m


# Exponents are summed in int64 before the reduction mod N; from this N on
# the rows hold Python ints.
_MAX_ROOTS = 1 << 62


class _MonomialCode:
    """Exact monomial or block-monomial matrices as one integer row each.

    The row is ``s`` then ``e``: the permutation ``s`` and the exponents
    ``e`` mod ``roots`` with M[i, s[i]] = exp(2 pi i e[i] / roots).  Each
    block is D C^k, so block (off, size) has s[off] = off + k.  The product
    of rows a and b is ``s = s_b[s_a]``, ``e = (e_a + e_b[s_a]) % roots``.
    Rows are int64 below ``_MAX_ROOTS`` roots and ``object`` rows of Python
    ints from there on.
    """

    def __init__(self, blocks: tuple, roots: int):
        self.blocks = blocks    # (offset, size) of each monomial block
        self.roots = roots
        self.dim = sum(size for _, size in blocks)
        self.dtype = np.int64 if roots < _MAX_ROOTS else object

    @classmethod
    def fit(cls, gens: Sequence[UMatrix]) -> Optional["_MonomialCode"]:
        """The code of ``gens``, or None unless every one of them encodes
        in ``gens[0]``'s layout of monomial blocks.  ``_prepare`` has
        refused approximate entries and normalized the generators."""
        blocks = gens[0].blocks if isinstance(gens[0], BlockDiag) else (gens[0],)
        parts = [_mono_parts(b) for g in gens
                 for b in (g.blocks if isinstance(g, BlockDiag) else (g,))]
        if any(p is None for p in parts):
            return None
        roots = math.lcm(1, *(p.angle.den for d, _ in parts for p in d))
        offsets = np.cumsum([0] + [b.dim for b in blocks]).tolist()
        code = cls(tuple((off, b.dim) for off, b in zip(offsets, blocks)), roots)
        return code if all(code.encode(g) is not None for g in gens) else None

    def encode(self, m: UMatrix) -> Optional[np.ndarray]:
        """The row of ``m``, or None when ``m`` has another layout or an
        entry that is not a power of the primitive ``roots``-th root."""
        blocks = m.blocks if isinstance(m, BlockDiag) else (m,)
        if len(blocks) != len(self.blocks):
            return None
        s: list[int] = []
        e: list[int] = []
        for (off, size), b in zip(self.blocks, blocks):
            parts = _mono_parts(b)
            if parts is None or b.dim != size or not b.exact:
                return None
            d, k = parts
            if any(self.roots % p.angle.den for p in d):
                return None
            s.extend(off + (i + k) % size for i in range(size))
            e.extend(p.angle.num * (self.roots // p.angle.den) for p in d)
        return np.array(s + e, dtype=self.dtype)

    def key(self, m: UMatrix):
        """The ``key_index`` key of ``m``, normalized as the generators
        are, or None when it has no row."""
        row = self.encode(_normalize(m))
        return None if row is None else self.keys(row[None])[0]

    def keys(self, rows: np.ndarray) -> list:
        """The key of every row of ``rows``: its 2 dim int64 as bytes, or
        its Python ints as a tuple."""
        if rows.dtype == object:
            return list(map(tuple, rows.tolist()))
        row = np.dtype((np.void, 16 * self.dim))
        return np.ascontiguousarray(rows).view(row).ravel().tolist()

    def decode(self, row: np.ndarray) -> UMatrix:
        """The matrix of ``row``, in the representation ``matmul`` gives
        the same product."""
        s, e = row[:self.dim].tolist(), row[self.dim:].tolist()
        blocks = tuple(
            monomial_cycle([UnitPoint.exact(x, self.roots)
                            for x in e[off:off + size]], s[off] - off)
            for off, size in self.blocks)
        return block_diag(blocks)

    def int_spectra(self, rows: np.ndarray) -> tuple[list, int]:
        """The spectra of ``rows`` as int angle numerators over one scale:
        each row's distinct numerators as a sorted tuple, and the scale,
        the lcm of their reduced denominators.  Equal to the distinct
        numerators of the decoded matrices' spectra at their common
        denominator.

        A cycle of ``s`` of length l whose exponents sum to S mod N gives
        the l-th roots of e^{2 pi i S / N}: the angles (S + j N) / (l N)
        for j < l, whose reduced denominators have the lcm
        lcm(l N / gcd(S, l N), l).  At the scale they are b + j (scale / l)
        with b = S scale / (l N).  One walk over every row at once, at most
        ``dim`` steps, gives each position its cycle's l and S and its own
        j: the steps from it to the cycle's least position.  The arithmetic
        after the walk is in Python ints when l N could pass int64.
        """
        n, roots = self.dim, self.roots
        # flat positions: row r's position i is r * n + i
        nxt = (rows[:, :n].astype(np.intp)
               + np.arange(0, rows.size // 2, n)[:, None]).ravel()
        e = rows[:, n:].ravel()
        start = cur = least = np.arange(nxt.size)
        walked = e.copy()    # exponent sum of the positions walked, mod roots
        total = np.zeros_like(e)
        steps = np.zeros(nxt.size, dtype=np.int64)
        length = np.zeros(nxt.size, dtype=np.int64)   # 0 while the cycle is open
        for t in range(1, n + 1):
            cur = nxt[cur]
            back = (cur == start) & (length == 0)
            length[back] = t
            total[back] = walked[back]
            if length.all():
                break
            walked += e[cur]
            walked %= roots
            lower = cur < least
            steps[lower] = t
            least = np.minimum(least, cur)
        # the distinct lengths by a bincount: a plain np.unique would import
        # numpy.ma on its first call, about 30 ms
        if math.lcm(*np.flatnonzero(np.bincount(length))) * roots > np.iinfo(np.int64).max:
            total, length = total.astype(object), length.astype(object)
        big = length * roots
        g = np.gcd(total, big)
        scale = int(np.lcm.reduce(np.lcm(big // g, length)))
        nums = (total // g) * (scale // (big // g)) + steps * (scale // length)
        return [tuple(sorted(set(r))) for r in nums.reshape(-1, n).tolist()], scale

    def products(self, rows: np.ndarray, gen_rows: np.ndarray) -> np.ndarray:
        """All products rows[a] @ gen_rows[b], shape (len(rows), len(gen_rows),
        2 dim), in (a, b) order."""
        n = self.dim
        s = rows[:, :n].astype(np.intp, copy=False)
        out = np.empty((len(rows), len(gen_rows), 2 * n), dtype=rows.dtype)
        # gen_rows[b, s[a, i]] for every b, a, i, gathered (b, a, i) and
        # copied to (a, b, i): i stays the contiguous axis of both
        out[:, :, :n] = np.take(gen_rows[:, :n], s, axis=1).transpose(1, 0, 2)
        e = np.take(gen_rows[:, n:], s, axis=1).transpose(1, 0, 2)
        np.add(e, rows[:, None, n:], out=out[:, :, n:])
        np.remainder(out[:, :, n:], self.roots, out=out[:, :, n:])
        return out


class _DenseCode:
    """Dense matrices as one (d, d) complex row each.

    Keys are ``Dense.canonical_key``'s, and a probe of any variant is keyed
    by its entries, so it finds the element equal to its dense form.  The
    products of a layer are one stacked ``np.matmul``, which rounds each
    product as ``matmul`` does.
    """

    @staticmethod
    def encode(m: UMatrix) -> np.ndarray:
        return m.to_dense()

    @staticmethod
    def key(m: UMatrix):
        return _dense_key(m.to_dense())

    @staticmethod
    def keys(rows: np.ndarray) -> list:
        return _dense_keys(rows)

    @staticmethod
    def decode(row: np.ndarray) -> Dense:
        return Dense(row)

    @staticmethod
    def products(rows: np.ndarray, gen_rows: np.ndarray) -> np.ndarray:
        """All products rows[a] @ gen_rows[b], shape (len(rows),
        len(gen_rows), d, d)."""
        return np.matmul(rows[:, None], gen_rows[None])


class _EncodedElements(Sequence):
    """Read-only element list of an array-path closure: ``[i]`` decodes
    row i into a ``UMatrix`` on each access."""

    def __init__(self, code: _MonomialCode | _DenseCode, rows: np.ndarray):
        self.code = code
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self.code.decode(self.rows[i])


@dataclass
class GroupClosure:
    """Elements in BFS order (index 0 is the identity), with the tables that
    locate products by index.  ``key_index`` maps the key of each element
    m, ``elements.code.key(m)``, to its index."""

    elements: Sequence[UMatrix]
    generators: list[UMatrix]
    complete: bool
    parents: list[tuple[int, int]]
    gen_table: np.ndarray
    key_index: dict
    gen_indices: list[int]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def exact(self) -> bool:
        """Every element is exact: products of exact generators are."""
        return all(g.exact for g in self.generators)

    def index_of(self, m: UMatrix) -> Optional[int]:
        return self.key_index.get(self.elements.code.key(m))

    @cached_property
    def _layers(self) -> list:
        """(slice, parents, generators) of each BFS layer after the
        identity, derived from ``parents`` once per closure.  Element j is
        element ``parents[j][0]`` times generator ``parents[j][1]``.
        Parents never decrease in BFS order, so the elements from j up to
        the first one whose parent is j or later form one layer, and each is
        a product of an earlier element."""
        par, gen = np.array(self.parents, dtype=np.int64).T.copy()
        layers, j = [], 1
        while j < self.order:
            k = int(np.searchsorted(par, j))
            layers.append((slice(j, k), par[j:k], gen[j:k]))
            j = k
        return layers

    def cayley_rows(self, idx) -> np.ndarray:
        """Rows ``idx`` of the multiplication table: entry (t, j) indexes
        elements[idx[t]] @ elements[j].  Costs O(len(idx) * n): each BFS
        layer of columns is one gather from earlier columns."""
        if not self.complete:
            raise IncompleteClosureError("Cayley table needs a complete closure")
        idx = np.asarray(idx, dtype=np.int64)
        rows = np.empty((len(idx), self.order), dtype=np.int64)
        rows[:, 0] = idx
        for layer, par, gen in self._layers:
            rows[:, layer] = self.gen_table[rows[:, par], gen]
        return rows

    def cayley_table(self) -> np.ndarray:
        """Full multiplication table: entry (i, j) indexes elements[i] @ elements[j]."""
        return self.cayley_rows(np.arange(self.order))

    def _generator_inverse_rows(self) -> np.ndarray:
        """Row g^-1 of the Cayley table for each generator g.  g^-1 is the
        last element before g's ``gen_table`` column walks back to the
        identity, so no matrix is multiplied."""
        inverses = []
        for col in self.gen_table.T:
            prev, x = 0, int(col[0])
            while x > 0:
                prev, x = x, int(col[x])
            inverses.append(prev)
        return self.cayley_rows(inverses)

    def conjugacy_labels(self) -> np.ndarray:
        """Conjugacy class of every element, labelled by its smallest index.

        The classes are the orbits of x -> g^-1 x g over the generators g.
        g^-1 x is one Cayley row and (g^-1 x) g is the ``gen_table`` column
        again.  Every label starts as its own index and takes the smaller
        label across each map, both ways, then follows labels to labels
        until neither step changes one.  A label is always an index in its
        element's class, so the fixed point is each class's smallest index.
        """
        left = self._generator_inverse_rows()
        maps = self.gen_table[left, np.arange(len(left))[:, None]]
        label = np.arange(self.order, dtype=np.int64)
        while True:
            before = label
            for conj in maps:
                label = np.minimum(label, label[conj])
                # conj is a permutation, so no index is written twice
                label[conj] = np.minimum(label[conj], label)
            jumped = label[label]
            while not np.array_equal(jumped, label):
                label, jumped = jumped, jumped[jumped]
            if np.array_equal(label, before):
                return label

    def inverses(self) -> np.ndarray:
        """The index of every element's inverse, in O(generators * n).

        Element x is parent(x) g, so x^-1 = g^-1 parent(x)^-1: one entry of
        row g^-1, filled one BFS layer at a time as ``cayley_rows`` does.
        """
        left = self._generator_inverse_rows()
        inv = np.zeros(self.order, dtype=np.int64)
        for layer, par, gen in self._layers:
            inv[layer] = left[gen, inv[par]]
        return inv


def _check_generator_action(gen_table: np.ndarray) -> None:
    """Every column of a complete closure's ``gen_table`` (x -> x g) must be
    a permutation; rounded keys that split or merge elements break that."""
    n = gen_table.shape[0]
    want = np.arange(n, dtype=gen_table.dtype)[:, None]
    bad = np.nonzero(~np.all(np.sort(gen_table, axis=0) == want, axis=0))[0]
    if bad.size:
        raise ClosureInvariantError(
            f"right multiplication by generator {int(bad[0])} is not a "
            f"permutation of the {n} elements; the canonical keys split or "
            f"merged elements")


def close(
    generators: Sequence[UMatrix],
    max_elements: int = DEFAULT_BUDGET,
) -> GroupClosure:
    """BFS closure of the generators under right multiplication.

    Stops cleanly with ``complete=False`` when the budget of
    ``max_elements`` (at least 1) runs out; that is not an error, and a
    generator the BFS has not reached then has index -1 in
    ``gen_indices``.  Raises on mixed dimensions, non-unitary dense
    generators or blocks, and structured generators with approximate
    angles.  Exact monomial and block-monomial generators close on
    ``_MonomialCode`` rows and stay exact; every other generator set is
    flattened to ``Dense`` and closes on ``_DenseCode`` rows.
    """
    if max_elements < 1:
        raise ValueError("the element budget must be at least 1")
    code, gens = _prepare(generators)
    return _close_encoded(code, gens, max_elements)


def _prepare(generators: Sequence[UMatrix]
             ) -> tuple[_MonomialCode | _DenseCode, list[UMatrix]]:
    """The code of the generators, and the generators checked, normalized,
    put in that code's representation and deduplicated."""
    gens = [_normalize(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].dim
    for g in gens:
        if g.dim != dim:
            raise DimensionMismatchError("generators of mixed dimension")
        if _has_approx_structure(g):
            raise ClosureRefusedError(
                "structured generator with approximate angles; the closure "
                "would almost surely be infinite — use sampled measurement"
            )
    code = _MonomialCode.fit(gens)
    if code is None:
        # one key per element needs one representation: the dense one
        gens = [g if isinstance(g, Dense) else Dense(g.to_dense()) for g in gens]
        if not all(g.unitary for g in gens):
            raise NonUnitaryError("dense generator fails the unitarity check")
        code = _DenseCode()

    # Deduplicate generators; gen_table has one column per distinct one.
    uniq: dict = {}
    for g in gens:
        uniq.setdefault(code.key(g), g)
    return code, list(uniq.values())


def _close_encoded(code: _MonomialCode | _DenseCode, gens: list[UMatrix],
                   max_elements: int) -> GroupClosure:
    """The BFS on code rows, one layer at a time.  A layer's products come
    in (parent, generator) order and new ones are numbered in that order,
    which is the order of a BFS that forms one product at a time."""
    gen_rows = np.stack([code.encode(g) for g in gens])
    ident = identity_like(gens[0])
    ng = len(gens)
    key_index = {code.key(ident): 0}
    parents: list[tuple[int, int]] = [(-1, -1)]
    layers = [code.encode(ident)[None]]
    row_shape = (-1,) + layers[0].shape[1:]
    rows: list[int] = []
    complete = True

    lo = 0  # index of the frontier's first element
    while complete and len(layers[-1]):
        frontier = layers[-1]
        prods = code.products(frontier, gen_rows).reshape(row_shape)
        found: list[int] = []
        fresh: list[int] = []
        for t, key in enumerate(code.keys(prods)):
            j = key_index.get(key)
            if j is None:
                if len(parents) >= max_elements:
                    complete = False
                    break
                j = len(parents)
                key_index[key] = j
                parents.append((lo + t // ng, t % ng))
                fresh.append(t)
            found.append(j)
        # a row cut short by the budget is dropped
        rows.extend(found[:len(found) - len(found) % ng])
        layers.append(prods[fresh])
        lo += len(frontier)

    elements = _EncodedElements(code, np.concatenate(layers))
    gen_table = np.full((len(elements), ng), -1, dtype=np.int64)
    gen_table[:len(rows) // ng] = np.reshape(rows, (-1, ng))
    if complete:
        _check_generator_action(gen_table)
    return GroupClosure(
        elements=elements,
        generators=gens,
        complete=complete,
        parents=parents,
        gen_table=gen_table,
        key_index=key_index,
        gen_indices=[key_index.get(k, -1) for k in code.keys(gen_rows)],
    )


def centre(closure: GroupClosure) -> list[int]:
    """Indices of elements commuting with every generator (hence with all).

    g x is row g of the Cayley table and x g is column g of ``gen_table``,
    so only the generators' rows are built, not the full table.
    """
    left = closure.cayley_rows(closure.gen_indices)
    commutes = np.all(left == closure.gen_table.T, axis=0)
    return np.nonzero(commutes)[0].tolist()


def quotient_order_mod_centre(closure: GroupClosure) -> int:
    return closure.order // len(centre(closure))


# Absolute threshold of ``is_irreducible``'s rank decisions.
_SPAN_TOL = 1e-8


def is_irreducible(elements: Sequence) -> bool:
    """Burnside span test: do products of the elements span all of M_n?

    Grows the linear span of the given matrices by repeated left
    multiplication until it stabilizes (the generated algebra), then checks
    whether its dimension is n^2.  Each round multiplies only the directions
    the last round added, since the rest were multiplied before; a round
    that adds none ends the loop, so it runs at most n^2 rounds.  Rank
    decisions use singular values of unit-normalized vectorized matrices
    against the absolute threshold ``_SPAN_TOL``.
    Accepts a closure, structured matrices, or plain arrays.  A closure is
    tested through its generators: its elements are products of them, so
    both generate the same algebra, and no element is built.  Words in a
    few generators can need about 2n rounds to span the algebra.
    """
    if isinstance(elements, GroupClosure):
        elements = elements.generators
    mats = [e.to_dense() if isinstance(e, UMatrix) else np.asarray(e, dtype=complex)
            for e in elements]
    if not mats:
        return False
    n = mats[0].shape[0]
    full = n * n

    def orth_extend(basis: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """Orthonormal directions of ``cands`` outside the span of the
        orthonormal rows of ``basis``."""
        cands = cands - (cands @ basis.conj().T) @ basis
        keep = cands[np.linalg.norm(cands, axis=1) > _SPAN_TOL]
        if len(keep) == 0:
            return keep
        u, s, vh = np.linalg.svd(keep, full_matrices=False)
        return vh[s > _SPAN_TOL]

    basis = np.zeros((0, full), dtype=complex)
    new = np.array([m.reshape(-1) / np.linalg.norm(m) for m in mats])
    while len(new):
        new = orth_extend(basis, new)
        basis = np.vstack([basis, new])
        if len(basis) >= full:
            return True
        rows = new.reshape(-1, n, n)
        prods = np.concatenate([(m @ rows).reshape(len(rows), full) for m in mats])
        norms = np.linalg.norm(prods, axis=1)
        new = prods[norms > _SPAN_TOL] / norms[norms > _SPAN_TOL, None]
    return len(basis) >= full


def closure_to_json(closure: GroupClosure, include_cayley: bool = False) -> dict:
    d = {
        "generators": [matrix_to_json(g) for g in closure.generators],
        "order": closure.order,
        "complete": closure.complete,
        "dim": closure.generators[0].dim,
    }
    if include_cayley:
        d["cayley"] = closure.cayley_table().reshape(-1).tolist()
    return d


def closure_from_json(d: dict, max_elements: int = DEFAULT_BUDGET) -> GroupClosure:
    """Rebuild a closure from its serialized generators and sanity-check it;
    raises ``MalformedJsonError`` on input without that structure or that a
    fresh enumeration contradicts."""
    with _loading("closure"):
        gens = [matrix_from_json(g) for g in _typed(d, "generators", list)]
        complete, order = _typed(d, "complete", bool), _typed(d, "order", int)
        cayley = d.get("cayley")
        if cayley is not None:
            cayley = np.array(cayley, dtype=np.int64).reshape(-1)
    if not gens:
        raise MalformedJsonError("serialized closure has no generators")
    closure = close(gens, max_elements=max_elements)
    if closure.complete != complete or closure.order != order:
        raise MalformedJsonError("serialized closure does not match a fresh enumeration")
    if cayley is not None and not np.array_equal(cayley, closure.cayley_table().ravel()):
        raise MalformedJsonError("serialized Cayley table does not match")
    return closure
