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

Closures over generators whose structured entries are approximate are
refused up front — rounded keys would silently merge distinct elements of
what is almost surely an infinite group; use the sampling-based measurements
for those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ClosureInvariantError,
    ClosureRefusedError,
    DimensionMismatchError,
    IncompleteClosureError,
    NonUnitaryError,
)
from .linalg import (
    KEY_TOL,
    BlockDiag,
    Dense,
    Diagonal,
    MonomialCycle,
    UMatrix,
    block_diag,
    identity_like,
    matmul,
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
    """Put a matrix in the representation its products would land in."""
    if isinstance(m, MonomialCycle):
        return monomial_cycle(m.d, m.k)
    if isinstance(m, BlockDiag):
        return block_diag(tuple(_normalize(b) for b in m.blocks))
    return m


def _family(m: UMatrix):
    """Representation family; products stay inside a family, so canonical
    keys are only comparable between generators of the same family."""
    if isinstance(m, (Diagonal, MonomialCycle)):
        return ("mono",)
    if isinstance(m, BlockDiag):
        return ("block", tuple(_family(b) + (b.dim,) for b in m.blocks))
    return ("dense",)


@dataclass
class GroupClosure:
    elements: list[UMatrix]
    generators: list[UMatrix]
    complete: bool
    parents: list[tuple[int, int]]
    gen_table: np.ndarray
    key_index: dict
    gen_indices: list[int]
    key_tol: float = KEY_TOL
    _cayley: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, m: UMatrix) -> Optional[int]:
        return self.key_index.get(m.canonical_key(self.key_tol))

    def cayley_rows(self, idx) -> np.ndarray:
        """Rows ``idx`` of the multiplication table: entry (t, j) indexes
        elements[idx[t]] @ elements[j].  Costs O(len(idx) * n)."""
        if not self.complete:
            raise IncompleteClosureError("Cayley table needs a complete closure")
        idx = np.asarray(idx, dtype=np.int64)
        rows = np.empty((len(idx), self.order), dtype=np.int64)
        rows[:, 0] = idx
        for j in range(1, self.order):
            pj, gj = self.parents[j]
            rows[:, j] = self.gen_table[rows[:, pj], gj]
        return rows

    def cayley_table(self) -> np.ndarray:
        """Full multiplication table: entry (i, j) indexes elements[i] @ elements[j]."""
        if self._cayley is None:
            self._cayley = self.cayley_rows(np.arange(self.order))
        return self._cayley

    def conjugacy_labels(self) -> np.ndarray:
        """Conjugacy class of every element, labelled by its smallest index.

        The classes are the orbits of x -> g^-1 x g over the generators g,
        joined by union-find.  g^-1 is the last element before g's
        ``gen_table`` column walks back to the identity, g^-1 x is one
        Cayley row and (g^-1 x) g is the column again, so no matrix is
        multiplied.
        """
        inverses = []
        for col in self.gen_table.T:
            prev, x = 0, int(col[0])
            while x != 0:
                prev, x = x, int(col[x])
            inverses.append(prev)
        left = self.cayley_rows(inverses)
        root = list(range(self.order))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for gi, row in enumerate(left):
            for x, y in enumerate(self.gen_table[row, gi].tolist()):
                rx, ry = find(x), find(y)
                # the smaller root wins, so every root is its class minimum
                if rx < ry:
                    root[ry] = rx
                elif ry < rx:
                    root[rx] = ry
        return np.array([find(x) for x in range(self.order)], dtype=np.int64)

    def inverse_index(self, i: int) -> int:
        row = self.cayley_table()[i]
        hits = np.nonzero(row == 0)[0]
        if len(hits) != 1:
            raise IncompleteClosureError("element has no unique inverse")
        return int(hits[0])


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
    key_tol: float = KEY_TOL,
) -> GroupClosure:
    """BFS closure of the generators under right multiplication.

    Stops cleanly with ``complete=False`` when the element budget runs out;
    that is not an error.  Raises on mixed dimensions, non-unitary dense
    generators, and structured generators with approximate angles.
    """
    gens = [_normalize(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].dim
    for g in gens:
        if g.dim != dim:
            raise DimensionMismatchError("generators of mixed dimension")
        if isinstance(g, Dense) and not g.unitary:
            raise NonUnitaryError("dense generator fails the unitarity check")
        if _has_approx_structure(g):
            raise ClosureRefusedError(
                "structured generator with approximate angles; the closure "
                "would almost surely be infinite — use sampled measurement"
            )

    # Generators from different representation families would let one group
    # element show up under two incompatible canonical keys; flatten them all
    # to dense in that case.
    if len({_family(g) for g in gens}) > 1:
        gens = [Dense(g.to_dense()) for g in gens]

    # Deduplicate generators but remember the original arity for gen_table.
    uniq_gens: list[UMatrix] = []
    seen_gen_keys = set()
    for g in gens:
        k = g.canonical_key(key_tol)
        if k not in seen_gen_keys:
            seen_gen_keys.add(k)
            uniq_gens.append(g)
    gens = uniq_gens

    ident = identity_like(gens[0])
    elements: list[UMatrix] = [ident]
    parents: list[tuple[int, int]] = [(-1, -1)]
    key_index = {ident.canonical_key(key_tol): 0}
    rows: list[list[int]] = []
    complete = True

    i = 0
    while i < len(elements):
        row = []
        for gi, g in enumerate(gens):
            h = matmul(elements[i], g)
            k = h.canonical_key(key_tol)
            j = key_index.get(k)
            if j is None:
                if len(elements) >= max_elements:
                    complete = False
                    row = None
                    break
                j = len(elements)
                key_index[k] = j
                elements.append(h)
                parents.append((i, gi))
            row.append(j)
        if row is None:
            break
        rows.append(row)
        i += 1

    if len(rows) < len(elements):
        complete = False
    gen_table = np.full((len(elements), len(gens)), -1, dtype=np.int64)
    for r, row in enumerate(rows):
        gen_table[r] = row
    if complete:
        _check_generator_action(gen_table)

    gen_indices = [key_index[g.canonical_key(key_tol)] for g in gens]
    return GroupClosure(
        elements=elements,
        generators=gens,
        complete=complete,
        parents=parents,
        gen_table=gen_table,
        key_index=key_index,
        gen_indices=gen_indices,
        key_tol=key_tol,
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


def is_irreducible(
    elements: Sequence,
    dim: Optional[int] = None,
    tol: float = 1e-8,
    max_rounds: int = 64,
) -> bool:
    """Burnside span test: do products of the elements span all of M_n?

    Grows the linear span of the given matrices by repeated left
    multiplication until it stabilizes (the generated algebra), then checks
    whether its dimension is n^2.  Rank decisions use singular values of
    unit-normalized vectorized matrices against an absolute threshold.
    Accepts a closure, structured matrices, or plain arrays.
    """
    if isinstance(elements, GroupClosure):
        elements = elements.elements
    mats = [e.to_dense() if isinstance(e, UMatrix) else np.asarray(e, dtype=complex)
            for e in elements]
    if not mats:
        return False
    n = mats[0].shape[0]
    if dim is not None and dim != n:
        raise DimensionMismatchError("declared dimension disagrees with elements")
    full = n * n

    def orth_extend(basis: Optional[np.ndarray], cands: np.ndarray) -> np.ndarray:
        if basis is not None:
            cands = cands - (cands @ basis.conj().T) @ basis
        norms = np.linalg.norm(cands, axis=1)
        keep = cands[norms > tol]
        if len(keep) == 0:
            return basis if basis is not None else np.zeros((0, full), dtype=complex)
        u, s, vh = np.linalg.svd(keep, full_matrices=False)
        new = vh[s > tol]
        if basis is None or len(basis) == 0:
            return new
        return np.vstack([basis, new])

    basis = orth_extend(None, np.array([m.reshape(-1) / np.linalg.norm(m) for m in mats]))
    for _ in range(max_rounds):
        if basis.shape[0] >= full:
            return True
        prods = []
        for m in mats:
            for row in basis:
                p = m @ row.reshape(n, n)
                nrm = np.linalg.norm(p)
                if nrm > tol:
                    prods.append(p.reshape(-1) / nrm)
        before = basis.shape[0]
        basis = orth_extend(basis, np.array(prods))
        if basis.shape[0] == before:
            break
    return basis.shape[0] >= full


def closure_to_json(closure: GroupClosure, include_cayley: bool = False) -> dict:
    d = {
        "generators": [matrix_to_json(g) for g in closure.generators],
        "order": closure.order,
        "complete": closure.complete,
        "dim": closure.elements[0].dim,
    }
    if include_cayley:
        d["cayley"] = closure.cayley_table().reshape(-1).tolist()
    return d


def closure_from_json(d: dict, max_elements: int = DEFAULT_BUDGET) -> GroupClosure:
    """Rebuild a closure from its serialized generators and sanity-check it."""
    gens = [matrix_from_json(g) for g in d["generators"]]
    closure = close(gens, max_elements=max_elements)
    if closure.complete != d["complete"] or closure.order != d["order"]:
        raise ValueError("serialized closure does not match a fresh enumeration")
    if "cayley" in d:
        cay = np.array(d["cayley"], dtype=np.int64).reshape(closure.order, closure.order)
        if not np.array_equal(cay, closure.cayley_table()):
            raise ValueError("serialized Cayley table does not match")
    return closure
