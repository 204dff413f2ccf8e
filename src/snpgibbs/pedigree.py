"""Numerator relationship matrices from pedigree records.

The recursion fills the matrix row by row over a topologically ordered
pedigree (parents before offspring, founders first):

  both parents g, h known:  R[j,i] = 0.5*(R[i,g] + R[i,h]),  R[j,j] = 1 + 0.5*R[g,h]
  one parent g known:       R[j,i] = 0.5*R[i,g],             R[j,j] = 1
  no parent known:          R[j,i] = 0,                      R[j,j] = 1

Founders are treated as an unrelated base population, so the leading
base block of the matrix is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "PedigreeError",
    "PedigreeRecord",
    "OrderedPedigree",
    "RelationshipMatrix",
    "order_pedigree",
    "build_numerator_matrix",
    "extract_submatrix",
    "repeated_id",
]


class PedigreeError(ValueError):
    """Invalid pedigree structure (cycles, dangling parents, bad ordering)."""


@dataclass(frozen=True)
class PedigreeRecord:
    """One individual with optional sire/dam references."""

    individual_id: str
    sire_id: Optional[str] = None
    dam_id: Optional[str] = None

    def parents(self) -> tuple[str, ...]:
        return tuple(p for p in (self.sire_id, self.dam_id) if p is not None)


@dataclass(frozen=True)
class OrderedPedigree:
    """Topologically ordered records; the first ``base_count`` are founders.

    ``parent_index`` holds, per record, the positions of its known parents
    in the order ``PedigreeRecord.parents`` lists them, then -1: shape
    (n, 2), read-only, resolved from the records."""

    records: tuple[PedigreeRecord, ...]
    base_count: int
    parent_index: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ids = self.ids
        repeated = repeated_id(ids)
        if repeated is not None:
            raise PedigreeError(f"duplicate individual id {repeated!r}")
        index = _parent_positions(self.records, {rid: k for k, rid in enumerate(ids)})
        index.setflags(write=False)
        object.__setattr__(self, "parent_index", index)
        # a founder in the base block, an unknown parent (-2) or a parent
        # at or after its offspring
        own = np.arange(len(self.records))[:, None]
        bad = (index >= own) | (index == UNKNOWN_PARENT)
        bad[: self.base_count] |= index[: self.base_count] >= 0
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            raise PedigreeError(self._problem(int(rows[0])))

    def _problem(self, k: int) -> str:
        rec = self.records[k]
        if k < self.base_count and rec.parents():
            return f"record {rec.individual_id!r} in base block has a known parent"
        for pid, at in zip(rec.parents(), self.parent_index[k].tolist()):
            if at == UNKNOWN_PARENT:
                return f"unknown parent id {pid!r}"
            if at >= k:
                return f"parent {pid!r} does not precede offspring {rec.individual_id!r}"
        raise AssertionError("record has no problem")  # pragma: no cover

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.individual_id for r in self.records)

    def __len__(self) -> int:
        return len(self.records)


# the parent position of an id not in the pedigree
UNKNOWN_PARENT = -2


def repeated_id(ids: Iterable[str]) -> Optional[str]:
    """The first id that ``ids`` lists a second time, or None."""
    seen: set = set()
    for rid in ids:
        if rid in seen:
            return rid
        seen.add(rid)
    return None


def _parent_positions(records: Sequence[PedigreeRecord], position: dict) -> np.ndarray:
    """Per record, the positions of its known parents, first known first,
    then -1; a parent id missing from ``position`` is UNKNOWN_PARENT."""
    lookup = position.get
    sires = np.array([-1 if r.sire_id is None else lookup(r.sire_id, UNKNOWN_PARENT)
                      for r in records], dtype=np.intp)
    dams = np.array([-1 if r.dam_id is None else lookup(r.dam_id, UNKNOWN_PARENT)
                     for r in records], dtype=np.intp)
    index = np.column_stack([sires, dams])
    dam_only = sires == -1
    index[dam_only] = index[dam_only, ::-1]
    return index


class RelationshipMatrix:
    """Dense kinship matrix keyed by individual ids. Only its shape and the
    ids, each listed once, are checked here: ``Dataset`` checks the
    symmetry, diagonal and definiteness of R."""

    def __init__(self, ids: Sequence[str], entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("kinship entries must be a square matrix")
        if len(ids) != entries.shape[0]:
            raise ValueError("id count does not match matrix dimension")
        self.ids = tuple(str(i) for i in ids)
        self.entries = entries
        repeated = repeated_id(self.ids)
        if repeated is not None:
            raise ValueError(f"duplicate individual id {repeated!r}")
        self._index = {rid: k for k, rid in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, ids: Sequence[str]) -> "RelationshipMatrix":
        return cls(ids, np.eye(len(ids)))

    def index_of(self, individual_id: str) -> int:
        try:
            return self._index[individual_id]
        except KeyError:
            raise KeyError(f"unknown individual id {individual_id!r}") from None

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.entries)
            return True
        except np.linalg.LinAlgError:
            return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"RelationshipMatrix(dim={self.dim})"


def order_pedigree(records: Iterable[PedigreeRecord]) -> OrderedPedigree:
    """Topologically order pedigree records, founders first.

    Ordering is deterministic (ids sorted within each ready set), so the
    same record set always yields the same OrderedPedigree regardless of
    input order. Raises PedigreeError on dangling parent ids or cycles,
    naming the offender.
    """
    records = list(records)
    ids = [rec.individual_id for rec in records]
    repeated = repeated_id(ids)
    if repeated is not None:
        raise PedigreeError(f"duplicate individual id {repeated!r}")
    position = {rid: k for k, rid in enumerate(ids)}
    parents = _parent_positions(records, position)
    dangling = np.flatnonzero((parents == UNKNOWN_PARENT).any(axis=1))
    if dangling.size:
        rec = records[int(dangling[0])]
        pid = next(p for p in rec.parents() if p not in position)
        raise PedigreeError(f"parent id {pid!r} of {rec.individual_id!r} not in pedigree")

    # Kahn's algorithm one generation at a time: a record joins the
    # generation after the last of its parents, ids sorted within each
    n = len(records)
    links = parents.ravel()
    known = np.flatnonzero(links >= 0)
    by_parent = known[np.argsort(links[known], kind="stable")]
    children = (by_parent // 2).tolist()  # link k belongs to record k // 2
    starts = np.searchsorted(links[by_parent], np.arange(n + 1)).tolist()
    waiting = (parents >= 0).sum(axis=1).tolist()  # parent links not yet placed
    by_id = ids.__getitem__
    generation = sorted((k for k in range(n) if not waiting[k]), key=by_id)
    base_count = len(generation)  # founders are exactly the first generation
    order: list[int] = []
    while generation:
        order.extend(generation)
        following = []
        for k in generation:
            for child in children[starts[k] : starts[k + 1]]:
                waiting[child] -= 1
                if not waiting[child]:
                    following.append(child)
        generation = sorted(following, key=by_id)
    if len(order) < n:
        placed = {ids[k] for k in order}
        pending = set(ids) - placed
        raise PedigreeError(_describe_cycle(dict(zip(ids, records)), pending))
    return OrderedPedigree(tuple(records[k] for k in order), base_count)


def _describe_cycle(by_id: dict[str, PedigreeRecord], pending: set[str]) -> str:
    # walk parent links inside the unplaceable set until an id repeats
    start = sorted(pending)[0]
    chain = [start]
    seen = {start}
    current = start
    while True:
        nxt = next((p for p in by_id[current].parents() if p in pending), None)
        if nxt is None:  # pragma: no cover - pending nodes always have a pending parent
            break
        chain.append(nxt)
        if nxt in seen:
            k = chain.index(nxt)
            return "pedigree cycle detected: " + " -> ".join(chain[k:])
        seen.add(nxt)
        current = nxt
    return "pedigree cycle detected among: " + ", ".join(sorted(pending))


def build_numerator_matrix(ped: OrderedPedigree) -> RelationshipMatrix:
    """Apply the three-case kinship recursion over an ordered pedigree.

    The recursion runs over blocks of consecutive records, none of whose
    parents lies inside its block (``_blocks``): a block's rows up to the
    block read its parents' rows, which are complete, and its entries
    among its own records read those rows again. The work matrix has one
    more row and column, left zero, which the parent position -1 (none)
    reads, so every record takes the both-parents rule: 0.5 (x + 0) is
    0.5 x. Every entry is the value the record-by-record recursion gives,
    bit for bit."""
    n = len(ped)
    parents = ped.parent_index
    R = np.zeros((n + 1, n + 1))
    pairs = parents.tolist()
    for a, b in _blocks(parents):
        if b - a == 1:  # one record: its parents' rows are views, not gathers
            g, h = pairs[a]
            row = R[g, :a] + R[h, :a]
            row *= 0.5
            R[a, :a] = row
            R[:a, a] = row
            R[a, a] = 1.0 + 0.5 * R[g, h]
            continue
        g, h = parents[a:b, 0], parents[a:b, 1]
        rows = R[g, :a]  # R[j, :a]; a gather is a copy
        rows += R[h, :a]
        rows *= 0.5
        R[a:b, :a] = rows
        R[:a, a:b] = rows.T
        # R[j, i] for i < j in the block, at [i, j], by the same rule from
        # the rows R[i, :a] just filled; the rest of ``within`` is zero
        within = R[a:b, g]
        within += R[a:b, h]
        within *= HALF_ABOVE_DIAGONAL[: b - a, : b - a]
        R[a:b, a:b] = within + within.T
        block = np.arange(a, b)
        R[block, block] = 1.0 + 0.5 * R[g, h]
    return RelationshipMatrix(ped.ids, R[:n, :n])


# records per block of the kinship recursion: bounds the block's two
# BLOCK_ROWS x n temporaries. At n = 1000 in generations of 200 a build
# with 16 rows takes about half the time of the record-by-record one and
# 32 rows about a quarter less again, but 32 rows raise the peak resident
# memory of the process by about 0.4 MiB, 16 by 0.1 MiB.
BLOCK_ROWS = 16

# 0.5 above the diagonal, 0 on and below it: x * 0.5 is 0.5 x, and x * 0
# is 0 for the finite, non-negative entries of a kinship matrix
HALF_ABOVE_DIAGONAL = np.triu(np.full((BLOCK_ROWS, BLOCK_ROWS), 0.5), 1)


def _blocks(parents: np.ndarray) -> Iterable[tuple[int, int]]:
    """(start, stop) of each block: a block ends before its first record
    with a parent inside it, or at BLOCK_ROWS records. The blocks are as
    wide as the pedigree's generations, up to the cap."""
    latest = parents.max(axis=1, initial=-1).tolist()  # each record's last parent
    start = 0
    for k in range(1, len(latest)):
        if latest[k] >= start or k - start == BLOCK_ROWS:
            yield start, k
            start = k
    if latest:
        yield start, len(latest)


def extract_submatrix(R: RelationshipMatrix, ids: Sequence[str]) -> RelationshipMatrix:
    """Principal submatrix on the selected ids, in the given order."""
    idx = np.array([R.index_of(i) for i in ids], dtype=int)
    return RelationshipMatrix(list(ids), R.entries[np.ix_(idx, idx)])
