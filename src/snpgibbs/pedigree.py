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

from dataclasses import dataclass
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
    """Topologically ordered records; the first ``base_count`` are founders."""

    records: tuple[PedigreeRecord, ...]
    base_count: int

    def __post_init__(self):
        ids = [r.individual_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise PedigreeError("duplicate individual ids in pedigree")
        position = {rid: k for k, rid in enumerate(ids)}
        for k, rec in enumerate(self.records):
            if k < self.base_count and rec.parents():
                raise PedigreeError(
                    f"record {rec.individual_id!r} in base block has a known parent"
                )
            for pid in rec.parents():
                if pid not in position:
                    raise PedigreeError(f"unknown parent id {pid!r}")
                if position[pid] >= k:
                    raise PedigreeError(
                        f"parent {pid!r} does not precede offspring {rec.individual_id!r}"
                    )

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.individual_id for r in self.records)

    def __len__(self) -> int:
        return len(self.records)


class RelationshipMatrix:
    """Dense kinship matrix keyed by individual ids. Only its shape is checked
    here: ``Dataset`` checks the symmetry, diagonal and definiteness of R."""

    def __init__(self, ids: Sequence[str], entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("kinship entries must be a square matrix")
        if len(ids) != entries.shape[0]:
            raise ValueError("id count does not match matrix dimension")
        self.ids = tuple(str(i) for i in ids)
        self.entries = entries
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
    by_id: dict[str, PedigreeRecord] = {}
    for rec in records:
        if rec.individual_id in by_id:
            raise PedigreeError(f"duplicate individual id {rec.individual_id!r}")
        by_id[rec.individual_id] = rec
    for rec in by_id.values():
        for pid in rec.parents():
            if pid not in by_id:
                raise PedigreeError(
                    f"parent id {pid!r} of {rec.individual_id!r} not in pedigree"
                )

    # Kahn's algorithm one generation at a time: a record joins the
    # generation after the last of its parents, ids sorted within each
    children: dict[str, list[str]] = {rid: [] for rid in by_id}
    waiting = {}  # parent links not yet placed
    for rid, rec in by_id.items():
        waiting[rid] = len(rec.parents())
        for pid in rec.parents():
            children[pid].append(rid)
    generation = sorted(rid for rid, count in waiting.items() if count == 0)
    base_count = len(generation)  # founders are exactly the first generation
    ordered: list[PedigreeRecord] = []
    while generation:
        ordered.extend(by_id[rid] for rid in generation)
        following = []
        for rid in generation:
            for child in children[rid]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    following.append(child)
        generation = sorted(following)
    if len(ordered) < len(by_id):
        placed = {rec.individual_id for rec in ordered}
        raise PedigreeError(_describe_cycle(by_id, set(by_id) - placed))
    return OrderedPedigree(tuple(ordered), base_count)


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

    Each new row reads its parents' rows ``R[g, :j]``, which are complete
    because every step writes its row and column alike."""
    n = len(ped)
    pos = {rid: k for k, rid in enumerate(ped.ids)}
    R = np.zeros((n, n))
    for j, rec in enumerate(ped.records):
        parents = [pos[p] for p in rec.parents()]
        if len(parents) == 2:
            g, h = parents
            row = 0.5 * (R[g, :j] + R[h, :j])
            R[j, j] = 1.0 + 0.5 * R[g, h]
        elif len(parents) == 1:
            g = parents[0]
            row = 0.5 * R[g, :j]
            R[j, j] = 1.0
        else:
            row = np.zeros(j)
            R[j, j] = 1.0
        R[j, :j] = row
        R[:j, j] = row
    return RelationshipMatrix(ped.ids, R)


def extract_submatrix(R: RelationshipMatrix, ids: Sequence[str]) -> RelationshipMatrix:
    """Principal submatrix on the selected ids, in the given order."""
    idx = np.array([R.index_of(i) for i in ids], dtype=int)
    return RelationshipMatrix(list(ids), R.entries[np.ix_(idx, idx)])
