"""Rank-one and low-rank inverse-update kernels.

These reproduce the paper's device for (Z'R^{-1}Z + I/phi^2)^{-1} when Z
changes by one column. Writing the new matrix as

  A1 = A0 + Delta'R^{-1}Z0 + Z0'R^{-1}Delta + Delta'R^{-1}Delta + (1/phi1^2 - 1/phi0^2) I

with Delta zero except for column j (contents delta), the three Delta terms
are exactly the rank-one matrices

  e_j g',  g e_j',  (delta'R^{-1}delta) e_j e_j'      with g = Z0'R^{-1}delta,

so three rank-one inverse updates refresh the cached inverse without any
re-inversion. An identity shift from a phi^2 change is full rank, so it is
absorbed by one re-factorization.

The package does not use these kernels: phi^2 changes every sweep, so
the Gibbs sampler keeps Z'R^{-1}Z exact instead and factors the precision
per draw (see ``gibbs.sample_gamma``), and no module of ``snpgibbs``
imports this one. Only acceptance criterion 02, ``tests/test_linalg.py``
and the per-layer benchmark wrappers in ``perfbench/layers.py`` import
it.

All kernels here are pure except InverseCache, which is single-owner
mutable state with periodic drift-controlled refreshes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "SingularUpdateError",
    "ColumnDelta",
    "InverseCache",
    "sherman_morrison_update",
    "woodbury_update",
    "rank_one_chain",
    "dual_form_inverse",
    "column_delta_inverse_update",
]

DENOM_TOL = 1e-12


class SingularUpdateError(ArithmeticError):
    """A rank-one/low-rank update hit a (near-)singular denominator."""


@dataclass(frozen=True)
class ColumnDelta:
    """Difference of one matrix column: new column minus old column."""

    column_index: int
    delta: np.ndarray

    def is_zero(self) -> bool:
        return not np.any(self.delta)


def sherman_morrison_update(Ainv: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inverse of A + u v' given Ainv, without inverting anything.

    (A + uv')^{-1} = A^{-1} - A^{-1}u v'A^{-1} / (1 + v'A^{-1}u)
    """
    Au = Ainv @ u
    vA = v @ Ainv
    denom = 1.0 + float(v @ Au)
    if abs(denom) < DENOM_TOL:
        raise SingularUpdateError(f"rank-one update denominator {denom:.3e} below tolerance")
    return Ainv - np.outer(Au, vA) / denom


def woodbury_update(Ainv: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Inverse of A + U V given Ainv; only a k x k system is solved.

    (A + UV)^{-1} = A^{-1} - A^{-1}U (I + V A^{-1} U)^{-1} V A^{-1}
    """
    U = np.atleast_2d(U)
    V = np.atleast_2d(V)
    AU = Ainv @ U
    VA = V @ Ainv
    k = U.shape[1]
    inner = np.eye(k) + V @ AU
    try:
        middle = np.linalg.solve(inner, VA)
    except np.linalg.LinAlgError as exc:
        raise SingularUpdateError(f"inner {k}x{k} system singular") from exc
    return Ainv - AU @ middle


def rank_one_chain(A0inv: np.ndarray, updates) -> np.ndarray:
    """Chain rank-one updates: inverse of A0 + sum_k u_k v_k'."""
    Ainv = np.array(A0inv, dtype=float, copy=True)
    for step, (u, v) in enumerate(updates):
        try:
            Ainv = sherman_morrison_update(Ainv, np.asarray(u, float), np.asarray(v, float))
        except SingularUpdateError as exc:
            raise SingularUpdateError(f"chain step {step}: {exc}") from None
    return Ainv


def dual_form_inverse(
    Z: np.ndarray, R: np.ndarray, phi2: float, branch: str = "auto"
) -> np.ndarray:
    """Inverse of Z'R^{-1}Z + I/phi^2 via whichever of the two dual forms is smaller.

    The s x s form is inverted directly; when n < s the identity

      (Z'R^{-1}Z + I/phi^2)^{-1} = phi^2 [I - Z'((1/phi^2) R + Z Z')^{-1} Z]

    turns the work into an n x n inversion instead.
    """
    if phi2 <= 0:
        raise ValueError("phi2 must be positive")
    Z = np.asarray(Z, dtype=float)
    R = np.asarray(R, dtype=float)
    n, s = Z.shape
    if branch == "auto":
        branch = "direct" if s <= n else "dual"
    if branch == "direct":
        Rinv_Z = np.linalg.solve(R, Z)
        A = Z.T @ Rinv_Z + np.eye(s) / phi2
        return _spd_inverse(A)
    if branch == "dual":
        inner = R / phi2 + Z @ Z.T
        W = np.linalg.solve(inner, Z)
        return phi2 * (np.eye(s) - Z.T @ W)
    raise ValueError(f"unknown branch {branch!r}")


def _spd_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    L = np.linalg.cholesky(A)
    Linv = np.linalg.solve(L, np.eye(A.shape[0]))
    return Linv.T @ Linv


class InverseCache:
    """Owns a matrix A and its maintained inverse across rank-one updates.

    Floating-point drift accumulates along an update chain, so after
    ``refresh_period`` updates the inverse is re-factorized from the
    accumulated A, restoring ||A @ inverse - I||_max to factorization
    accuracy. ``drift_bound`` is the tolerance used when callers ask the
    cache to verify itself.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        inverse: np.ndarray,
        refresh_period: int = 200,
        drift_bound: float = 1e-8,
    ):
        self.matrix = np.array(matrix, dtype=float, copy=True)
        self.inverse = np.array(inverse, dtype=float, copy=True)
        self.update_count = 0
        self.refresh_period = int(refresh_period)
        self.drift_bound = float(drift_bound)
        self.singular_fallbacks = 0
        self.refreshes = 0
        dim = self.matrix.shape[0]
        self._work = np.empty((dim, dim))  # outer-product workspace

    @classmethod
    def from_matrix(cls, A: np.ndarray, **kwargs) -> "InverseCache":
        return cls(A, _spd_inverse(np.asarray(A, dtype=float)), **kwargs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def residual(self) -> float:
        """Max-norm of A @ inverse - I."""
        P = self.matrix @ self.inverse
        P[np.diag_indices_from(P)] -= 1.0
        return float(np.max(np.abs(P)))

    def refresh(self) -> None:
        """Re-factorize the inverse from the accumulated matrix.

        Cholesky when the accumulated matrix is still symmetric (the sampler
        path), a general LU inverse otherwise (asymmetric update chains).
        """
        M = self.matrix
        if np.max(np.abs(M - M.T)) <= 1e-10 * max(np.max(np.abs(M)), 1.0):
            try:
                self.inverse = _spd_inverse(0.5 * (M + M.T))
            except np.linalg.LinAlgError:
                self.inverse = np.linalg.inv(M)
        else:
            self.inverse = np.linalg.inv(M)
        self.update_count = 0
        self.refreshes += 1

    def apply_updates(self, updates) -> None:
        """Add sum_k u_k v_k' to the matrix and update the inverse.

        The matrix is updated first so that a singular intermediate in the
        inverse chain can fall back to one full re-inversion of the already
        complete matrix.
        """
        updates = list(updates)
        for u, v in updates:
            np.multiply.outer(u, v, out=self._work)
            self.matrix += self._work
        try:
            for u, v in updates:
                self._rank_one_inverse(u, v)
                self.update_count += 1
        except SingularUpdateError:
            logger.warning("singular rank-one update; falling back to full re-inversion")
            self.singular_fallbacks += 1
            self.refresh()
            return
        if self.update_count >= self.refresh_period:
            self.refresh()

    def _rank_one_inverse(self, u: np.ndarray, v: np.ndarray) -> None:
        Au = self.inverse @ u
        vA = v @ self.inverse
        denom = 1.0 + float(v @ Au)
        if abs(denom) < DENOM_TOL:
            raise SingularUpdateError(f"denominator {denom:.3e} below tolerance")
        np.multiply.outer(Au, vA / denom, out=self._work)
        self.inverse -= self._work

    def symmetrize(self) -> None:
        self.inverse += self.inverse.T
        self.inverse *= 0.5
        self.matrix += self.matrix.T
        self.matrix *= 0.5


def column_delta_inverse_update(
    cache: InverseCache,
    Z0: np.ndarray,
    delta: ColumnDelta,
    Rinv: np.ndarray,
    phi2_old: float,
    phi2_new: float,
) -> InverseCache:
    """Update cache from A0 = Z0'R^{-1}Z0 + I/phi0^2 to the post-change matrix.

    Z0 is the design matrix *before* the column change. The three rank-one
    terms carry the column difference; the diagonal shift from a phi^2
    change is added to the matrix, which is then re-factorized.
    """
    s = cache.dim
    if not delta.is_zero():
        j = delta.column_index
        d = np.asarray(delta.delta, dtype=float)
        w = Rinv @ d
        g = Z0.T @ w
        c = float(d @ w)
        ej = np.zeros(s)
        ej[j] = 1.0
        cache.apply_updates([(ej, g), (g, ej.copy()), (c * ej, ej.copy())])
        cache.symmetrize()

    if phi2_new != phi2_old:
        if phi2_new <= 0 or phi2_old <= 0:
            raise ValueError("phi2 values must be positive")
        cache.matrix[np.diag_indices(s)] += 1.0 / phi2_new - 1.0 / phi2_old
        cache.refresh()
    return cache

