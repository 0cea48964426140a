"""Row-subset geometry: orthogonal projectors, adjugates, quasi projectors.

The squared subset volume is det(A_n A_n^T), computed from a pivoted QR of
A_n^T so the condition number is squared only once. Rank decisions happen
on the QR diagonal before any inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateAngleError, DependentSubsetError
from .tolerances import EPS


@dataclass(frozen=True)
class RowSubset:
    """n distinct rows of a parent matrix, indices strictly increasing."""

    indices: tuple[int, ...]
    A_n: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indices)


def make_row_subset(A: np.ndarray, indices) -> RowSubset:
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    M, N = A.shape
    idx = tuple(int(i) for i in indices)
    n = len(idx)
    if not 1 <= n <= N:
        raise ValueError(f"subset size must be in [1, N={N}], got {n}")
    if any(i < 0 or i >= M for i in idx):
        raise ValueError(f"row indices out of range [0, {M}): {idx}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"row indices must be strictly increasing: {idx}")
    A_n = A[list(idx), :].copy()
    A_n.setflags(write=False)
    return RowSubset(indices=idx, A_n=A_n)


@dataclass(frozen=True)
class SubsetGeometry:
    """Gram matrix, squared volume and numerical rank of a row subset."""

    G_n: np.ndarray
    v_sq: float
    rank: int


def subset_geometry(S: RowSubset) -> SubsetGeometry:
    """Geometry of the subset; v_sq = 0 whenever rank < n.

    v_sq is the product of squared diagonal entries of the pivoted-QR
    triangle of A_n^T; rank counts squared diagonals above n*eps*largest.
    """
    A_n = S.A_n
    n = S.n
    G_n = A_n @ A_n.T
    G_n = 0.5 * (G_n + G_n.T)
    R = scipy.linalg.qr(A_n.T, mode="r", pivoting=True)[0]
    diag_sq = np.diagonal(R)[:n] ** 2
    rank_tol = n * EPS * float(diag_sq[0]) if diag_sq.size else 0.0
    rank = int(np.count_nonzero(diag_sq > rank_tol))
    v_sq = float(np.prod(diag_sq)) if rank == n else 0.0
    return SubsetGeometry(G_n=G_n, v_sq=v_sq, rank=rank)


def _cholesky(S: RowSubset):
    geom = subset_geometry(S)
    if geom.rank < S.n:
        raise DependentSubsetError(
            f"rows {S.indices} are numerically dependent (rank {geom.rank} < {S.n})"
        )
    try:
        return scipy.linalg.cho_factor(geom.G_n, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise DependentSubsetError(f"Gram matrix of rows {S.indices} is not positive definite") from exc


def orthogonal_projector(S: RowSubset) -> np.ndarray:
    """P_n = A_n^T G_n^{-1} A_n for an independent subset."""
    cho = _cholesky(S)
    P = S.A_n.T @ scipy.linalg.cho_solve(cho, S.A_n)
    return 0.5 * (P + P.T)


def apply_rejection(S: RowSubset, r: np.ndarray) -> np.ndarray:
    """(I - P_n) r without forming the projector."""
    r = np.asarray(r, dtype=np.float64)
    cho = _cholesky(S)
    return r - S.A_n.T @ scipy.linalg.cho_solve(cho, S.A_n @ r)


def _adjugate_cofactor(G: np.ndarray) -> np.ndarray:
    n = G.shape[0]
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        return np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]])
    # n == 3: transpose of the cofactor matrix.
    adj = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(G, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return adj


def adjugate(G: np.ndarray) -> np.ndarray:
    """Adjugate of a symmetric matrix; satisfies G @ adj(G) = det(G) I.

    Cofactor expansion up to 3x3; larger matrices use det * inverse, or the
    eigenvalue-complement form when numerically singular (each eigenvalue is
    replaced by the product of all the others).
    """
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    n = G.shape[0]
    if G.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if n <= 3:
        return _adjugate_cofactor(G)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (G + G.T))
    max_abs = float(np.max(np.abs(eigvals)))
    if max_abs > 0.0 and float(np.min(np.abs(eigvals))) > n * EPS * max_abs:
        det = float(np.prod(eigvals))
        adj = det * np.linalg.inv(G)
    else:
        complements = np.empty(n)
        for j in range(n):
            complements[j] = np.prod(np.delete(eigvals, j))
        adj = (eigvecs * complements) @ eigvecs.T
    return 0.5 * (adj + adj.T)


def quasi_projector(S: RowSubset) -> np.ndarray:
    """Q_n = A_n^T adj(G_n) A_n; equals v_sq * P_n, and 0 when dependent."""
    G_n = S.A_n @ S.A_n.T
    Q = S.A_n.T @ adjugate(0.5 * (G_n + G_n.T)) @ S.A_n
    return 0.5 * (Q + Q.T)


def _leave_one_out(S: RowSubset, s: int) -> RowSubset:
    keep = [i for i in range(S.n) if i != s]
    A_rest = S.A_n[keep, :].copy()
    A_rest.setflags(write=False)
    return RowSubset(indices=tuple(S.indices[i] for i in keep), A_n=A_rest)


def leave_one_out_angles(S: RowSubset) -> list[float]:
    """sin^2 of the angle between each row and the span of the others."""
    if S.n < 2:
        raise ValueError("angles need at least two rows")
    out = []
    for s in range(S.n):
        a_s = S.A_n[s]
        perp = apply_rejection(_leave_one_out(S, s), a_s)
        norm_sq = float(a_s @ a_s)
        if norm_sq == 0.0:
            raise DependentSubsetError(f"row {S.indices[s]} is zero")
        out.append(float(perp @ perp) / norm_sq)
    return out


def recursive_projector(S: RowSubset) -> np.ndarray:
    """P_n assembled from rank-1 projectors and leave-one-out rejections.

    Each term projects onto one row after rejecting the span of the others,
    scaled by the inverse squared sine of the row's angle to that span.
    """
    n = S.n
    if n < 2:
        raise ValueError("recursive expansion needs n >= 2")
    geom = subset_geometry(S)
    if geom.rank < n:
        raise DependentSubsetError(f"rows {S.indices} are numerically dependent")
    N = S.A_n.shape[1]
    P = np.zeros((N, N))
    for s in range(n):
        a_s = S.A_n[s]
        rest = _leave_one_out(S, s)
        rejection = np.eye(N) - orthogonal_projector(rest)
        norm_sq = float(a_s @ a_s)
        sin_sq = float(a_s @ rejection @ a_s) / norm_sq
        if sin_sq < n * EPS:
            raise DegenerateAngleError(
                f"row {S.indices[s]} is numerically inside the span of the rest"
            )
        P_1 = np.outer(a_s, a_s) / norm_sq
        P += (P_1 @ rejection) / sin_sq
    return P
