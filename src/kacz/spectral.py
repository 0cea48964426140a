"""Spectral calculus of averaged subset projectors.

The sum of quasi projectors over all n-subsets is a degree-n polynomial in
the Gram matrix, built by the recursion below with each level's volume sum
recovered from the trace. Everything downstream (transformed singular
values, grade condition numbers, rate bounds) reads off that polynomial.
Brute-force enumeration oracles cross-check the recursion at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RankDeficiencyError
from .linsys import SpectralDecomposition, singular_spectrum
from .projectors import make_row_subset, quasi_projector
from .sampling import build_volume_distribution, check_enumeration_cap, combinations_colex
from .tolerances import ABS_TOL, psd_clamp_tol


def _check_square(G: np.ndarray) -> np.ndarray:
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    if G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    return G


def _phi_levels(G: np.ndarray, n_max: int):
    """Run the recursion up to n_max; yields (k, phi_k, vols[0..k])."""
    N = G.shape[0]
    vols = [1.0]
    phi = np.zeros((N, N))
    for k in range(1, n_max + 1):
        phi = G @ (vols[k - 1] * np.eye(N) - phi)
        phi = 0.5 * (phi + phi.T)
        vols.append(float(np.trace(phi)) / k)
        yield k, phi, vols


def total_quasi_projector(G: np.ndarray, n: int) -> np.ndarray:
    """Sum of quasi projectors over all n-subsets, via the trace recursion."""
    G = _check_square(G)
    if not 1 <= n <= G.shape[0]:
        raise ValueError(f"need 1 <= n <= N={G.shape[0]}, got n={n}")
    for _, phi, _ in _phi_levels(G, n):
        pass
    return phi


def vol_sequence(G: np.ndarray, n_max: int) -> np.ndarray:
    """vols[n] = trace(phi_n) / n for n = 0..n_max (vols[0] = 1)."""
    G = _check_square(G)
    if not 1 <= n_max <= G.shape[0]:
        raise ValueError(f"need 1 <= n_max <= N={G.shape[0]}, got {n_max}")
    vols = [1.0]
    for _, _, vols in _phi_levels(G, n_max):
        pass
    return np.array(vols)


def brute_force_vol(A: np.ndarray, n: int) -> float:
    """Enumerated sum of squared subset volumes (oracle for vol_sequence)."""
    return build_volume_distribution(A, n).vol_n


def brute_force_phi(A: np.ndarray, n: int) -> np.ndarray:
    """Enumerated sum of quasi projectors (oracle for the recursion)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    check_enumeration_cap(A.shape[0], n)
    total = np.zeros((A.shape[1], A.shape[1]))
    for idx in combinations_colex(A.shape[0], n):
        total += quasi_projector(make_row_subset(A, idx))
    return total


def transform_singular_values(sigma_sq, vols, n: int) -> np.ndarray:
    """Degree-n polynomial transform of squared singular values.

    Evaluates sum_p (-1)^(p-1) vols[n-p] x^p by Horner's rule; values that
    round slightly negative (within ABS_TOL of the vol_n scale) clamp to 0.
    """
    sigma_sq = np.asarray(sigma_sq, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    if n < 1:
        raise ValueError("transform grade must be at least 1")
    if vols.shape[0] < n:
        raise ValueError(f"need vols[0..{n - 1}], got {vols.shape[0]} values")
    acc = np.full_like(sigma_sq, vols[0])
    for p in range(1, n):
        acc = vols[p] - sigma_sq * acc
    out = sigma_sq * acc
    scale = float(vols[n]) if vols.shape[0] > n else float(np.max(np.abs(out), initial=0.0))
    out[(out < 0.0) & (out >= -ABS_TOL * scale)] = 0.0
    return out


def grade_condition_number(sigma_sq, vols, n: int) -> float:
    """vol_n over the smallest transformed value among positive branches.

    Zero singular values are excluded: the error component in the null
    space of A is invariant under every step, so only positive branches
    constrain the rate. Raises when the rank is below the grade.
    """
    sigma_sq = np.asarray(sigma_sq, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    vol_n = float(vols[n])
    positive = sigma_sq[sigma_sq > psd_clamp_tol(sigma_sq.shape[0], float(np.max(sigma_sq, initial=0.0)))]
    if positive.size == 0:
        raise RankDeficiencyError("matrix has no positive singular values")
    transformed = transform_singular_values(positive, vols, n)
    if float(np.min(transformed)) < -ABS_TOL * vol_n:
        raise NumericError(
            f"transformed value {np.min(transformed):.3e} is negative beyond tolerance"
        )
    sigma_hat_min = float(np.min(np.maximum(transformed, 0.0)))
    if sigma_hat_min <= 0.0:
        raise RankDeficiencyError(f"all grade-{n} transformed values vanish (rank < {n})")
    return vol_n / sigma_hat_min


def expected_projector(G: np.ndarray, n: int) -> np.ndarray:
    """phi_n / vol_n: the average projector under volume probabilities."""
    G = _check_square(G)
    eigvals = np.linalg.eigvalsh(G)
    rank = int(np.count_nonzero(eigvals > psd_clamp_tol(G.shape[0], float(eigvals[-1]))))
    if rank < n:
        raise RankDeficiencyError(f"numerical rank {rank} < n={n}; vol_n degenerates")
    phi = total_quasi_projector(G, n)
    return phi * (n / float(np.trace(phi)))


def rate_bounds(kappa_sq: float, k: int) -> tuple[float, float]:
    """Expected-error factors after k steps: ((1-1/k2)^k, (1-1/k2)^(2k)).

    The first entry bounds the expected squared error from above for any
    start; the second is attained from a start aligned with the minimal
    eigenvector, so the pair brackets observable per-trajectory rates.
    """
    if kappa_sq < 1.0 - 1e-10:
        raise ValueError(f"grade condition number must be >= 1, got {kappa_sq}")
    if k < 0:
        raise ValueError("step count must be nonnegative")
    base = max(1.0 - 1.0 / kappa_sq, 0.0)
    return base**k, base ** (2 * k)


def gram_inverse_via_phi(G: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular PSD matrix from the level-(N-1) recursion.

    (vol_{N-1} I - phi_{N-1}) / vol_N, the Cayley-Hamilton form with all
    coefficients recovered from traces.
    """
    G = _check_square(G)
    N = G.shape[0]
    eigvals = np.linalg.eigvalsh(G)
    rank = int(np.count_nonzero(eigvals > psd_clamp_tol(N, float(eigvals[-1]))))
    if rank < N:
        raise RankDeficiencyError(f"matrix is numerically singular (rank {rank} < {N})")
    phi_prev = np.zeros((N, N))
    vols = [1.0]
    if N > 1:
        for _, phi_prev, vols in _phi_levels(G, N - 1):
            pass
    numerator = vols[N - 1] * np.eye(N) - phi_prev
    vol_full = float(np.trace(G @ numerator)) / N
    return numerator / vol_full


@dataclass(frozen=True)
class SpectralProfile:
    """Grade-by-grade transform table for one matrix.

    Row n-1 of the grade-indexed arrays describes the n-row pursuit:
    transformed eigenvalues (aligned with the descending sigma_sq),
    condition number, and minimizing eigenvector.
    """

    decomposition: SpectralDecomposition
    n_max: int
    vols: np.ndarray
    phi_eigs: np.ndarray
    kappa_sq: np.ndarray
    v_min: np.ndarray

    def phi_eigs_at(self, n: int) -> np.ndarray:
        return self.phi_eigs[n - 1]

    def kappa_sq_at(self, n: int) -> float:
        return float(self.kappa_sq[n - 1])

    def sigma_hat_sq_min_at(self, n: int) -> float:
        return float(self.vols[n] / self.kappa_sq[n - 1])

    def v_min_at(self, n: int) -> np.ndarray:
        return self.v_min[n - 1]


def build_profile_from_decomposition(
    decomp: SpectralDecomposition, n_max: int
) -> SpectralProfile:
    """Profile for a known spectrum; the Gram matrix is reconstituted in
    its eigenbasis so volumes follow the one canonical recursion."""
    sigma_sq = np.asarray(decomp.sigma_sq, dtype=np.float64)
    N = sigma_sq.shape[0]
    if not 1 <= n_max <= N:
        raise ValueError(f"need 1 <= n_max <= N={N}, got {n_max}")
    vols = vol_sequence(np.diag(sigma_sq), n_max)
    positive_mask = sigma_sq > psd_clamp_tol(N, float(np.max(sigma_sq, initial=0.0)))
    phi_eigs = np.empty((n_max, N))
    kappa_sq = np.empty(n_max)
    v_min = np.empty((n_max, N))
    for n in range(1, n_max + 1):
        phi_eigs[n - 1] = transform_singular_values(sigma_sq, vols, n)
        kappa_sq[n - 1] = grade_condition_number(sigma_sq, vols, n)
        masked = np.where(positive_mask, phi_eigs[n - 1], np.inf)
        v_min[n - 1] = decomp.V[:, int(np.argmin(masked))]
    return SpectralProfile(
        decomposition=decomp,
        n_max=n_max,
        vols=vols,
        phi_eigs=phi_eigs,
        kappa_sq=kappa_sq,
        v_min=v_min,
    )


def build_spectral_profile(A: np.ndarray, n_max: int) -> SpectralProfile:
    """Full transform table for a matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    return build_profile_from_decomposition(singular_spectrum(A), n_max)
