"""Spectral calculus of averaged subset projectors.

The sum phi_n of quasi projectors over all n-subsets has the eigenvectors
of the Gram matrix and eigenvalues sigma_hat_j^2 = sigma_j^2 e_{n-1}(sigma^2
without j); vol_n = e_n(sigma^2), with e_k the elementary symmetric
polynomials (ESPs). Every grade quantity is read off one ESP core. The
paper's matrix recursion and enumeration stay as the tests' oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RankDeficiencyError
from .linsys import SpectralDecomposition, singular_spectrum
from .projectors import make_row_subset, quasi_projector
from .sampling import build_volume_distribution, check_enumeration_cap, combinations_colex
from .tolerances import psd_clamp_tol


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


def elementary_symmetric(sigma_sq, n_max: int) -> tuple[np.ndarray, np.ndarray, int]:
    """e[k] = e_k(x) for k <= n_max, loo[j, k] = e_k(x without x_j) for
    k <= n_max, and p, where x = sigma_sq / 2**p and 2**p is the largest power
    of two not above max(sigma_sq): scaling is exact, x lies in [0, 2) and a
    grade-n value is ldexp(value, n * p). Every term of e_k += x_i e_{k-1}
    is nonnegative, so nothing cancels (Kulesza & Taskar 2012, sec. 5.2):
    row i of the table skips x_i, never subtracts it; the last skips none.
    """
    sigma_sq = np.asarray(sigma_sq, dtype=np.float64)
    p = math.frexp(float(np.max(sigma_sq, initial=0.0)))[1] - 1
    table = np.zeros((sigma_sq.size + 1, n_max + 1))
    table[:, 0] = 1.0
    for i, xi in enumerate(np.ldexp(sigma_sq, -p)):
        update = xi * table[:, :-1]
        update[i] = 0.0
        table[:, 1:] += update
    return table[-1], table[:-1], p


def volume_sum(sigma_sq, n: int) -> float:
    """vol_n = e_n(sigma^2), the sum of squared n-subset volumes (Cauchy-Binet)."""
    e, _, p = elementary_symmetric(sigma_sq, n)
    with np.errstate(over="ignore"):
        vol = float(np.ldexp(e[n], n * p))
    if not math.isfinite(vol):
        raise NumericError(f"vol_{n} does not fit in a double")
    return vol


def _diagonal_profile(sigma_sq, n: int) -> SpectralProfile:
    sigma_sq = np.asarray(sigma_sq, dtype=np.float64)
    decomp = SpectralDecomposition(sigma_sq=sigma_sq, V=np.eye(sigma_sq.size))
    return build_profile_from_decomposition(decomp, n)


def transform_singular_values(sigma_sq, n: int) -> np.ndarray:
    """sigma_hat_j^2 = sigma_j^2 e_{n-1}(sigma^2 without j), aligned with
    sigma_sq: the eigenvalues of phi_n, the paper's degree-n transform."""
    return _diagonal_profile(sigma_sq, n).phi_eigs_at(n)


def grade_condition_number(sigma_sq, n: int) -> float:
    """vol_n over the smallest transformed value among positive branches."""
    return _diagonal_profile(sigma_sq, n).kappa_sq_at(n)


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
    """Grade table of one matrix: row n-1 of each array is the n-row pursuit's
    transformed values (aligned with sigma_sq), those values over vol_n,
    kappa^2_n and v_min."""

    vols: np.ndarray
    phi_eigs: np.ndarray
    normalized: np.ndarray
    kappa_sq: np.ndarray
    v_min: np.ndarray

    def phi_eigs_at(self, n: int) -> np.ndarray:
        return self.phi_eigs[n - 1]

    def normalized_at(self, n: int) -> np.ndarray:
        return self.normalized[n - 1]

    def kappa_sq_at(self, n: int) -> float:
        return float(self.kappa_sq[n - 1])

    def sigma_hat_sq_min_at(self, n: int) -> float:
        return float(self.vols[n] / self.kappa_sq[n - 1])

    def v_min_at(self, n: int) -> np.ndarray:
        return self.v_min[n - 1]


def build_profile_from_decomposition(
    decomp: SpectralDecomposition, n_max: int
) -> SpectralProfile:
    """Profile for a known spectrum from one pass over the ESP core. kappa^2_n
    and v_min read only branches above the PSD clamp, since the error in the
    null space of A never changes. Raises NumericError when a grade's vol_n,
    sigma_hat_sq_min or kappa^2_n is not a finite, normal, positive double."""
    sigma_sq = np.asarray(decomp.sigma_sq, dtype=np.float64)
    N = sigma_sq.shape[0]
    if not 1 <= n_max <= N:
        raise ValueError(f"need 1 <= n_max <= N={N}, got {n_max}")
    e, loo, p = elementary_symmetric(sigma_sq, n_max)
    if e[n_max] == 0.0:
        rank = np.count_nonzero(sigma_sq)
        raise RankDeficiencyError(f"all grade-{n_max} subset volumes vanish (rank {rank})")
    positive = sigma_sq > psd_clamp_tol(N, float(np.max(sigma_sq)))
    hats = np.ldexp(sigma_sq, -p) * loo[:, :-1].T
    # sigma_hat_j^2 / vol_n = t / (t + s) with s = e_n(x without j) >= 0, since
    # e_n(x) = x_j e_{n-1}(x without j) + s: never above 1, exactly 1 at n = N
    with_rest = hats + loo[:, 1:].T
    normalized = np.divide(hats, with_rest, out=np.zeros_like(hats), where=hats > 0.0)
    masked = np.where(positive, hats, np.inf)
    hat_min = np.min(masked, axis=1)
    grades = np.arange(n_max + 1)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        kappa_sq = e[1:] / hat_min  # a ratio of scaled ESPs: the scale cancels
        vols = np.ldexp(e, grades * p)
        phi_eigs = np.ldexp(hats, grades[1:, None] * p)
        checked = {"vol_n": vols[1:], "sigma_hat_sq_min": np.ldexp(hat_min, grades[1:] * p),
                   "kappa_sq": kappa_sq}
    for name, values in checked.items():
        bad = np.flatnonzero(~((values >= np.finfo(np.float64).tiny) & np.isfinite(values)))
        if bad.size:
            raise NumericError(f"grade {bad[0] + 1}: {name} = {values[bad[0]]:.3e} "
                               f"is not a finite, normal, positive double")
    v_min = decomp.V[:, np.argmin(masked, axis=1)].T
    return SpectralProfile(vols, phi_eigs, normalized, kappa_sq, v_min)


def build_spectral_profile(A: np.ndarray, n_max: int) -> SpectralProfile:
    """Full transform table for a matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    return build_profile_from_decomposition(singular_spectrum(A), n_max)
