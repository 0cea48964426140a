"""Benchmark-side references, computed without kacz.

- Grade quantities from squared singular values through elementary
  symmetric polynomials (ESPs): vol_n = e_n(sigma^2) and
  sigma_hat_j^2 = sigma_j^2 * e_{n-1}(sigma^2 without j). The positive-term
  recursion e_k += x * e_{k-1} runs on sigma^2 / sigma_max^2, so every
  term lies in [0, C(N, k)] and nothing overflows; the scale comes back in
  log space. Each value is therefore known even when it does not fit in a
  double, which is what decides whether an exit 1 is acceptable.
- The largest squared subset volume by batched enumeration of
  det(A_S A_S^T) over every n-subset, in chunks to keep memory small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

LOG_MAX = math.log(np.finfo(np.float64).max)
LOG_TINY = math.log(np.finfo(np.float64).tiny)
EPS = float(np.finfo(np.float64).eps)
#: Subsets per batched determinant in max_subset_volume.
CHUNK = 4096


def representable(log_value: float) -> bool:
    """True when exp(log_value) is a finite, normal, positive double."""
    return LOG_TINY < log_value < LOG_MAX


@dataclass(frozen=True)
class GradeTable:
    """Natural logs of the grade quantities for grades 1..n_max.

    log_hat[n - 1, j] is log sigma_hat_j^2 at grade n (-inf for a zero
    value); positive marks the branches that count for kappa^2_n.
    """

    sigma_sq: np.ndarray
    log_vol: np.ndarray
    log_hat: np.ndarray
    positive: np.ndarray

    def log_hat_min(self, n: int) -> float:
        return float(np.min(self.log_hat[n - 1][self.positive]))

    def log_kappa_sq(self, n: int) -> float:
        return float(self.log_vol[n - 1]) - self.log_hat_min(n)

    def inv_kappa_sq(self, n: int) -> float:
        """1 / kappa^2_n = 1 - bound_lower_factor for volume sampling."""
        return math.exp(-self.log_kappa_sq(n))


def esp(x: np.ndarray, n: int) -> np.ndarray:
    """e_0..e_n of the entries of x by the positive-term recursion."""
    e = np.zeros(n + 1)
    e[0] = 1.0
    for xi in x:
        e[1:] += xi * e[:-1]
    return e


def grade_table(sigma_sq, n_max: int) -> GradeTable:
    sigma_sq = np.sort(np.asarray(sigma_sq, dtype=np.float64))[::-1]
    N = sigma_sq.shape[0]
    scale = float(sigma_sq[0])
    x = sigma_sq / scale
    e_all = esp(x, n_max)
    # Leave-one-out ESPs: row j accumulates every element except x_j.
    loo = np.zeros((N, n_max))
    loo[:, 0] = 1.0
    for i, xi in enumerate(x):
        update = xi * loo[:, :-1]
        update[i] = 0.0
        loo[:, 1:] += update
    grades = np.arange(1, n_max + 1)
    log_scale = math.log(scale)
    with np.errstate(divide="ignore"):
        log_vol = np.log(e_all[1:]) + grades * log_scale
        log_hat = np.log(x[None, :] * loo.T) + grades[:, None] * log_scale
    positive = sigma_sq > N * EPS * scale
    return GradeTable(sigma_sq=sigma_sq, log_vol=log_vol, log_hat=log_hat, positive=positive)


def matrix_grade_table(A: np.ndarray, n_max: int) -> GradeTable:
    return grade_table(np.linalg.svd(A, compute_uv=False) ** 2, n_max)


def max_subset_volume(A: np.ndarray, n: int) -> float:
    """Largest squared volume det(A_S A_S^T) over all n-row subsets of A."""
    A = np.asarray(A, dtype=np.float64)
    subsets = combinations(range(A.shape[0]), n)
    largest = 0.0
    while True:
        idx = np.array(list(islice(subsets, CHUNK)), dtype=np.intp)
        if idx.size == 0:
            return largest
        rows = A[idx]
        largest = max(largest, float(np.linalg.det(rows @ rows.transpose(0, 2, 1)).max()))


def uniform_inv_kappa_sq(table: GradeTable, M: int, n: int, v_sq_max: float) -> float:
    """1 / kappa^2_n with vol_n replaced by C(M, n) * v_sq_max."""
    return math.exp(table.log_hat_min(n) - math.log(math.comb(M, n) * v_sq_max))
