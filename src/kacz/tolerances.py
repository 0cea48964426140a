"""Pinned numerical tolerances.

All arithmetic is IEEE double precision; these constants are shared by the
library and the test suite so that acceptance thresholds live in one place.
"""

import numpy as np

#: Consistency check scale for A @ x_star against b (scaled by 1 + ||b||_inf).
CONSISTENCY_TOL = 1e-8

#: Cap on the number of enumerated row subsets for brute-force oracles.
ENUMERATION_CAP = 2_000_000

#: A pursuit member leaves gain statistics below this squared-error scale
#: (scaled by 1 + ||x_star||^2).
PRECISION_CUTOFF = 1e-28

#: Iterations discarded before comparing empirical rates to bounds.
BURN_IN = 100

EPS = float(np.finfo(np.float64).eps)


def psd_clamp_tol(n: int, max_eig: float) -> float:
    """Threshold below which eigenvalues of an n x n PSD matrix count as zero."""
    return n * EPS * max(max_eig, 0.0)
