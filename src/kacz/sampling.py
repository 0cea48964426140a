"""Row-subset samplers: the subset table, volume and uniform draws, relaxation.

One colex enumeration per (A, n) builds the subset table (desk scale by
design): the positive-volume subsets with their colex ranks and squared
volumes, the cumulative weights volume draws invert, and the Gram matrices
steps reuse. Its v_sq_max serves the uniform sampler's relaxation and
bounds, and its ranks map a uniform draw back to its row. Uniform draws use
a partial Fisher-Yates shuffle; the relaxation factor turns them into
quasi-projector-matched steps. Draws and factors come one per generator,
so a batch of pursuits consumes every stream as a single pursuit would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, RankDeficiencyError
from .projectors import RowSubset, make_row_subset, subset_geometry
from .rng import Xoshiro256StarStar
from .tolerances import ENUMERATION_CAP


def combinations_colex(M: int, n: int):
    """All n-subsets of range(M) in colexicographic order."""
    if n == 0:
        yield ()
        return
    for top in range(n - 1, M):
        for rest in combinations_colex(top, n - 1):
            yield rest + (top,)


def colex_rank(subset) -> int:
    """Position of a sorted subset in colex order: sum_i C(c_i, i + 1)."""
    return sum(math.comb(c, i + 1) for i, c in enumerate(subset))


def check_enumeration_cap(M: int, n: int, cap: int = ENUMERATION_CAP) -> int:
    count = math.comb(M, n)
    if count > cap:
        raise EnumerationCapError(f"C({M},{n}) = {count} exceeds the enumeration cap {cap}")
    return count


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class VolumeDistribution:
    """Subset table of (A, n): every n-subset with positive volume.

    Row k holds, in colex order, the subset's row indices indices[k], its
    colex rank ranks[k] (increasing in k), its squared volume v_sq[k], the
    running sum cumulative[k] of v_sq[0..k] and its symmetrized Gram matrix
    G[k] = A_S A_S^T. vol_n is the enumerated normalizer (0 when rank < n,
    leaving the table empty) and v_sq_max the largest squared volume over
    all subsets. Arrays are read-only.
    """

    matrix: np.ndarray
    n: int
    indices: np.ndarray
    ranks: np.ndarray
    v_sq: np.ndarray
    cumulative: np.ndarray
    G: np.ndarray
    vol_n: float
    v_sq_max: float

    def check_drawable(self) -> None:
        """Raise unless some subset has positive volume."""
        if self.vol_n == 0.0:
            raise RankDeficiencyError(
                f"every {self.n}-subset has zero volume (rank < {self.n})"
            )

    def rows_of(self, subsets) -> np.ndarray:
        """Table row of each sorted subset, or -1 where its volume is zero."""
        ranks = np.array([colex_rank(s) for s in subsets], dtype=np.int64)
        if not self.ranks.size:
            return np.full(ranks.shape, -1)
        k = np.minimum(np.searchsorted(self.ranks, ranks), self.ranks.size - 1)
        return np.where(self.ranks[k] == ranks, k, -1)


def build_volume_distribution(A: np.ndarray, n: int) -> VolumeDistribution:
    """Enumerate the n-subsets of A's rows once, in colex order."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    count = check_enumeration_cap(A.shape[0], n)
    indices = np.empty((count, n), dtype=np.intp)
    ranks = np.empty(count, dtype=np.int64)
    v_sq = np.empty(count)
    G = np.empty((count, n, n))
    kept = 0
    for rank, idx in enumerate(combinations_colex(A.shape[0], n)):
        geom = subset_geometry(make_row_subset(A, idx))
        if geom.v_sq > 0.0:
            indices[kept] = idx
            ranks[kept] = rank
            v_sq[kept] = geom.v_sq
            G[kept] = geom.G_n
            kept += 1
    for a in (indices, ranks, v_sq, G):  # trim in place, without a second copy
        a.resize((kept,) + a.shape[1:], refcheck=False)
    cumulative = np.cumsum(v_sq)
    return VolumeDistribution(
        matrix=A,
        n=n,
        indices=_frozen(indices),
        ranks=_frozen(ranks),
        v_sq=_frozen(v_sq),
        cumulative=_frozen(cumulative),
        G=_frozen(G),
        vol_n=float(cumulative[-1]) if cumulative.size else 0.0,
        v_sq_max=float(v_sq.max(initial=0.0)),
    )


def draw_volume_rows(dist: VolumeDistribution, rngs) -> np.ndarray:
    """One inverse-CDF draw per generator in the sequence rngs: table row k
    with probability v_sq[k] / vol_n, from one unit double of each stream.

    The table must be drawable (see VolumeDistribution.check_drawable).
    """
    targets = np.array([rng.random() for rng in rngs]) * dist.vol_n
    k = np.searchsorted(dist.cumulative, targets, side="right")
    return np.minimum(k, dist.cumulative.shape[0] - 1)


def draw_volume_row(dist: VolumeDistribution, rng: Xoshiro256StarStar) -> int:
    """A single draw_volume_rows draw."""
    return int(draw_volume_rows(dist, (rng,))[0])


def draw_volume(dist: VolumeDistribution, rng: Xoshiro256StarStar) -> RowSubset:
    """The subset of a draw_volume_row draw; raises on an undrawable table."""
    dist.check_drawable()
    return make_row_subset(dist.matrix, dist.indices[draw_volume_row(dist, rng)])


def draw_uniform(M: int, n: int, rng: Xoshiro256StarStar) -> tuple[int, ...]:
    """Uniformly random sorted n-subset of range(M) via partial Fisher-Yates."""
    if not 1 <= n <= M:
        raise ValueError(f"need 1 <= n <= M, got n={n}, M={M}")
    pool = list(range(M))
    for i in range(n):
        j = i + rng.below(M - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:n]))


def max_subset_volume(A: np.ndarray, n: int) -> float:
    """Exact v^2_max over all n-subsets (0 when rank < n), by enumeration."""
    return build_volume_distribution(A, n).v_sq_max


@dataclass
class RelaxationState:
    """Relaxation configuration plus the current v^2_max estimate.

    In running mode v_sq_max only ever grows, tracking the largest squared
    volume observed so far in a pursuit.
    """

    mode: str = "undershoot"
    v_sq_max_mode: str = "exact"
    v_sq_max: float = 0.0

    def __post_init__(self):
        if self.mode not in ("undershoot", "overshoot"):
            raise ValueError(f"unknown relaxation mode {self.mode!r}")
        if self.v_sq_max_mode not in ("exact", "running"):
            raise ValueError(f"unknown v_sq_max mode {self.v_sq_max_mode!r}")
        if self.v_sq_max < 0.0:
            raise ValueError("v_sq_max must be nonnegative")


def relaxation_factor(v_sq: float, state: RelaxationState) -> float:
    """Step scaling 1 -/+ sqrt(1 - v_sq / v_sq_max), always in [0, 2].

    Running mode first absorbs v_sq into the maximum estimate. A zero
    maximum yields 0 (nothing is known yet, so the step is a no-op).
    """
    if v_sq < 0.0:
        raise ValueError("v_sq must be nonnegative")
    if state.v_sq_max_mode == "running" and v_sq > state.v_sq_max:
        state.v_sq_max = v_sq
    if state.v_sq_max == 0.0:
        return 0.0
    ratio = min(v_sq / state.v_sq_max, 1.0)
    root = math.sqrt(max(1.0 - ratio, 0.0))
    return 1.0 - root if state.mode == "undershoot" else 1.0 + root


def relaxation_factors(v_sq: np.ndarray, v_sq_max: np.ndarray, mode: str) -> np.ndarray:
    """relaxation_factor over arrays of squared volumes and maxima (the
    caller updates running maxima first); a zero maximum yields 0."""
    known = v_sq_max > 0.0
    ratio = np.divide(v_sq, v_sq_max, out=np.ones_like(v_sq), where=known)
    root = np.sqrt(np.maximum(1.0 - np.minimum(ratio, 1.0), 0.0))
    mu = 1.0 - root if mode == "undershoot" else 1.0 + root
    mu[~known] = 0.0
    return mu
