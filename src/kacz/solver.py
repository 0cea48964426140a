"""Pursuit engine: single- and multi-row projection steps, relaxed uniform
steps, and one batched pursuit loop behind both single pursuits and
seed-split ensembles.

The loop holds the iterates of R pursuits as one (R, N) array. Each
iteration, every live member draws one subset from its own stream; draws
never depend on the iterate, so every stream is consumed exactly as a lone
pursuit would consume it. Volume draws and exact-mode uniform draws read
their Gram matrices (and, for uniform draws, squared volumes) from the
subset table of (A, n); running-mode uniform draws compute their geometry.
One kernel, subset_steps, moves all stepping members with one stacked
solve. A single pursuit is the R = 1 case with its own stream index, so
ensemble member m and run_pursuit(..., member_index=m) agree. Ensemble
statistics are reduced over the member axis after the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DependentSubsetError
from .linsys import LinearSystem, singular_spectrum
from .projectors import RowSubset, subset_geometry
from .rng import Xoshiro256StarStar, mix_seed
from .sampling import (
    VolumeDistribution,
    build_volume_distribution,
    draw_uniform,
    draw_volume_rows,
    relaxation_factors,
)
from .spectral import SpectralProfile, build_spectral_profile, rate_bounds
from .tolerances import PRECISION_CUTOFF, psd_clamp_tol

SAMPLERS = ("volume", "uniform")
TRACK_MODES = ("error_to_solution", "residual")

# Stream indices under the master seed: 0 draws x0, member m draws from 1+m.
_X0_STREAM = 0
_MEMBER_STREAM_BASE = 1


@dataclass(frozen=True)
class PursuitConfig:
    """Everything a pursuit needs besides the system itself."""

    n: int
    sampler: str = "volume"
    relax_mode: str = "undershoot"
    v_sq_max_mode: str = "exact"
    master_seed: int = 0
    max_iters: int = 1000
    stop_tol: float = 1e-12
    track: str = "error_to_solution"
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}")
        if self.track not in TRACK_MODES:
            raise ValueError(f"track must be one of {TRACK_MODES}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")


@dataclass
class PursuitTrace:
    """Per-iteration record of one pursuit."""

    errors_sq: np.ndarray
    gain_ratios: np.ndarray
    draws: list[tuple[int, ...]]
    mus: np.ndarray | None
    iters_run: int
    converged: bool


def kaczmarz_step(x: np.ndarray, a: np.ndarray, b_a: float) -> np.ndarray:
    """Project x onto the hyperplane <a, x> = b_a."""
    a = np.asarray(a, dtype=np.float64)
    norm_sq = float(a @ a)
    if norm_sq == 0.0:
        raise ValueError("cannot project onto a zero row")
    x = np.asarray(x, dtype=np.float64)
    return x + ((b_a - float(a @ x)) / norm_sq) * a


def subset_steps(X: np.ndarray, A_S: np.ndarray, G_S: np.ndarray, b_S: np.ndarray,
                 mu: np.ndarray) -> np.ndarray:
    """Row m is X[m] + mu[m] * A_S[m]^T G_S[m]^{-1} (b_S[m] - A_S[m] X[m]).

    Shapes: X (R, N), A_S (R, n, N), G_S (R, n, n), b_S (R, n), mu (R,).
    Every subset must be independent; one stacked solve serves all rows.
    """
    r = b_S - (A_S @ X[:, :, None])[:, :, 0]
    y = np.linalg.solve(G_S, r[:, :, None])
    return X + mu[:, None] * (A_S.transpose(0, 2, 1) @ y)[:, :, 0]


def multirow_step(x: np.ndarray, S: RowSubset, b_S: np.ndarray) -> np.ndarray:
    """Project x onto the intersection of the subset's hyperplanes."""
    return relaxed_step(x, S, b_S, 1.0)


def relaxed_step(x: np.ndarray, S: RowSubset, b_S: np.ndarray, mu: float) -> np.ndarray:
    """x + mu * A_n^T G_n^{-1} (b_S - A_n x); mu = 0 is a no-op.

    mu = 1 is the orthogonal projection, mu = 2 the reflection. Dependent
    subsets are only legal with mu = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 0.0 <= mu <= 2.0:
        raise ValueError(f"relaxation factor must be in [0, 2], got {mu}")
    if mu == 0.0:
        return x.copy()
    geom = subset_geometry(S)
    if geom.rank < S.n:
        raise DependentSubsetError(
            f"rows {S.indices} are numerically dependent; only mu = 0 is defined"
        )
    b_S = np.asarray(b_S, dtype=np.float64)
    return subset_steps(x[None], S.A_n[None], geom.G_n[None], b_S[None], np.array([mu]))[0]


def _row_space_projector(A: np.ndarray) -> np.ndarray | None:
    """Projector onto the row space, or None when A has full column rank."""
    decomp = singular_spectrum(A)
    tol = psd_clamp_tol(A.shape[1], float(decomp.sigma_sq[0]))
    rank = int(np.count_nonzero(decomp.sigma_sq > tol))
    if rank == A.shape[1]:
        return None
    Vr = decomp.V[:, :rank]
    return Vr @ Vr.T


class _ErrorTracker:
    """Squared error of each row of X, in the row space when A is deficient."""

    def __init__(self, system: LinearSystem, track: str):
        self.track = track
        self.system = system
        self.row_proj = _row_space_projector(system.A) if track == "error_to_solution" else None

    def __call__(self, X: np.ndarray) -> np.ndarray:
        if self.track == "residual":
            D = X @ self.system.A.T - self.system.b
        else:
            D = X - self.system.x_star
            if self.row_proj is not None:
                D = D @ self.row_proj.T
        return np.einsum("ij,ij->i", D, D)


def _draw_x0(system: LinearSystem, config: PursuitConfig) -> np.ndarray:
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=np.float64).reshape(-1)
        if x0.shape[0] != system.N:
            raise ValueError(f"x0 length {x0.shape[0]} != N={system.N}")
        return x0.copy()
    rng = Xoshiro256StarStar(mix_seed(config.master_seed, _X0_STREAM))
    return np.array(rng.normals(system.N), dtype=np.float64)


def _validate_run(system: LinearSystem, config: PursuitConfig) -> None:
    if config.n > system.N:
        raise ValueError(f"n={config.n} exceeds N={system.N}")
    if config.track == "error_to_solution" and system.x_star is None:
        raise ValueError("error_to_solution tracking needs a known solution")


def _grown(a: np.ndarray | None, rows: int) -> np.ndarray | None:
    """a with its leading axis extended to rows; the new rows are unset."""
    if a is None:
        return None
    out = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
    out[: a.shape[0]] = a
    return out


def _held(a: np.ndarray, rows: int) -> np.ndarray:
    """a with its leading axis extended to rows by repeating its last row."""
    return np.concatenate([a, np.repeat(a[-1:], rows - a.shape[0], axis=0)])


@dataclass
class _Pursuits:
    """What the loop leaves of R pursuits. errors_sq[k, m] is member m's
    squared error after k steps, for k up to the longest run, held at its
    last value once the member stops; error_vectors likewise. draws, mus
    and error_vectors are kept only on request."""

    errors_sq: np.ndarray
    iters_run: np.ndarray
    tol_sq: float
    draws: np.ndarray | None
    mus: np.ndarray | None
    error_vectors: np.ndarray | None

    def trace(self, m: int) -> PursuitTrace:
        k = int(self.iters_run[m])
        e = self.errors_sq[: k + 1, m].copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            gain_ratios = e[1:] / e[:-1]
        return PursuitTrace(
            errors_sq=e,
            gain_ratios=gain_ratios,
            draws=[tuple(d) for d in self.draws[:k, m].tolist()],
            mus=None if self.mus is None else self.mus[:k, m].copy(),
            iters_run=k,
            converged=bool(e[-1] <= self.tol_sq),
        )


def _pursue(system: LinearSystem, config: PursuitConfig, x0: np.ndarray, streams,
            table: VolumeDistribution | None, record: bool = False,
            collect_error_vectors: bool = False) -> _Pursuits:
    """Run one pursuit per member stream index, all from x0, until each
    member's tracked error falls to stop_tol^2 or max_iters steps are done.

    table is the subset table of (A, n); running-mode uniform pursuits need
    none. A member that stops draws nothing more.
    """
    A, b = system.A, system.b
    n, iters = config.n, config.max_iters
    rngs = [Xoshiro256StarStar(mix_seed(config.master_seed, _MEMBER_STREAM_BASE + m))
            for m in streams]
    R = len(rngs)
    uniform = config.sampler == "uniform"
    from_table = not uniform or config.v_sq_max_mode == "exact"
    if uniform:
        v_sq_max = np.full(R, table.v_sq_max if from_table else 0.0)
    else:
        table.check_drawable()

    track_error = _ErrorTracker(system, config.track)
    X = np.tile(x0, (R, 1))
    # Buffers grow with the steps taken: a large max_iters with an early
    # stop costs no memory.
    cap = min(iters, 1024)
    errors = np.empty((cap + 1, R))
    errors[0] = track_error(X)
    draws = np.empty((cap, R, n), dtype=np.intp) if record else None
    mus = np.empty((cap, R)) if record and uniform else None
    vectors = np.empty((cap + 1, R, system.N)) if collect_error_vectors else None
    if vectors is not None:
        vectors[0] = X - system.x_star
    tol_sq = config.stop_tol**2
    iters_run = np.zeros(R, dtype=np.int64)
    live = np.flatnonzero(errors[0] > tol_sq)
    members = [rngs[m] for m in live]
    t = 0
    while live.size and t < iters:
        if t == cap:
            cap = min(2 * cap, iters)
            errors, vectors = _grown(errors, cap + 1), _grown(vectors, cap + 1)
            draws, mus = _grown(draws, cap), _grown(mus, cap)
        # Index R-arrays by a slice while every member lives: views, no copies.
        lanes = slice(None) if live.size == R else live
        if uniform:
            subsets = [draw_uniform(system.M, n, rng) for rng in members]
            idx = np.array(subsets, dtype=np.intp).reshape(-1, n)
            if from_table:
                rows = table.rows_of(subsets)
                independent = rows >= 0
                v_sq = np.zeros(live.size)
                v_sq[independent] = table.v_sq[rows[independent]]
            else:
                # draw_uniform's subsets are sorted and in range: no re-validation
                geoms = [subset_geometry(RowSubset(s, A_s)) for s, A_s in zip(subsets, A[idx])]
                independent = np.array([g.rank == n for g in geoms])
                v_sq = np.array([g.v_sq for g in geoms])
                v_sq_max[lanes] = np.maximum(v_sq_max[lanes], v_sq)
            mu = relaxation_factors(v_sq, v_sq_max[lanes], config.relax_mode)
            mu[~independent] = 0.0  # dependent draw: counted, but the iterate stays put
        else:
            rows = draw_volume_rows(table, members)
            idx = table.indices[rows]
            mu = np.ones(live.size)

        stepping = mu != 0.0
        if stepping.all():
            moving, idx_moving, mu_moving = lanes, idx, mu
        else:
            moving, idx_moving, mu_moving = live[stepping], idx[stepping], mu[stepping]
        if from_table:
            G = table.G[rows[stepping]]
        else:
            G = np.array([g.G_n for g, s in zip(geoms, stepping) if s]).reshape(-1, n, n)
        errors[t + 1] = errors[t]
        if mu_moving.size:
            X[moving] = subset_steps(X[moving], A[idx_moving], G, b[idx_moving], mu_moving)
            errors[t + 1, moving] = track_error(X[moving])
        if vectors is not None:
            vectors[t + 1] = X - system.x_star
        if record:
            draws[t, lanes] = idx
            if mus is not None:
                mus[t, lanes] = mu
        t += 1
        stopped = errors[t, lanes] <= tol_sq
        if stopped.any():
            iters_run[live[stopped]] = t
            live = live[~stopped]
            members = [rngs[m] for m in live]

    iters_run[live] = t
    if vectors is not None:
        vectors = vectors[: t + 1]
    return _Pursuits(errors[: t + 1], iters_run, tol_sq, draws, mus, vectors)


def run_pursuit(system: LinearSystem, config: PursuitConfig,
                member_index: int = 0) -> PursuitTrace:
    """Iterate until the tracked error falls below stop_tol^2 or max_iters.

    member_index selects the draw stream, so the trace equals that ensemble
    member's. Running-mode uniform pursuits enumerate no subset table.
    """
    _validate_run(system, config)
    table = None
    if config.sampler == "volume" or config.v_sq_max_mode == "exact":
        table = build_volume_distribution(system.A, config.n)
    run = _pursue(system, config, _draw_x0(system, config), [member_index], table, record=True)
    return run.trace(0)


@dataclass
class EnsembleReport:
    """Member-index-ordered reduction of independent pursuits.

    Gain statistics at iteration k average the members still above the
    machine-precision cutoff; mean_log10_error always averages everyone
    (floored at 1e-300). kappa_sq is the effective grade condition number:
    vol_n / sigma_hat_min^2 for volume sampling, vol_max_n / sigma_hat_min^2
    for uniform draws.
    """

    members: int
    iters: int
    kappa_sq: float
    lower_factor: float
    upper_factor: float
    mean_gain_ratio: np.ndarray
    gain_se: np.ndarray
    alive: np.ndarray
    mean_log10_error: np.ndarray
    profile: SpectralProfile
    mean_error_sq_norm: np.ndarray | None = None
    mean_error_se_rel: np.ndarray | None = None
    traces: list[PursuitTrace] | None = None


def run_ensemble(
    system: LinearSystem,
    config: PursuitConfig,
    members: int,
    collect_error_vectors: bool = False,
    keep_traces: bool = False,
) -> EnsembleReport:
    """Run independent pursuits sharing x0, x_star and one subset table,
    seed-split per member."""
    if members < 1:
        raise ValueError("need at least one member")
    _validate_run(system, config)
    if system.x_star is None:
        raise ValueError("ensembles track error to a known solution")

    profile = build_spectral_profile(system.A, config.n)
    table = build_volume_distribution(system.A, config.n)
    if config.sampler == "uniform":
        # vol_n gives way to vol_n_max = C(M, n) * v_sq_max for uniform draws
        vol_max = math.comb(system.M, config.n) * table.v_sq_max
        kappa_sq = vol_max / profile.sigma_hat_sq_min_at(config.n)
    else:
        kappa_sq = profile.kappa_sq_at(config.n)
    lower_factor, upper_factor = rate_bounds(kappa_sq, 1)

    run = _pursue(system, config, _draw_x0(system, config), range(members), table,
                  record=keep_traces, collect_error_vectors=collect_error_vectors)
    iters = config.max_iters
    e = _held(run.errors_sq, iters + 1)
    cutoff = PRECISION_CUTOFF * (1.0 + float(system.x_star @ system.x_star))

    # Everyone runs the same horizon when stop_tol is tiny; a member that
    # stops early simply contributes fewer samples.
    counted = (np.arange(iters)[:, None] < run.iters_run) & (e[:-1] >= cutoff)
    gains = np.divide(e[1:], e[:-1], out=np.zeros((iters, members)), where=counted)
    gain_sum = gains.sum(axis=1)
    gain_sq_sum = (gains * gains).sum(axis=1)
    alive = counted.sum(axis=1)
    log_err_sum = np.log10(np.maximum(e, 1e-300)).sum(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        mean_gain = gain_sum / alive
        var = np.maximum(gain_sq_sum / alive - mean_gain**2, 0.0)
        denom = np.maximum(alive - 1, 1)
        gain_se = np.sqrt(var * alive / denom) / np.sqrt(np.maximum(alive, 1))
    gain_se[alive < 2] = np.nan

    mean_error_sq_norm = None
    mean_error_se_rel = None
    if run.error_vectors is not None:
        error_vectors = _held(run.error_vectors, iters + 1)
        mean_vec = error_vectors.mean(axis=1)
        mean_error_sq_norm = np.einsum("kj,kj->k", mean_vec, mean_vec)
        # Delta method: the dominant fluctuation of ||mean||^2 is along the
        # mean direction, 2 * std(<e_m, mean>) / sqrt(R).
        proj = np.einsum("kmj,kj->km", error_vectors, mean_vec)
        se = 2.0 * proj.std(axis=1, ddof=1) / math.sqrt(members) if members > 1 else np.zeros(iters + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_error_se_rel = np.where(mean_error_sq_norm > 0, se / mean_error_sq_norm, np.inf)

    return EnsembleReport(
        members=members,
        iters=iters,
        kappa_sq=kappa_sq,
        lower_factor=lower_factor,
        upper_factor=upper_factor,
        mean_gain_ratio=mean_gain,
        gain_se=gain_se,
        alive=alive,
        mean_log10_error=log_err_sum / members,
        profile=profile,
        mean_error_sq_norm=mean_error_sq_norm,
        mean_error_se_rel=mean_error_se_rel,
        traces=[run.trace(m) for m in range(members)] if keep_traces else None,
    )
