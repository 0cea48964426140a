"""Pursuit engine: single- and multi-row projection steps, relaxed uniform
steps, full pursuits with error tracking, and seed-split ensembles.

Every step goes through one kernel. Volume steps take the subset's Gram
matrix from the subset table of (A, n); uniform steps compute the geometry
of their draw once and pass it on.

A pursuit is sequential by definition; ensemble members are independent
(per-member generators derived from the master seed) and reduced in
member-index order, so results do not depend on execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import DependentSubsetError
from .linsys import LinearSystem, singular_spectrum
from .projectors import RowSubset, make_row_subset, subset_geometry
from .rng import Xoshiro256StarStar, mix_seed
from .sampling import (
    RelaxationState,
    VolumeDistribution,
    build_volume_distribution,
    draw_uniform,
    draw_volume_row,
    relaxation_factor,
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
    """Per-iteration record of one pursuit; iterates is (iters_run + 1) x N."""

    errors_sq: np.ndarray
    gain_ratios: np.ndarray
    draws: list[tuple[int, ...]]
    mus: np.ndarray | None
    iters_run: int
    converged: bool
    iterates: np.ndarray


def kaczmarz_step(x: np.ndarray, a: np.ndarray, b_a: float) -> np.ndarray:
    """Project x onto the hyperplane <a, x> = b_a."""
    a = np.asarray(a, dtype=np.float64)
    norm_sq = float(a @ a)
    if norm_sq == 0.0:
        raise ValueError("cannot project onto a zero row")
    x = np.asarray(x, dtype=np.float64)
    return x + ((b_a - float(a @ x)) / norm_sq) * a


def _step(x: np.ndarray, A_S: np.ndarray, G_S: np.ndarray, b_S: np.ndarray,
          mu: float) -> np.ndarray:
    """x + mu * A_S^T G_S^{-1} (b_S - A_S x) for an independent subset."""
    cho = scipy.linalg.cho_factor(G_S, lower=True)
    return x + mu * (A_S.T @ scipy.linalg.cho_solve(cho, b_S - A_S @ x))


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
    return _step(x, S.A_n, geom.G_n, np.asarray(b_S, dtype=np.float64), mu)


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
    """Squared error of an iterate, in the row space when A is deficient."""

    def __init__(self, system: LinearSystem, track: str):
        self.track = track
        self.system = system
        self.row_proj = _row_space_projector(system.A) if track == "error_to_solution" else None

    def __call__(self, x: np.ndarray) -> float:
        if self.track == "residual":
            r = self.system.A @ x - self.system.b
            return float(r @ r)
        e = x - self.system.x_star
        if self.row_proj is not None:
            e = self.row_proj @ e
        return float(e @ e)


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


def run_pursuit(system: LinearSystem, config: PursuitConfig, member_index: int = 0,
                table: VolumeDistribution | None = None) -> PursuitTrace:
    """Iterate until the tracked error falls below stop_tol^2 or max_iters.

    member_index selects the draw stream, so an ensemble member's trace is
    reproducible in isolation. table is the subset table of (A, n), built
    here when the sampler needs it and not given; an ensemble passes one to
    share the enumeration across members. It never changes the result.
    """
    _validate_run(system, config)
    A, b = system.A, system.b
    n = config.n
    x = _draw_x0(system, config)
    rng = Xoshiro256StarStar(mix_seed(config.master_seed, _MEMBER_STREAM_BASE + member_index))

    uniform = config.sampler == "uniform"
    exact_max = config.v_sq_max_mode == "exact"
    if table is None and (exact_max or not uniform):
        table = build_volume_distribution(A, n)
    if uniform:
        relax = RelaxationState(
            mode=config.relax_mode, v_sq_max_mode=config.v_sq_max_mode,
            v_sq_max=table.v_sq_max if exact_max else 0.0,
        )
    else:
        table.check_drawable()

    track_error = _ErrorTracker(system, config.track)
    tol_sq = config.stop_tol**2
    errors = [track_error(x)]
    draws: list[tuple[int, ...]] = []
    mus: list[float] = []
    iterates = [x]  # steps never write into x, so the list keeps each iterate

    converged = errors[0] <= tol_sq
    iters_run = 0
    while not converged and iters_run < config.max_iters:
        if uniform:
            idx = draw_uniform(system.M, n, rng)
            S = make_row_subset(A, idx)
            geom = subset_geometry(S)
            mu = relaxation_factor(geom.v_sq, relax)
            if geom.rank < n:
                mu = 0.0  # dependent draw: counted, but the iterate stays put
            if mu != 0.0:
                x = _step(x, S.A_n, geom.G_n, b[list(idx)], mu)
            mus.append(mu)
        else:
            k = draw_volume_row(table, rng)
            rows = table.indices[k]
            x = _step(x, A[rows], table.G[k], b[rows], 1.0)
            idx = tuple(rows.tolist())
        draws.append(idx)
        errors.append(track_error(x))
        iterates.append(x)
        iters_run += 1
        converged = errors[-1] <= tol_sq

    errors_sq = np.array(errors)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain_ratios = errors_sq[1:] / errors_sq[:-1]
    return PursuitTrace(
        errors_sq=errors_sq,
        gain_ratios=gain_ratios,
        draws=draws,
        mus=np.array(mus) if uniform else None,
        iters_run=iters_run,
        converged=bool(converged),
        iterates=np.array(iterates),
    )


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

    member_config = replace(config, x0=_draw_x0(system, config))
    cutoff = PRECISION_CUTOFF * (1.0 + float(system.x_star @ system.x_star))
    iters = config.max_iters

    gain_sum = np.zeros(iters)
    gain_sq_sum = np.zeros(iters)
    alive = np.zeros(iters, dtype=np.int64)
    log_err_sum = np.zeros(iters + 1)
    error_vectors = np.empty((members, iters + 1, system.N)) if collect_error_vectors else None
    traces: list[PursuitTrace] | None = [] if keep_traces else None

    for m in range(members):
        trace = run_pursuit(system, member_config, member_index=m, table=table)
        e = trace.errors_sq
        k_run = trace.iters_run
        # Everyone runs the same horizon when stop_tol is tiny; a member
        # that stops early simply contributes fewer samples.
        for k in range(k_run):
            if e[k] >= cutoff and e[k] > 0.0:
                g = e[k + 1] / e[k]
                gain_sum[k] += g
                gain_sq_sum[k] += g * g
                alive[k] += 1
        padded = np.concatenate([e, np.full(iters + 1 - e.shape[0], e[-1])])
        log_err_sum += np.log10(np.maximum(padded, 1e-300))
        if error_vectors is not None:
            it = trace.iterates
            full = np.concatenate([it, np.repeat(it[-1][None, :], iters + 1 - it.shape[0], axis=0)])
            error_vectors[m] = full - system.x_star
        if traces is not None:
            traces.append(trace)

    with np.errstate(divide="ignore", invalid="ignore"):
        mean_gain = gain_sum / alive
        var = np.maximum(gain_sq_sum / alive - mean_gain**2, 0.0)
        denom = np.maximum(alive - 1, 1)
        gain_se = np.sqrt(var * alive / denom) / np.sqrt(np.maximum(alive, 1))
    gain_se[alive < 2] = np.nan

    mean_error_sq_norm = None
    mean_error_se_rel = None
    if error_vectors is not None:
        mean_vec = error_vectors.mean(axis=0)
        mean_error_sq_norm = np.einsum("kj,kj->k", mean_vec, mean_vec)
        # Delta method: the dominant fluctuation of ||mean||^2 is along the
        # mean direction, 2 * std(<e_m, mean>) / sqrt(R).
        proj = np.einsum("mkj,kj->mk", error_vectors, mean_vec)
        se = 2.0 * proj.std(axis=0, ddof=1) / math.sqrt(members) if members > 1 else np.zeros(iters + 1)
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
        traces=traces,
    )
