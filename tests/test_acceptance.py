"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Statistical criteria run on pinned seeds, so every run is deterministic.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The Gaussian 15x10 instance (seed 123) has grade condition numbers
153.0 / 63.3 / 34.5 for 1..3 rows, the same regime as the experiment the
suite mirrors.
"""

import math
import time

import numpy as np
import pytest

from kacz.cli import main
from kacz.linsys import (
    gram,
    make_linear_system,
    save_matrix,
    save_vector,
    synth_system,
)
from kacz.projectors import (
    make_row_subset,
    orthogonal_projector,
    quasi_projector,
    recursive_projector,
    subset_geometry,
)
from kacz.rng import Xoshiro256StarStar
from kacz.sampling import (
    RelaxationState,
    build_volume_distribution,
    draw_uniform,
    draw_volume,
    max_subset_volume,
    relaxation_factor,
)
from kacz.solver import PursuitConfig, multirow_step, relaxed_step, run_ensemble, run_pursuit
from kacz.spectral import (
    brute_force_phi,
    brute_force_vol,
    build_spectral_profile,
    gram_inverse_via_phi,
    total_quasi_projector,
    vol_sequence,
)
from kacz.tolerances import BURN_IN, PRECISION_CUTOFF

from conftest import REFERENCE_A, REFERENCE_X_STAR

GAUSS_15x10_SEED = 123  # kappa_sq = (152.95, 63.26, 34.45)
ENSEMBLE_SEED = 2025
UNIFORM_10x6_SEED = 31


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion:2d} PASS: {text}")


@pytest.fixture(scope="module")
def gauss_system():
    return synth_system(15, 10, seed=GAUSS_15x10_SEED, decay="gaussian")


@pytest.fixture(scope="module")
def gauss_profile(gauss_system):
    return build_spectral_profile(gauss_system.A, 3)


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    for i in range(20):
        A = np.random.default_rng(9000 + i).standard_normal((8, 5))
        G = gram(A)
        vols = vol_sequence(G, 5)
        for n in range(1, 6):
            enum_vol = brute_force_vol(A, n)
            assert abs(vols[n] - enum_vol) <= 1e-9 * vols[n]
            diff = total_quasi_projector(G, n) - brute_force_phi(A, n)
            assert np.max(np.abs(diff)) <= 1e-9 * vols[n]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, f"trace-formula volumes and recursion totals match enumeration "
              f"on 20 random 8x5 matrices, all n in 1..5 ({elapsed:.1f}s)")


def test_criterion_02_reference_closed_forms():
    start = time.perf_counter()
    system = make_linear_system(REFERENCE_A, x_star=REFERENCE_X_STAR)
    G = gram(REFERENCE_A)
    assert np.max(np.abs(vol_sequence(G, 2) - [1.0, 4.0, 3.0])) <= 1e-10
    assert np.max(np.abs(total_quasi_projector(G, 2) - 3 * np.eye(2))) <= 1e-10
    profile = build_spectral_profile(REFERENCE_A, 2)
    assert abs(profile.kappa_sq_at(1) - 4.0) <= 1e-10
    assert abs(profile.kappa_sq_at(2) - 1.0) <= 1e-10
    for seed in range(100):
        config = PursuitConfig(n=2, sampler="volume", master_seed=seed,
                               max_iters=10, stop_tol=1e-10)
        trace = run_pursuit(system, config)
        assert trace.converged and trace.iters_run == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"reference 3x2 matrix: vol=(1,4,3), grade-2 total = 3I, "
              f"kappa=(4,1), 100/100 one-iteration pursuits ({elapsed:.2f}s)")


def test_criterion_03_identity_closed_forms():
    for N in range(2, 9):
        G = np.eye(N)
        vols = vol_sequence(G, N)
        profile = build_spectral_profile(np.eye(N), N)
        for n in range(1, N + 1):
            assert abs(vols[n] - math.comb(N, n)) <= 1e-12 * math.comb(N, n)
            phi = total_quasi_projector(G, n)
            expected = math.comb(N - 1, n - 1)
            assert np.max(np.abs(phi - expected * np.eye(N))) <= 1e-12 * expected
            assert abs(profile.kappa_sq_at(n) - N / n) <= 1e-12 * (N / n)
    report(3, "identity matrices N=2..8: binomial volumes, scaled-identity "
              "totals, kappa = N/n, all to 1e-12 relative")


def test_criterion_04_recursive_expansion():
    start = time.perf_counter()
    rng = np.random.default_rng(4040)
    checked = 0
    while checked < 200:
        A = rng.standard_normal((8, 6))
        n = int(rng.integers(2, 5))
        idx = np.sort(rng.choice(8, size=n, replace=False))
        S = make_row_subset(A, idx)
        diff = recursive_projector(S) - orthogonal_projector(S)
        assert np.max(np.abs(diff)) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"recursive expansion equals the direct projector on 200 random "
              f"independent subsets, n in 2..4 ({elapsed:.1f}s)")


def test_criterion_05_dependent_subsets_vanish():
    rng = np.random.default_rng(5050)
    for i in range(50):
        n = 2 + i % 4
        base = rng.standard_normal((n - 1, 6))
        coeffs = rng.standard_normal(n - 1)
        A = np.vstack([base, coeffs @ base])
        S = make_row_subset(A, range(n))
        assert subset_geometry(S).rank < n
        hadamard = float(np.prod(np.sum(A * A, axis=1)))
        assert np.max(np.abs(quasi_projector(S))) <= 1e-9 * hadamard
    report(5, "quasi projectors of 50 constructed dependent subsets vanish "
              "below 1e-9 of the Hadamard bound")


def test_criterion_06_one_step_expected_gain(gauss_system, gauss_profile):
    start = time.perf_counter()
    gen = Xoshiro256StarStar(777)
    x_k = gauss_system.x_star + np.array(gen.normals(10))
    err_k = float((x_k - gauss_system.x_star) @ (x_k - gauss_system.x_star))
    summary = []
    for n in (1, 2, 3):
        dist = build_volume_distribution(gauss_system.A, n)
        rng = Xoshiro256StarStar(888 + n)
        gains = np.empty(5000)
        for r in range(5000):
            S = draw_volume(dist, rng)
            x_next = multirow_step(x_k, S, gauss_system.b[list(S.indices)])
            e = x_next - gauss_system.x_star
            gains[r] = float(e @ e) / err_k
        bound = 1.0 - gauss_profile.sigma_hat_sq_min_at(n) / gauss_profile.vols[n]
        se = gains.std(ddof=1) / math.sqrt(gains.size)
        assert gains.mean() <= bound + 3 * se
        summary.append(f"n={n}: {gains.mean():.4f} <= {bound:.4f}+3SE")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"5000-step volume-sampled mean gains under the expected bound "
              f"({'; '.join(summary)}; {elapsed:.1f}s)")


def test_criterion_07_convergence_bracket(gauss_system):
    start = time.perf_counter()
    cutoff = PRECISION_CUTOFF * (1.0 + float(gauss_system.x_star @ gauss_system.x_star))
    summary = []
    for n in (1, 2, 3):
        config = PursuitConfig(n=n, sampler="volume", master_seed=ENSEMBLE_SEED,
                               max_iters=2000, stop_tol=1e-300)
        report_n = run_ensemble(gauss_system, config, members=15, keep_traces=(n == 3))
        lower, upper = report_n.lower_factor, report_n.upper_factor
        window = [k for k in range(BURN_IN, 2000) if report_n.alive[k] >= 2]
        assert len(window) > 500
        inside = 0
        for k in window:
            g, se = report_n.mean_gain_ratio[k], report_n.gain_se[k]
            if upper - 3 * se <= g <= lower + 3 * se:
                inside += 1
        coverage = inside / len(window)
        # 3-SE coverage: a handful of excursions among ~1900 iterations is
        # what +-3 standard errors means, not zero
        assert coverage >= 0.99
        avg_gain = float(np.mean(report_n.mean_gain_ratio[window]))
        avg_se = float(np.mean(report_n.gain_se[window]))
        assert upper - 3 * avg_se <= avg_gain <= lower + 3 * avg_se
        summary.append(f"n={n}: avg {avg_gain:.4f} in [{upper:.4f},{lower:.4f}], "
                       f"coverage {coverage:.1%}")
        if n == 3:
            crossings = []
            for trace in report_n.traces:
                hits = np.nonzero(trace.errors_sq < cutoff)[0]
                assert hits.size, "an n=3 member never reached machine precision"
                crossings.append(int(hits[0]))
            assert all(100 < c <= 2000 for c in crossings)
            summary.append(f"n=3 precision crossings {min(crossings)}..{max(crossings)}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(7, f"15-member/2000-iteration gain brackets hold ({'; '.join(summary)}; "
              f"{elapsed:.0f}s)")


def test_criterion_08_alignment_lower_bound(gauss_system):
    summary = []
    for n in (1, 2, 3):
        profile = build_spectral_profile(gauss_system.A, n)
        x0 = gauss_system.x_star + profile.v_min_at(n)
        config = PursuitConfig(n=n, sampler="volume", master_seed=ENSEMBLE_SEED,
                               max_iters=20, stop_tol=1e-300, x0=x0)
        rep = run_ensemble(gauss_system, config, members=2000, collect_error_vectors=True)
        base = 1.0 - 1.0 / profile.kappa_sq_at(n)
        start_sq = rep.mean_error_sq_norm[0]
        for k in range(21):
            bound = base ** (2 * k) * start_sq * (1.0 - 3.0 * rep.mean_error_se_rel[k])
            assert rep.mean_error_sq_norm[k] >= bound
        summary.append(f"n={n}: ||mean error||^2 at k=20 is "
                       f"{rep.mean_error_sq_norm[20] / start_sq:.4f} >= {base ** 40:.4f}(1-3SE)")
    report(8, f"aligned-start mean error vectors respect the squared-rate lower "
              f"bound for k<=20 with 2000 members ({'; '.join(summary)})")


def test_criterion_09_uniform_scheme():
    system = synth_system(10, 6, seed=UNIFORM_10x6_SEED, decay="gaussian")
    profile = build_spectral_profile(system.A, 3)
    x_star = system.x_star

    # per-step transfer identity, both relaxation branches, exact v^2 max
    gen = np.random.default_rng(909)
    for n in (1, 2, 3):
        v_max = max_subset_volume(system.A, n)
        rng = Xoshiro256StarStar(140 + n)
        for mode in ("undershoot", "overshoot"):
            for _ in range(100):
                x = x_star + gen.standard_normal(6)
                idx = draw_uniform(10, n, rng)
                S = make_row_subset(system.A, idx)
                state = RelaxationState(mode=mode, v_sq_max_mode="exact", v_sq_max=v_max)
                mu = relaxation_factor(subset_geometry(S).v_sq, state)
                x_next = relaxed_step(x, S, system.b[list(idx)], mu)
                e, e_next = x - x_star, x_next - x_star
                predicted = float(e @ e) - float(e @ quasi_projector(S) @ e) / v_max
                assert float(e_next @ e_next) == pytest.approx(predicted, rel=1e-10)

    # undershoot one-step mean gain against the vol_max bound
    gen2 = Xoshiro256StarStar(555)
    x_k = x_star + np.array(gen2.normals(6))
    err_k = float((x_k - x_star) @ (x_k - x_star))
    margins = []
    for n in (1, 2, 3):
        v_max = max_subset_volume(system.A, n)
        rng = Xoshiro256StarStar(600 + n)
        gains = np.empty(5000)
        for r in range(5000):
            idx = draw_uniform(10, n, rng)
            S = make_row_subset(system.A, idx)
            state = RelaxationState(mode="undershoot", v_sq_max_mode="exact", v_sq_max=v_max)
            mu = relaxation_factor(subset_geometry(S).v_sq, state)
            x_next = relaxed_step(x_k, S, system.b[list(idx)], mu)
            e = x_next - x_star
            gains[r] = float(e @ e) / err_k
        bound = 1.0 - profile.sigma_hat_sq_min_at(n) / (math.comb(10, n) * v_max)
        se = gains.std(ddof=1) / math.sqrt(gains.size)
        assert gains.mean() <= bound + 3 * se
        margins.append(f"n={n}: {gains.mean():.4f} <= {bound:.4f}+3SE")

    # running-max estimate reaches the exact maximum
    for n in (2, 3):
        exact = max_subset_volume(system.A, n)
        state = RelaxationState(mode="undershoot", v_sq_max_mode="running", v_sq_max=0.0)
        rng = Xoshiro256StarStar(71)
        for _ in range(50 * math.comb(10, n)):
            idx = draw_uniform(10, n, rng)
            relaxation_factor(subset_geometry(make_row_subset(system.A, idx)).v_sq, state)
        assert state.v_sq_max == exact
    report(9, f"uniform draws: per-step transfer identity at 1e-10 for both "
              f"branches, undershoot means under the vol-max bound "
              f"({'; '.join(margins)}), running max exact after 50*C(10,n) draws")


def test_criterion_10_transform_curves(tmp_path):
    minima = {}
    for decay in ("linear_sv", "exponential_sv"):
        out = tmp_path / f"{decay}.csv"
        code = main(["transform", "--synthetic", "8", "--decay", decay,
                     "-o", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        by_n = {}
        for r in rows:
            by_n.setdefault(int(r[0]), []).append(float(r[4]))
        for n, normalized in by_n.items():
            arr = np.array(normalized)
            assert arr.min() >= 0.0
            assert arr.max() <= 1.0 + 1e-10
            assert abs(arr.sum() - n) <= 1e-10
        minima[decay] = {n: min(v) for n, v in by_n.items()}
    lin, exp = minima["linear_sv"], minima["exponential_sv"]
    # the exponential spectrum stays far harder at every grade...
    assert exp[1] < lin[1] and exp[2] < lin[2]
    # ...and its per-step convergence factor improves by a smaller factor
    # when moving from one row to two
    exp_improvement = (1.0 - exp[1]) / (1.0 - exp[2])
    lin_improvement = (1.0 - lin[1]) / (1.0 - lin[2])
    assert exp_improvement < lin_improvement
    report(10, f"pinned N=8 curves: normalized columns in [0,1] summing to n; "
               f"exponential rate factor improves {exp_improvement:.6f}x vs "
               f"linear {lin_improvement:.6f}x moving n=1 to n=2")


def test_criterion_11_cayley_hamilton_inverse():
    worst = 0.0
    for i in range(20):
        B = np.random.default_rng(11000 + i).standard_normal((12, 6))
        G = gram(B)
        eigs = np.linalg.eigvalsh(G)
        cond = eigs[-1] / eigs[0]
        residual = np.max(np.abs(G @ gram_inverse_via_phi(G) - np.eye(6)))
        assert residual <= 1e-8 * cond
        worst = max(worst, residual / cond)
    report(11, f"recursion-based inverses of 20 random 6x6 Gram matrices hit "
               f"identity (worst residual/cond = {worst:.2e} <= 1e-8)")


def test_criterion_12_cli_determinism(tmp_path):
    mpath = tmp_path / "A.csv"
    spath = tmp_path / "x.txt"
    save_matrix(str(mpath), REFERENCE_A)
    save_vector(str(spath), REFERENCE_X_STAR)
    commands = [
        ["spectrum", str(mpath), "--n-max", "2"],
        ["transform", str(mpath), "--n-list", "1,2"],
        ["transform", "--synthetic", "8", "--decay", "exponential_sv"],
        ["volumes", str(mpath), "--n", "2", "--brute-force"],
        ["solve", str(mpath), "--solution", str(spath), "--n", "1",
         "--seed", "9", "--max-iters", "80"],
        ["solve", str(mpath), "--solution", str(spath), "--n", "1",
         "--sampler", "uniform", "--vmax-mode", "running", "--seed", "9",
         "--max-iters", "80"],
        ["ensemble", "--synthetic", "8", "5", "--n-list", "1,2", "--members", "3",
         "--iters", "25", "--seed", "4"],
        ["ensemble", "--synthetic", "8", "5", "--n-list", "2", "--members", "3",
         "--iters", "25", "--sampler", "uniform", "--mode", "overshoot",
         "--seed", "4", "--align-vmin"],
    ]
    for i, cmd in enumerate(commands):
        out1 = tmp_path / f"run{i}_a.csv"
        out2 = tmp_path / f"run{i}_b.csv"
        assert main(cmd + ["-o", str(out1)]) == 0
        assert main(cmd + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), f"command {cmd} not deterministic"
    report(12, f"{len(commands)} CLI invocations replayed byte-identically "
               f"across every subcommand")
