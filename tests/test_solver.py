import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kacz.projectors
import kacz.sampling
import kacz.solver
from kacz.errors import DependentSubsetError, RankDeficiencyError
from kacz.linsys import make_linear_system, synth_system
from kacz.projectors import make_row_subset, quasi_projector, subset_geometry
from kacz.rng import Xoshiro256StarStar, mix_seed
from kacz.sampling import (
    RelaxationState,
    build_volume_distribution,
    draw_uniform,
    draw_volume,
    max_subset_volume,
    relaxation_factor,
)
from kacz.tolerances import ENUMERATION_CAP
from kacz.solver import (
    PursuitConfig,
    kaczmarz_step,
    multirow_step,
    relaxed_step,
    run_ensemble,
    run_pursuit,
)

ATOL = 1e-10


class TestKaczmarzStep:
    def test_coordinate_projection(self):
        got = kaczmarz_step(np.zeros(2), np.array([1.0, 0.0]), 1.0)
        assert np.array_equal(got, [1.0, 0.0])

    def test_fixed_point(self):
        x = np.array([0.5, 1.5])
        a = np.array([1.0, 1.0])
        assert np.array_equal(kaczmarz_step(x, a, 2.0), x)

    def test_diagonal_projection_by_hand(self):
        got = kaczmarz_step(np.zeros(2), np.array([1.0, 1.0]), 2.0)
        assert np.allclose(got, [1.0, 1.0], atol=ATOL)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero row"):
            kaczmarz_step(np.zeros(2), np.zeros(2), 1.0)

    @given(st.integers(0, 10_000))
    def test_lands_on_hyperplane_along_row(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(4)
        x = rng.standard_normal(4)
        b_a = rng.standard_normal()
        out = kaczmarz_step(x, a, b_a)
        assert float(a @ out) == pytest.approx(b_a, abs=ATOL * (1 + abs(b_a)))
        step = out - x
        # step is parallel to a
        cross = step - (float(step @ a) / float(a @ a)) * a
        assert np.max(np.abs(cross)) <= ATOL


class TestMultirowStep:
    def test_reference_single_step_solution(self, reference_A):
        S = make_row_subset(reference_A, [1, 2])
        got = multirow_step(np.array([5.0, -3.0]), S, np.array([1.0, 2.0]))
        assert np.allclose(got, [1.0, 1.0], atol=ATOL)

    def test_fixed_point(self, reference_A):
        S = make_row_subset(reference_A, [0, 2])
        x = np.array([1.0, 1.0])
        got = multirow_step(x, S, np.array([1.0, 2.0]))
        assert np.allclose(got, x, atol=ATOL)

    def test_reduces_to_single_row(self, reference_A):
        S = make_row_subset(reference_A, [2])
        x = np.array([0.3, -0.8])
        multi = multirow_step(x, S, np.array([2.0]))
        single = kaczmarz_step(x, reference_A[2], 2.0)
        assert np.max(np.abs(multi - single)) <= ATOL

    def test_dependent_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
        with pytest.raises(DependentSubsetError):
            multirow_step(np.zeros(2), make_row_subset(A, [0, 1]), np.array([1.0, 2.0]))

    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_satisfies_equations_and_is_orthogonal(self, seed, n):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 4))
        idx = np.sort(rng.choice(6, size=n, replace=False))
        S = make_row_subset(A, idx)
        x = rng.standard_normal(4)
        b_S = rng.standard_normal(n)
        out = multirow_step(x, S, b_S)
        assert np.max(np.abs(S.A_n @ out - b_S)) <= ATOL * (1 + np.abs(b_S).max())
        # the update is in the row space: x moves orthogonally to the intersection
        step = out - x
        from kacz.projectors import apply_rejection

        assert np.max(np.abs(apply_rejection(S, step))) <= 1e-8 * max(1.0, np.linalg.norm(step))


class TestRelaxedStep:
    def test_mu_zero_is_noop_even_when_dependent(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
        S = make_row_subset(A, [0, 1])
        x = np.array([3.0, 1.0])
        assert np.array_equal(relaxed_step(x, S, np.array([1.0, 2.0]), 0.0), x)

    def test_mu_one_matches_projection(self, reference_A):
        S = make_row_subset(reference_A, [0, 1])
        x = np.array([4.0, -2.0])
        b_S = np.array([1.0, 1.0])
        assert np.array_equal(relaxed_step(x, S, b_S, 1.0), multirow_step(x, S, b_S))

    def test_mu_two_reflects(self):
        S = make_row_subset(np.array([[1.0, 0.0]]), [0])
        got = relaxed_step(np.array([1.0, 1.0]), S, np.array([0.0]), 2.0)
        assert np.allclose(got, [-1.0, 1.0], atol=ATOL)

    def test_dependent_with_nonzero_mu_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
        with pytest.raises(DependentSubsetError):
            relaxed_step(np.zeros(2), make_row_subset(A, [0, 1]), np.array([1.0, 2.0]), 0.5)

    def test_mu_out_of_range(self, reference_A):
        S = make_row_subset(reference_A, [0])
        with pytest.raises(ValueError):
            relaxed_step(np.zeros(2), S, np.array([1.0]), 2.5)


class TestRunPursuit:
    def test_reference_converges_in_one_iteration(self, reference_system):
        for seed in range(10):
            config = PursuitConfig(n=2, sampler="volume", master_seed=seed, max_iters=50,
                                   stop_tol=1e-10)
            trace = run_pursuit(reference_system, config)
            assert trace.converged
            assert trace.iters_run == 1

    def test_square_full_grade_single_step(self):
        system = synth_system(6, 6, seed=2)
        config = PursuitConfig(n=6, sampler="volume", master_seed=0, max_iters=10,
                               stop_tol=1e-8)
        trace = run_pursuit(system, config)
        assert trace.converged and trace.iters_run == 1

    def test_replay_bit_identical(self, reference_system):
        config = PursuitConfig(n=1, sampler="volume", master_seed=123, max_iters=200,
                               stop_tol=1e-12)
        t1 = run_pursuit(reference_system, config)
        t2 = run_pursuit(reference_system, config)
        assert np.array_equal(t1.errors_sq, t2.errors_sq)
        assert t1.draws == t2.draws

    def test_gains_monotone_volume(self, reference_system):
        config = PursuitConfig(n=1, sampler="volume", master_seed=5, max_iters=300,
                               stop_tol=1e-13)
        trace = run_pursuit(reference_system, config)
        assert (trace.errors_sq >= 0).all()
        assert (trace.gain_ratios <= 1 + 1e-10).all()

    def test_gains_monotone_uniform_both_modes(self):
        system = synth_system(8, 5, seed=4)
        for mode in ("undershoot", "overshoot"):
            config = PursuitConfig(n=2, sampler="uniform", relax_mode=mode,
                                   master_seed=6, max_iters=300, stop_tol=1e-13)
            trace = run_pursuit(system, config)
            assert (trace.gain_ratios <= 1 + 1e-10).all()
            assert (trace.mus >= 0).all() and (trace.mus <= 2).all()

    def test_supplied_x0_and_immediate_convergence(self, reference_system):
        config = PursuitConfig(n=1, sampler="volume", master_seed=0, max_iters=10,
                               stop_tol=1e-8, x0=np.array([1.0, 1.0]))
        trace = run_pursuit(reference_system, config)
        assert trace.converged and trace.iters_run == 0

    def test_residual_tracking_without_solution(self, reference_A):
        system = make_linear_system(reference_A, b=[1.0, 1.0, 2.0])
        config = PursuitConfig(n=2, sampler="volume", master_seed=1, max_iters=50,
                               stop_tol=1e-9, track="residual")
        trace = run_pursuit(system, config)
        assert trace.converged

    def test_error_tracking_requires_solution(self, reference_A):
        system = make_linear_system(reference_A, b=[1.0, 1.0, 2.0])
        config = PursuitConfig(n=1, master_seed=0, max_iters=5, stop_tol=1e-9)
        with pytest.raises(ValueError, match="solution"):
            run_pursuit(system, config)

    def test_rank_deficient_error_in_row_space(self):
        # column 3 is never touched: rows live in the first two coordinates
        A = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [1.0, -1.0, 0.0],
        ])
        system = make_linear_system(A, x_star=[1.0, 2.0, 0.0])
        config = PursuitConfig(n=2, sampler="volume", master_seed=3, max_iters=100,
                               stop_tol=1e-11)
        trace = run_pursuit(system, config)
        assert trace.converged  # null-space component is excluded from the error
        assert (trace.gain_ratios[: trace.iters_run] <= 1 + 1e-10).all()

    def test_uniform_dependent_draw_is_noop_iteration(self):
        # two identical rows force dependent pairs to appear under uniform draws
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        system = make_linear_system(A, x_star=[2.0, -1.0])
        config = PursuitConfig(n=2, sampler="uniform", master_seed=3, max_iters=100,
                               stop_tol=1e-300)
        trace = run_pursuit(system, config)
        dependent_steps = [k for k, idx in enumerate(trace.draws) if idx == (0, 1)]
        assert dependent_steps, "expected the dependent pair to be drawn at least once"
        for k in dependent_steps:
            assert trace.mus[k] == 0.0
            assert trace.gain_ratios[k] == pytest.approx(1.0, abs=1e-12)


class TestUniformStepIdentity:
    def test_per_step_volume_transfer(self):
        """Squared error drops by exactly (error' Q error) / v^2_max per step."""
        system = synth_system(10, 6, seed=21)
        x_star = system.x_star
        v_sq_max = max_subset_volume(system.A, 2)
        rng = Xoshiro256StarStar(77)
        gen = np.random.default_rng(99)
        for mode in ("undershoot", "overshoot"):
            for _ in range(100):
                x = x_star + gen.standard_normal(6)
                idx = draw_uniform(10, 2, rng)
                S = make_row_subset(system.A, idx)
                state = RelaxationState(mode=mode, v_sq_max_mode="exact", v_sq_max=v_sq_max)
                mu = relaxation_factor(subset_geometry(S).v_sq, state)
                x_next = relaxed_step(x, S, system.b[list(idx)], mu)
                e, e_next = x - x_star, x_next - x_star
                expected = float(e @ e) - float(e @ quasi_projector(S) @ e) / v_sq_max
                assert float(e_next @ e_next) == pytest.approx(expected, rel=1e-10)


class TestRunEnsemble:
    def test_single_member_equals_trace(self, reference_system):
        config = PursuitConfig(n=1, sampler="volume", master_seed=9, max_iters=40,
                               stop_tol=1e-300)
        report = run_ensemble(reference_system, config, members=1, keep_traces=True)
        trace = report.traces[0]
        alive = trace.errors_sq[:-1] > 0
        for k in range(trace.iters_run):
            if alive[k] and report.alive[k]:
                assert report.mean_gain_ratio[k] == pytest.approx(trace.gain_ratios[k], rel=1e-12)

    def test_reference_one_step_gain_zero(self, reference_system):
        config = PursuitConfig(n=2, sampler="volume", master_seed=4, max_iters=5,
                               stop_tol=1e-300)
        report = run_ensemble(reference_system, config, members=5)
        assert report.mean_gain_ratio[0] == pytest.approx(0.0, abs=1e-10)

    def test_members_share_start_and_differ_after(self):
        system = synth_system(9, 5, seed=13)
        config = PursuitConfig(n=1, sampler="volume", master_seed=7, max_iters=30,
                               stop_tol=1e-300)
        report = run_ensemble(system, config, members=3, keep_traces=True)
        starts = [t.errors_sq[0] for t in report.traces]
        assert starts[0] == starts[1] == starts[2]
        paths = [tuple(t.draws) for t in report.traces]
        assert len(set(paths)) == 3

    def test_kappa_and_bounds_populated(self):
        system = synth_system(9, 5, seed=13)
        config = PursuitConfig(n=2, sampler="volume", master_seed=7, max_iters=10,
                               stop_tol=1e-300)
        report = run_ensemble(system, config, members=2)
        assert report.kappa_sq > 1.0
        assert report.lower_factor == pytest.approx(1 - 1 / report.kappa_sq)
        assert report.upper_factor == pytest.approx(report.lower_factor**2)

    def test_uniform_kappa_uses_vol_max(self):
        system = synth_system(9, 5, seed=13)
        base = dict(master_seed=7, max_iters=10, stop_tol=1e-300)
        vol_report = run_ensemble(system, PursuitConfig(n=2, sampler="volume", **base), members=2)
        uni_report = run_ensemble(system, PursuitConfig(n=2, sampler="uniform", **base), members=2)
        # vol_n <= vol_n_max so the uniform condition number can only be worse
        assert uni_report.kappa_sq >= vol_report.kappa_sq - 1e-12

    def test_error_vector_collection_shapes(self):
        system = synth_system(9, 5, seed=13)
        config = PursuitConfig(n=1, sampler="volume", master_seed=7, max_iters=12,
                               stop_tol=1e-300)
        report = run_ensemble(system, config, members=4, collect_error_vectors=True)
        assert report.mean_error_sq_norm.shape == (13,)
        assert report.mean_error_se_rel.shape == (13,)
        assert report.mean_error_sq_norm[0] > 0

    def test_buffers_follow_steps_taken(self, reference_system):
        # converges in one step: a trillion-step horizon must cost nothing
        config = PursuitConfig(n=2, master_seed=0, max_iters=10**12, stop_tol=1e-10)
        assert run_pursuit(reference_system, config).iters_run == 1
        system = synth_system(9, 5, seed=13)
        config = PursuitConfig(n=1, master_seed=7, max_iters=1100, stop_tol=1e-300)
        report = run_ensemble(system, config, members=3, collect_error_vectors=True,
                              keep_traces=True)
        assert report.mean_error_sq_norm.shape == report.mean_log10_error.shape == (1101,)
        assert max(t.iters_run for t in report.traces) == 1100
        assert all(t.errors_sq.shape == (t.iters_run + 1,) for t in report.traces)

    def test_uniform_running_mode_ensemble(self):
        system = synth_system(9, 5, seed=13)
        config = PursuitConfig(n=2, sampler="uniform", v_sq_max_mode="running",
                               master_seed=7, max_iters=60, stop_tol=1e-300)
        report = run_ensemble(system, config, members=3, keep_traces=True)
        # bound columns still use the exact enumerated maximum
        assert report.kappa_sq > 1.0
        for trace in report.traces:
            assert (trace.mus >= 0).all() and (trace.mus <= 2).all()
            assert (trace.gain_ratios <= 1 + 1e-10).all()
            # first draw always becomes the running max, so the first step is
            # a full projection (or a no-op if the draw was dependent)
            assert trace.mus[0] in (0.0, 1.0)


def _reference_pursuit(system, config, member_index):
    """A plain loop over one member's draws: the judge of the batched engine.

    Returns the squared errors, the draws, the relaxation factors (None for
    volume draws) and whether the member stopped at stop_tol.
    """
    A, b, n = system.A, system.b, config.n
    x = np.array(Xoshiro256StarStar(mix_seed(config.master_seed, 0)).normals(system.N))
    if config.x0 is not None:
        x = np.array(config.x0, dtype=np.float64)
    rng = Xoshiro256StarStar(mix_seed(config.master_seed, 1 + member_index))
    dist = build_volume_distribution(A, n)
    exact = config.v_sq_max_mode == "exact"
    state = RelaxationState(mode=config.relax_mode, v_sq_max_mode=config.v_sq_max_mode,
                            v_sq_max=dist.v_sq_max if exact else 0.0)
    row_space = np.linalg.pinv(A) @ A

    def error(x):
        d = A @ x - b if config.track == "residual" else row_space @ (x - system.x_star)
        return float(d @ d)

    errors, draws, mus = [error(x)], [], []
    while errors[-1] > config.stop_tol**2 and len(draws) < config.max_iters:
        if config.sampler == "volume":
            S, mu = draw_volume(dist, rng), 1.0
        else:
            S = make_row_subset(A, draw_uniform(system.M, n, rng))
            geom = subset_geometry(S)
            mu = relaxation_factor(geom.v_sq, state) if geom.rank == n else 0.0
            mus.append(mu)
        x = relaxed_step(x, S, b[list(S.indices)], mu)
        draws.append(S.indices)
        errors.append(error(x))
    return np.array(errors), draws, mus if config.sampler == "uniform" else None


def _rank_three_system():
    """8 x 5 of rank 3 with rows 0 and 1 parallel: dependent pairs and
    triples, and an error outside the row space."""
    gen = np.random.default_rng(5)
    A = gen.standard_normal((8, 3)) @ gen.standard_normal((3, 5))
    A[1] = 2.0 * A[0]
    return make_linear_system(A, x_star=gen.standard_normal(5))


class TestEngineOracle:
    """Every member of a batched ensemble equals a plain per-member loop:
    draws equal, relaxation factors bit-equal, errors within 1e-10 relative
    wherever they lie above rounding level, 1e-20 of the starting error."""

    @pytest.mark.parametrize("system, n, overrides", [
        (synth_system(9, 5, seed=13), 1, dict(sampler="volume")),
        (synth_system(9, 5, seed=13), 2, dict(sampler="volume")),
        (synth_system(9, 5, seed=13), 2, dict(sampler="uniform", relax_mode="undershoot")),
        (synth_system(9, 5, seed=13), 3, dict(sampler="uniform", relax_mode="overshoot")),
        (synth_system(9, 5, seed=13), 2, dict(sampler="uniform", v_sq_max_mode="running")),
        (_rank_three_system(), 2, dict(sampler="volume")),
        (_rank_three_system(), 3, dict(sampler="uniform", relax_mode="overshoot")),
        (_rank_three_system(), 3, dict(sampler="uniform", v_sq_max_mode="running")),
        (synth_system(9, 5, seed=13), 2, dict(sampler="uniform", track="residual")),
        (synth_system(9, 5, seed=13), 3, dict(sampler="volume", track="residual")),
        # members stop early, each at its own iteration
        (synth_system(9, 5, seed=13), 3, dict(sampler="volume", stop_tol=1e-2)),
        (synth_system(9, 5, seed=13), 3, dict(sampler="uniform", stop_tol=1e-2, max_iters=300)),
        (synth_system(6, 6, seed=2), 6, dict(sampler="volume", stop_tol=1e-8)),
    ])
    def test_members_match_reference_loop(self, system, n, overrides):
        config = PursuitConfig(n=n, master_seed=11,
                               **{"max_iters": 40, "stop_tol": 1e-300, **overrides})
        report = run_ensemble(system, config, members=6, keep_traces=True)
        for m, trace in enumerate(report.traces):
            errors, draws, mus = _reference_pursuit(system, config, m)
            assert trace.draws == draws
            if mus is None:
                assert trace.mus is None
            else:
                assert trace.mus.tolist() == mus
            assert trace.iters_run == len(draws)
            np.testing.assert_allclose(trace.errors_sq, errors, rtol=1e-10,
                                       atol=1e-20 * errors[0])
        stops = {t.iters_run for t in report.traces}
        if config.stop_tol > 1e-300:
            assert all(t.converged for t in report.traces)
            if n < system.N:
                assert len(stops) > 1, "members should stop at different iterations"
            else:
                assert stops == {1}
        if system.M == 8 and config.sampler == "uniform":
            assert any(mu == 0.0 for t in report.traces for mu in t.mus)

    @pytest.mark.parametrize("overrides", [
        dict(sampler="volume"), dict(sampler="uniform", relax_mode="overshoot"),
        dict(sampler="uniform", v_sq_max_mode="running"),
    ])
    def test_single_pursuit_is_ensemble_member(self, overrides):
        # 1,500 steps cross the engine's first 1,024-step buffer block
        system = synth_system(9, 5, seed=13)
        config = PursuitConfig(n=2, master_seed=4, max_iters=1500, stop_tol=1e-300, **overrides)
        report = run_ensemble(system, config, members=5, keep_traces=True)
        for m, member in enumerate(report.traces):
            alone = run_pursuit(system, config, member_index=m)
            assert alone.draws == member.draws
            if alone.mus is not None:
                assert alone.mus.tolist() == member.mus.tolist()
            np.testing.assert_allclose(alone.errors_sq, member.errors_sq, rtol=1e-12,
                                       atol=1e-20 * member.errors_sq[0])


def _count_geometry(monkeypatch) -> list:
    """Record every subset_geometry call, at each module that binds it."""
    calls = []
    original = kacz.projectors.subset_geometry

    def counted(S):
        calls.append(S.indices)
        return original(S)

    for module in (kacz.projectors, kacz.sampling, kacz.solver):
        monkeypatch.setattr(module, "subset_geometry", counted)
    return calls


class TestSubsetTableReuse:
    """One enumeration of grade n per (A, n); only running-mode uniform steps
    compute their geometry, every other step reads it from the table."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sampler, mode, vmax_mode, geometry_per_step", [
        ("uniform", "undershoot", "exact", 0), ("uniform", "overshoot", "exact", 0),
        ("uniform", "undershoot", "running", 1), ("volume", "undershoot", "exact", 0),
    ])
    def test_ensemble_enumerates_grade_n_once(self, monkeypatch, n, sampler, mode,
                                              vmax_mode, geometry_per_step):
        system = synth_system(9, 5, seed=13)
        config = PursuitConfig(n=n, sampler=sampler, relax_mode=mode,
                               v_sq_max_mode=vmax_mode, master_seed=7, max_iters=10,
                               stop_tol=1e-300)
        calls = _count_geometry(monkeypatch)
        run_ensemble(system, config, members=3)
        assert len(calls) == math.comb(9, n) + geometry_per_step * 3 * 10

    def test_rank_below_grade(self, monkeypatch):
        # rank 2 < n = 3: no subset has volume, so v_sq_max = 0
        A = np.outer(np.arange(1.0, 7.0), [1.0, 2.0, 0.5]) + np.outer(np.ones(6), [0.0, 1.0, 1.0])
        system = make_linear_system(A, x_star=[1.0, -1.0, 2.0])
        calls = _count_geometry(monkeypatch)
        assert max_subset_volume(A, 3) == 0.0
        assert len(calls) == math.comb(6, 3)

        del calls[:]
        uniform = PursuitConfig(n=3, sampler="uniform", master_seed=1, max_iters=12,
                                stop_tol=1e-300)
        trace = run_pursuit(system, uniform)
        assert len(calls) == math.comb(6, 3)
        assert (trace.mus == 0.0).all()
        assert (trace.errors_sq == trace.errors_sq[0]).all()

        del calls[:]
        with pytest.raises(RankDeficiencyError):
            run_pursuit(system, replace(uniform, sampler="volume"))
        assert len(calls) == math.comb(6, 3)

    def test_running_mode_enumerates_nothing(self, monkeypatch):
        """The scale path: C(M, n) far above the cap, one geometry per step."""
        assert math.comb(2100, 3) > ENUMERATION_CAP
        system = synth_system(2100, 5, seed=3)

        def no_enumeration(*args, **kwargs):
            raise AssertionError("running mode must not enumerate")

        monkeypatch.setattr(kacz.solver, "build_volume_distribution", no_enumeration)
        calls = _count_geometry(monkeypatch)
        config = PursuitConfig(n=3, sampler="uniform", v_sq_max_mode="running",
                               master_seed=2, max_iters=20, stop_tol=1e-300)
        trace = run_pursuit(system, config)
        assert trace.iters_run == 20
        assert len(calls) == 20
        assert (trace.gain_ratios <= 1 + 1e-10).all()


# Draws and relaxation factors of member 0 under master seed 7 on
# synth_system(9, 5, seed=13) with n = 2. They are part of the replay
# contract: the stream, the seed split, colex order and the inverse-CDF draw
# fix them, so no rewrite of the samplers or the step may move them.
_PINNED_DRAWS = {
    "volume": [(7, 8), (1, 7), (4, 6), (0, 6), (4, 6), (3, 8), (1, 8), (5, 6), (2, 8), (1, 6)],
    "uniform": [(5, 8), (0, 4), (4, 7), (5, 6), (4, 7), (2, 5), (0, 7), (0, 6), (1, 6), (4, 8)],
}
_PINNED_MUS = {
    ("undershoot", "exact"): [
        0.35161292794578847, 0.06223147658890493, 0.10120993715013915, 0.24954518210538645,
        0.10120993715013915, 0.11524144527600699, 0.05071421541103993, 0.29918121071112336,
        0.1546844736932954, 0.11011156049017379],
    ("overshoot", "exact"): [
        1.6483870720542115, 1.937768523411095, 1.8987900628498608, 1.7504548178946135,
        1.8987900628498608, 1.8847585547239931, 1.9492857845889602, 1.7008187892888766,
        1.8453155263067047, 1.8898884395098263],
    ("undershoot", "running"): [
        1.0, 0.1100897237482612, 0.18242470841275438, 0.5036745338075252,
        0.18242470841275438, 0.20927180130414225, 0.08926489737030352, 0.65063923222793,
        0.2875993828340463, 0.19940136910516293],
}


class TestPinnedReplay:
    @staticmethod
    def _trace(**overrides):
        config = PursuitConfig(n=2, master_seed=7, max_iters=10, stop_tol=1e-300, **overrides)
        return run_pursuit(synth_system(9, 5, seed=13), config)

    def test_volume_draws(self):
        trace = self._trace(sampler="volume")
        assert trace.draws == _PINNED_DRAWS["volume"]
        assert trace.mus is None

    @pytest.mark.parametrize("mode, vmax_mode", sorted(_PINNED_MUS))
    def test_uniform_draws_and_mus(self, mode, vmax_mode):
        trace = self._trace(sampler="uniform", relax_mode=mode, v_sq_max_mode=vmax_mode)
        assert trace.draws == _PINNED_DRAWS["uniform"]
        assert trace.mus.tolist() == pytest.approx(_PINNED_MUS[mode, vmax_mode], rel=1e-12)
