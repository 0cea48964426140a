import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from kacz.errors import EnumerationCapError, RankDeficiencyError
from kacz.linsys import gram
from kacz.rng import Xoshiro256StarStar
from kacz.sampling import (
    RelaxationState,
    build_volume_distribution,
    colex_rank,
    combinations_colex,
    draw_uniform,
    draw_volume,
    draw_volume_row,
    draw_volume_rows,
    max_subset_volume,
    relaxation_factor,
    relaxation_factors,
)
from kacz.spectral import vol_sequence


class TestColexEnumeration:
    def test_pairs_of_four(self):
        got = list(combinations_colex(4, 2))
        assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_complete_and_sorted(self, M, n):
        if n > M:
            return
        got = list(combinations_colex(M, n))
        assert len(got) == math.comb(M, n)
        assert len(set(got)) == len(got)
        assert all(tuple(sorted(s)) == s for s in got)
        # colex: ordered by reversed tuples
        keys = [tuple(reversed(s)) for s in got]
        assert keys == sorted(keys)


class TestVolumeDistribution:
    def test_reference_pairs_equal_weight(self, reference_A):
        dist = build_volume_distribution(reference_A, 2)
        assert len(dist.v_sq) == 3
        for v_sq in dist.v_sq:
            assert v_sq == pytest.approx(1.0, abs=1e-12)
        assert dist.vol_n == pytest.approx(3.0, abs=1e-10)
        assert dist.v_sq_max == pytest.approx(1.0, abs=1e-12)

    def test_reference_rows_norm_probabilities(self, reference_A):
        dist = build_volume_distribution(reference_A, 1)
        probs = [v / dist.vol_n for v in dist.v_sq]
        assert probs == pytest.approx([0.25, 0.25, 0.5], abs=1e-12)

    def test_rank_deficient_rejected(self):
        A = np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
        dist = build_volume_distribution(A, 2)
        assert dist.vol_n == 0.0 and dist.v_sq_max == 0.0
        with pytest.raises(RankDeficiencyError):
            draw_volume(dist, Xoshiro256StarStar(0))

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            build_volume_distribution(np.ones((4000, 2)), 2)

    def test_zero_volume_subsets_excluded(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        dist = build_volume_distribution(A, 2)
        # pair (0,1) is dependent and must be absent
        assert all(tuple(idx) != (0, 1) for idx in dist.indices)
        assert len(dist.indices) == 2

    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_normalizer_matches_trace_formula(self, seed, n):
        A = np.random.default_rng(seed).standard_normal((7, 4))
        dist = build_volume_distribution(A, n)
        vols = vol_sequence(gram(A), n)
        assert dist.vol_n == pytest.approx(vols[n], rel=1e-10)


class TestColexRanks:
    @given(st.integers(1, 9), st.integers(1, 9))
    def test_rank_is_enumeration_position(self, M, n):
        if n > M:
            return
        assert [colex_rank(s) for s in combinations_colex(M, n)] == list(range(math.comb(M, n)))

    def test_table_rows_of_every_subset(self):
        # rows 0 and 1 are parallel, so every subset holding both has zero volume
        A = np.random.default_rng(3).standard_normal((7, 4))
        A[1] = 2.0 * A[0]
        dist = build_volume_distribution(A, 3)
        assert dist.ranks.tolist() == [colex_rank(s) for s in dist.indices.tolist()]
        assert (np.diff(dist.ranks) > 0).all()
        subsets = list(combinations_colex(7, 3))
        rows = dist.rows_of(subsets)
        for s, k in zip(subsets, rows.tolist()):
            if {0, 1} <= set(s):
                assert k == -1
            else:
                assert tuple(dist.indices[k].tolist()) == s

    def test_empty_table_finds_nothing(self):
        dist = build_volume_distribution(np.ones((4, 2)), 2)
        assert dist.rows_of([(0, 1), (2, 3)]).tolist() == [-1, -1]


class TestDrawVolume:
    def test_batched_draws_match_single_draws(self):
        """One draw per generator, each stream consumed as a lone draw would."""
        A = np.random.default_rng(8).standard_normal((9, 5))
        dist = build_volume_distribution(A, 2)
        batch = [Xoshiro256StarStar(s) for s in range(6)]
        single = [Xoshiro256StarStar(s) for s in range(6)]
        for _ in range(200):
            got = draw_volume_rows(dist, batch).tolist()
            assert got == [draw_volume_row(dist, g) for g in single]

    def test_matches_sequential_sum_and_bisection(self):
        """The table's cumulative weights and searchsorted draw equal a
        running Python sum and a bisection over it, bit for bit."""
        A = np.random.default_rng(21).standard_normal((8, 4))
        dist = build_volume_distribution(A, 2)
        running, cumulative = 0.0, []
        for v_sq in dist.v_sq.tolist():
            running += v_sq
            cumulative.append(running)
        assert dist.cumulative.tolist() == cumulative
        assert dist.vol_n == running
        g1, g2 = Xoshiro256StarStar(4), Xoshiro256StarStar(4)
        for _ in range(2000):
            target = g2.random() * running
            lo, hi = 0, len(cumulative) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cumulative[mid] <= target:
                    lo = mid + 1
                else:
                    hi = mid
            assert draw_volume_row(dist, g1) == lo

    def test_degenerate_distribution(self):
        A = np.array([[2.0, 0.0], [0.0, 0.0]])  # second row zero: one entry
        dist = build_volume_distribution(A, 1)
        rng = Xoshiro256StarStar(0)
        for _ in range(20):
            assert draw_volume(dist, rng).indices == (0,)

    def test_reference_frequencies(self, reference_A):
        dist = build_volume_distribution(reference_A, 2)
        rng = Xoshiro256StarStar(5)
        counts = {}
        draws = 30_000
        for _ in range(draws):
            idx = draw_volume(dist, rng).indices
            counts[idx] = counts.get(idx, 0) + 1
        se = math.sqrt((1 / 3) * (2 / 3) / draws)
        for idx in [(0, 1), (0, 2), (1, 2)]:
            assert abs(counts[idx] / draws - 1 / 3) <= 3 * se

    def test_chi_squared_row_norm_proportional(self, reference_A):
        dist = build_volume_distribution(reference_A, 1)
        rng = Xoshiro256StarStar(11)
        draws = 30_000
        counts = np.zeros(3)
        for _ in range(draws):
            counts[draw_volume(dist, rng).indices[0]] += 1
        _, p = scipy.stats.chisquare(counts, draws * np.array([0.25, 0.25, 0.5]))
        assert p > 0.001

    def test_zero_probability_never_drawn(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        dist = build_volume_distribution(A, 2)
        rng = Xoshiro256StarStar(17)
        for _ in range(100_000):
            assert draw_volume(dist, rng).indices != (0, 1)

    def test_replay(self, reference_A):
        dist = build_volume_distribution(reference_A, 2)
        g1, g2 = Xoshiro256StarStar(3), Xoshiro256StarStar(3)
        seq1 = [draw_volume(dist, g1).indices for _ in range(50)]
        seq2 = [draw_volume(dist, g2).indices for _ in range(50)]
        assert seq1 == seq2


class TestDrawUniform:
    def test_full_set_forced(self):
        rng = Xoshiro256StarStar(1)
        assert draw_uniform(5, 5, rng) == (0, 1, 2, 3, 4)

    def test_multinomial(self):
        rng = Xoshiro256StarStar(9)
        draws = 30_000
        counts = {}
        for _ in range(draws):
            s = draw_uniform(5, 2, rng)
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == 10
        se = math.sqrt(0.1 * 0.9 / draws)
        for count in counts.values():
            assert abs(count / draws - 0.1) <= 3 * se

    def test_replay(self):
        g1, g2 = Xoshiro256StarStar(42), Xoshiro256StarStar(42)
        assert [draw_uniform(8, 3, g1) for _ in range(100)] == [
            draw_uniform(8, 3, g2) for _ in range(100)
        ]

    @given(st.integers(0, 10_000), st.integers(1, 10), st.integers(1, 10))
    def test_sorted_distinct_in_range(self, seed, M, n):
        if n > M:
            return
        s = draw_uniform(M, n, Xoshiro256StarStar(seed))
        assert len(s) == n
        assert len(set(s)) == n
        assert all(0 <= i < M for i in s)
        assert tuple(sorted(s)) == s

    def test_bad_args(self):
        with pytest.raises(ValueError):
            draw_uniform(3, 4, Xoshiro256StarStar(0))


class TestRelaxationFactor:
    def test_at_max_is_one(self):
        for mode in ("undershoot", "overshoot"):
            state = RelaxationState(mode=mode, v_sq_max_mode="exact", v_sq_max=2.0)
            assert relaxation_factor(2.0, state) == 1.0

    def test_zero_volume(self):
        under = RelaxationState(mode="undershoot", v_sq_max_mode="exact", v_sq_max=2.0)
        over = RelaxationState(mode="overshoot", v_sq_max_mode="exact", v_sq_max=2.0)
        assert relaxation_factor(0.0, under) == 0.0
        assert relaxation_factor(0.0, over) == 2.0

    def test_reference_row_by_hand(self):
        # row (1,0) has v^2 = 1; max row norm^2 is 2
        state = RelaxationState(mode="undershoot", v_sq_max_mode="exact", v_sq_max=2.0)
        assert relaxation_factor(1.0, state) == pytest.approx(1 - math.sqrt(0.5), abs=1e-12)

    def test_zero_max_returns_zero(self):
        state = RelaxationState(mode="overshoot", v_sq_max_mode="running", v_sq_max=0.0)
        assert relaxation_factor(0.0, state) == 0.0

    def test_running_mode_updates_max(self):
        state = RelaxationState(mode="undershoot", v_sq_max_mode="running", v_sq_max=0.0)
        assert relaxation_factor(1.5, state) == 1.0  # first draw becomes the max
        assert state.v_sq_max == 1.5
        relaxation_factor(0.5, state)
        assert state.v_sq_max == 1.5
        relaxation_factor(4.0, state)
        assert state.v_sq_max == 4.0

    @given(
        st.floats(0, 1e12),
        st.floats(0, 1e12),
        st.sampled_from(["undershoot", "overshoot"]),
        st.sampled_from(["exact", "running"]),
    )
    def test_always_in_unit_double_interval(self, v_sq, v_max, mode, max_mode):
        state = RelaxationState(mode=mode, v_sq_max_mode=max_mode, v_sq_max=v_max)
        mu = relaxation_factor(v_sq, state)
        assert 0.0 <= mu <= 2.0

    def test_running_max_reaches_exact(self):
        A = np.random.default_rng(12).standard_normal((6, 4))
        exact = max_subset_volume(A, 2)
        state = RelaxationState(mode="undershoot", v_sq_max_mode="running", v_sq_max=0.0)
        rng = Xoshiro256StarStar(8)
        from kacz.projectors import make_row_subset, subset_geometry

        history = []
        for _ in range(50 * math.comb(6, 2)):
            idx = draw_uniform(6, 2, rng)
            v_sq = subset_geometry(make_row_subset(A, idx)).v_sq
            relaxation_factor(v_sq, state)
            history.append(state.v_sq_max)
        assert state.v_sq_max == pytest.approx(exact, rel=1e-12)
        assert all(b >= a for a, b in zip(history, history[1:]))


class TestRelaxationFactors:
    @pytest.mark.parametrize("mode", ["undershoot", "overshoot"])
    def test_bit_equal_to_scalar(self, mode):
        gen = np.random.default_rng(17)
        v_max = np.concatenate([gen.exponential(size=300), np.zeros(20)])
        v_sq = v_max * gen.uniform(0.0, 1.2, size=v_max.size)  # some above the max
        v_sq[::7] = 0.0
        got = relaxation_factors(v_sq, v_max, mode)
        want = [relaxation_factor(v, RelaxationState(mode=mode, v_sq_max=m))
                for v, m in zip(v_sq.tolist(), v_max.tolist())]
        assert got.tolist() == want


class TestMaxSubsetVolume:
    def test_reference(self, reference_A):
        assert max_subset_volume(reference_A, 1) == pytest.approx(2.0, abs=1e-12)
        assert max_subset_volume(reference_A, 2) == pytest.approx(1.0, abs=1e-12)
