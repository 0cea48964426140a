import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kacz.errors import EnumerationCapError, RankDeficiencyError
from kacz.linsys import (
    SpectralDecomposition,
    exponential_sv_schedule,
    gram,
    linear_sv_schedule,
    singular_spectrum,
)
from kacz.sampling import max_subset_volume
from kacz.spectral import (
    brute_force_phi,
    brute_force_vol,
    build_profile_from_decomposition,
    build_spectral_profile,
    expected_projector,
    grade_condition_number,
    gram_inverse_via_phi,
    rate_bounds,
    total_quasi_projector,
    transform_singular_values,
    vol_sequence,
)

from conftest import exact_esp, exact_hats, rel_err

ATOL = 1e-10


def reference_G():
    return np.array([[2.0, 1.0], [1.0, 2.0]])


def alternating_transform(sigma_sq, vols, n: int) -> np.ndarray:
    """The paper's degree-n polynomial sum_p (-1)^(p-1) vols[n-p] x^p
    (oracle: its alternating terms cancel, so it is exact only at desk scale)."""
    x = np.asarray(sigma_sq, dtype=np.float64)
    return sum((-1.0) ** (p - 1) * vols[n - p] * x**p for p in range(1, n + 1))


class TestTotalQuasiProjector:
    def test_reference_by_hand(self, reference_A):
        # G(4I - G) with G = [[2,1],[1,2]] is 3I
        phi2 = total_quasi_projector(reference_G(), 2)
        assert np.allclose(phi2, 3 * np.eye(2), atol=ATOL)
        assert np.allclose(phi2, brute_force_phi(reference_A, 2), atol=ATOL)

    @given(st.integers(2, 8), st.integers(1, 8))
    def test_identity_closed_form(self, N, n):
        if n > N:
            return
        phi = total_quasi_projector(np.eye(N), n)
        assert np.allclose(phi, math.comb(N - 1, n - 1) * np.eye(N), rtol=1e-12)

    def test_base_case_is_gram(self, reference_A):
        assert np.array_equal(total_quasi_projector(reference_G(), 1), reference_G())

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            total_quasi_projector(reference_G(), 3)

    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_matches_enumeration(self, seed, n):
        A = np.random.default_rng(seed).standard_normal((8, 5))
        phi = total_quasi_projector(gram(A), n)
        vol_n = vol_sequence(gram(A), n)[n]
        assert np.max(np.abs(phi - brute_force_phi(A, n))) <= 1e-9 * vol_n

    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_eigenstructure_inheritance(self, seed, n):
        A = np.random.default_rng(seed).standard_normal((8, 5))
        G = gram(A)
        vols = vol_sequence(G, n)
        eigs_phi = np.sort(np.linalg.eigvalsh(total_quasi_projector(G, n)))[::-1]
        transformed = np.sort(transform_singular_values(singular_spectrum(A).sigma_sq, n))[::-1]
        assert np.max(np.abs(eigs_phi - transformed)) <= 1e-9 * vols[n]


class TestVolSequence:
    def test_reference(self, reference_A):
        assert np.allclose(vol_sequence(reference_G(), 2), [1.0, 4.0, 3.0], atol=ATOL)

    @given(st.integers(2, 8))
    def test_identity_binomials(self, N):
        vols = vol_sequence(np.eye(N), N)
        expected = [math.comb(N, n) for n in range(N + 1)]
        assert np.allclose(vols, expected, rtol=1e-12)

    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_square_full_grade_is_determinant(self, seed, N):
        A = np.random.default_rng(seed).standard_normal((N, N))
        G = gram(A)
        vols = vol_sequence(G, N)
        det = np.linalg.det(G)
        assert vols[N] == pytest.approx(det, rel=1e-8, abs=1e-10)

    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_matches_enumeration(self, seed, n):
        A = np.random.default_rng(seed).standard_normal((8, 5))
        vols = vol_sequence(gram(A), n)
        assert abs(vols[n] - brute_force_vol(A, n)) <= 1e-9 * vols[n]

    def test_trace_identity(self):
        A = np.random.default_rng(5).standard_normal((7, 5))
        G = gram(A)
        vols = vol_sequence(G, 5)
        for n in range(1, 6):
            phi = total_quasi_projector(G, n)
            assert np.trace(phi) == pytest.approx(n * vols[n], rel=1e-10)


class TestBruteForce:
    def test_reference_pair_volumes(self, reference_A):
        assert brute_force_vol(reference_A, 2) == pytest.approx(3.0, abs=ATOL)

    def test_identity_counts(self):
        assert brute_force_vol(np.eye(4), 3) == pytest.approx(4.0, abs=0)

    def test_rank_deficient_sums_to_zero(self):
        A = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 0.5]) @ np.array([[1.0, 0.0], [0.0, 1.0]])
        assert brute_force_vol(A, 2) <= 1e-20

    def test_phi_n1_is_gram(self, reference_A):
        assert np.allclose(brute_force_phi(reference_A, 1), gram(reference_A), atol=ATOL)

    def test_phi_identity(self):
        assert np.allclose(brute_force_phi(np.eye(3), 2), 2 * np.eye(3), atol=0)

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapError):
            # C(300, 150) is astronomically over the cap
            brute_force_vol(np.ones((300, 150)), 150)


class TestTransform:
    def test_reference_value_by_hand(self, reference_A):
        # sigma^2 = (3, 1): 3 * e_1(1) = 3; oracle: eigenvalues of the enumerated total
        got = transform_singular_values([3.0, 1.0], 2)
        assert got[0] == pytest.approx(3.0, abs=ATOL)
        oracle = np.linalg.eigvalsh(brute_force_phi(reference_A, 2))
        assert got[0] == pytest.approx(oracle.max(), abs=ATOL)

    def test_zero_maps_to_zero(self):
        for n in (1, 2, 3):
            assert transform_singular_values([0.0, 1.0, 2.0, 3.0], n)[0] == 0.0

    def test_grade_one_is_identity(self):
        sigma = np.array([0.3, 2.0, 5.5])
        got = transform_singular_values(sigma, 1)
        assert np.array_equal(got, sigma)

    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_esp_matches_alternating_polynomial(self, seed, n):
        sigma_sq = np.random.default_rng(seed).uniform(0.0, 3.0, size=6)
        direct = alternating_transform(sigma_sq, vol_sequence(np.diag(sigma_sq), n), n)
        got = transform_singular_values(sigma_sq, n)
        mask = direct >= 0
        assert np.allclose(got[mask], direct[mask], rtol=1e-9, atol=1e-12)


class TestGradeConditionNumber:
    def test_reference_values(self, reference_A):
        sigma_sq = singular_spectrum(reference_A).sigma_sq
        assert grade_condition_number(sigma_sq, 1) == pytest.approx(4.0, abs=ATOL)
        assert grade_condition_number(sigma_sq, 2) == pytest.approx(1.0, abs=ATOL)

    @given(st.integers(2, 8), st.integers(1, 8))
    def test_identity_closed_form(self, N, n):
        if n > N:
            return
        kappa = grade_condition_number(np.ones(N), n)
        assert kappa == pytest.approx(N / n, rel=1e-12)

    def test_rank_deficiency_raises(self):
        A = np.outer(np.arange(1.0, 5.0), [1.0, 2.0])  # rank 1
        sigma_sq = singular_spectrum(A).sigma_sq
        with pytest.raises(RankDeficiencyError):
            grade_condition_number(sigma_sq, 2)

    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_at_least_one(self, seed, n):
        A = np.random.default_rng(seed).standard_normal((8, 5))
        kappa = grade_condition_number(singular_spectrum(A).sigma_sq, n)
        assert kappa >= 1.0 - 1e-10


class TestExpectedProjector:
    def test_reference_grade_two(self, reference_A):
        assert np.allclose(expected_projector(reference_G(), 2), np.eye(2), atol=ATOL)

    def test_reference_grade_one(self):
        expected = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert np.allclose(expected_projector(reference_G(), 1), expected, atol=ATOL)

    @given(st.integers(2, 8), st.integers(1, 8))
    def test_identity_scaling(self, N, n):
        if n > N:
            return
        assert np.allclose(expected_projector(np.eye(N), n), (n / N) * np.eye(N), rtol=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_spectrum_in_unit_interval_and_trace(self, seed, n):
        A = np.random.default_rng(seed).standard_normal((8, 5))
        E = expected_projector(gram(A), n)
        eigs = np.linalg.eigvalsh(E)
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 1.0 + 1e-10
        assert np.trace(E) == pytest.approx(n, rel=1e-10)

    def test_degenerate_raises(self):
        A = np.outer(np.arange(1.0, 5.0), [1.0, 2.0])
        with pytest.raises(RankDeficiencyError):
            expected_projector(gram(A), 2)


class TestRateBounds:
    def test_kappa_four(self):
        assert rate_bounds(4.0, 1) == (0.75, 0.5625)

    def test_one_step_convergence(self):
        assert rate_bounds(1.0, 1) == (0.0, 0.0)
        assert rate_bounds(1.0, 7) == (0.0, 0.0)

    def test_zero_steps(self):
        assert rate_bounds(1e9, 0) == (1.0, 1.0)

    @given(st.floats(1.0, 1e6), st.integers(0, 50))
    def test_bracket_ordering(self, kappa_sq, k):
        lower, upper = rate_bounds(kappa_sq, k)
        assert upper <= lower <= 1.0
        assert upper >= 0.0

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            rate_bounds(0.5, 1)


class TestGramInverse:
    def test_identity(self):
        assert np.allclose(gram_inverse_via_phi(np.eye(3)), np.eye(3), atol=ATOL)

    def test_diagonal_by_hand(self):
        got = gram_inverse_via_phi(np.diag([4.0, 1.0]))
        assert np.allclose(got, np.diag([0.25, 1.0]), atol=ATOL)

    def test_reference_by_hand(self):
        got = gram_inverse_via_phi(reference_G())
        assert np.allclose(got, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=ATOL)

    def test_one_by_one(self):
        assert np.allclose(gram_inverse_via_phi(np.array([[4.0]])), [[0.25]], atol=0)

    @given(st.integers(0, 10_000))
    def test_random_well_conditioned(self, seed):
        B = np.random.default_rng(seed).standard_normal((9, 6))
        G = gram(B)
        eigs = np.linalg.eigvalsh(G)
        cond = eigs[-1] / eigs[0]
        residual = np.max(np.abs(G @ gram_inverse_via_phi(G) - np.eye(6)))
        assert residual <= 1e-8 * cond

    def test_singular_raises(self):
        B = np.random.default_rng(1).standard_normal((6, 3))
        G = B @ B.T  # 6x6 of rank 3
        with pytest.raises(RankDeficiencyError):
            gram_inverse_via_phi(G)


class TestSpectralProfile:
    def test_reference_profile(self, reference_A):
        profile = build_spectral_profile(reference_A, 2)
        vol_max = math.comb(3, 2) * max_subset_volume(reference_A, 2)
        assert np.allclose(profile.vols, [1.0, 4.0, 3.0], atol=ATOL)
        assert profile.kappa_sq_at(1) == pytest.approx(4.0, abs=ATOL)
        assert profile.kappa_sq_at(2) == pytest.approx(1.0, abs=ATOL)
        assert profile.sigma_hat_sq_min_at(1) == pytest.approx(1.0, abs=ATOL)
        # v^2 max over pairs is 1; C(3,2) = 3
        assert vol_max == pytest.approx(3.0, abs=ATOL)
        # vol_n <= vol_n_max
        assert profile.vols[2] <= vol_max + ATOL

    def test_v_min_is_minimizing_eigenvector(self):
        A = np.random.default_rng(3).standard_normal((8, 5))
        profile = build_spectral_profile(A, 3)
        decomp = singular_spectrum(A)
        for n in (1, 2, 3):
            v = profile.v_min_at(n)
            hats = profile.phi_eigs_at(n)
            j = int(np.argmin(hats))
            assert abs(abs(v @ decomp.V[:, j]) - 1.0) <= 1e-9

    def test_normalization_sums(self):
        A = np.random.default_rng(4).standard_normal((9, 6))
        profile = build_spectral_profile(A, 6)
        for n in range(1, 7):
            normalized = profile.phi_eigs_at(n) / profile.vols[n]
            assert normalized.min() >= -1e-12
            assert normalized.max() <= 1.0 + 1e-10
            assert normalized.sum() == pytest.approx(n, rel=1e-10)


EXACT_RTOL = 1e-13
EXACT_SPECTRA = {
    "exp16": lambda: exponential_sv_schedule(16) ** 2,
    "exp32": lambda: exponential_sv_schedule(32) ** 2,
    "linear32": lambda: linear_sv_schedule(32) ** 2,
    "gauss400x60": lambda: singular_spectrum(
        np.random.default_rng(7).standard_normal((400, 60))).sigma_sq,
}


@pytest.fixture(scope="module", params=sorted(EXACT_SPECTRA))
def exact_case(request):
    """Production profile at every grade beside exact ESPs of the same doubles.

    hat_j - hat_i = (s_j - s_i) e_{n-1}(s without i, j) >= 0 when s_j >= s_i,
    so the smallest positive branch holds the minimum. Small spectra get the
    full exact leave-one-out table; N = 60 gets that branch and three others.
    """
    sigma_sq = np.asarray(EXACT_SPECTRA[request.param](), dtype=np.float64)
    N = sigma_sq.size
    profile = build_profile_from_decomposition(SpectralDecomposition(sigma_sq, np.eye(N)), N)
    last_positive = int(np.flatnonzero(sigma_sq > N * np.finfo(float).eps * sigma_sq[0])[-1])
    branches = range(N) if N <= 32 else sorted({0, 1, N // 2, last_positive})
    hats = {j: exact_hats(sigma_sq, j, N) for j in branches}
    return profile, exact_esp(sigma_sq, N), hats, last_positive


class TestExactESP:
    def test_vol_n(self, exact_case):
        profile, e, _, _ = exact_case
        assert max(rel_err(profile.vols[n], e[n]) for n in range(1, len(e))) <= EXACT_RTOL

    def test_transformed_values(self, exact_case):
        profile, e, hats, _ = exact_case
        worst = max(rel_err(profile.phi_eigs_at(n)[j], exact[n - 1])
                    for j, exact in hats.items() for n in range(1, len(e)))
        assert worst <= EXACT_RTOL

    def test_kappa_sq_and_sigma_hat_min(self, exact_case):
        profile, e, hats, last_positive = exact_case
        for n in range(1, len(e)):
            hat_min = min(hats[j][n - 1] for j in hats if j <= last_positive)
            assert hat_min == hats[last_positive][n - 1]
            assert rel_err(profile.kappa_sq_at(n), e[n] / hat_min) <= EXACT_RTOL
            assert rel_err(profile.sigma_hat_sq_min_at(n), hat_min) <= EXACT_RTOL

    def test_leave_one_out_identity(self, exact_case):
        # sum_j x_j e_{n-1}(x without j) = n e_n: each n-subset is counted n times
        profile, e, _, _ = exact_case
        for n in range(1, len(e)):
            assert rel_err(np.sum(profile.phi_eigs_at(n)), n * e[n]) <= EXACT_RTOL
