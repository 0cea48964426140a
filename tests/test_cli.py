import subprocess
import sys

import numpy as np
import pytest

import kacz.spectral
from kacz.cli import main
from kacz.linsys import save_matrix, save_vector, singular_spectrum

from conftest import REFERENCE_A, REFERENCE_X_STAR, exact_esp, exact_hats, rel_err


@pytest.fixture
def reference_files(tmp_path):
    mpath = tmp_path / "A.csv"
    spath = tmp_path / "x.txt"
    save_matrix(str(mpath), REFERENCE_A)
    save_vector(str(spath), REFERENCE_X_STAR)
    return str(mpath), str(spath)


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["-o", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestSpectrum:
    def test_reference_table(self, reference_files, tmp_path):
        mpath, _ = reference_files
        code, text = run_cli(["spectrum", mpath, "--n-max", "2"], tmp_path)
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "n,vol_n,sigma_hat_sq_min,kappa_sq,lower_rate"
        assert lines[1] == "1,4,1,4,0.75"
        assert lines[2] == "2,3,3,1,0"

    def test_identity_kappa_column(self, tmp_path):
        mpath = tmp_path / "I4.csv"
        save_matrix(str(mpath), np.eye(4))
        code, text = run_cli(["spectrum", str(mpath), "--n-max", "4"], tmp_path)
        assert code == 0
        kappa = [float(row.split(",")[3]) for row in text.strip().split("\n")[1:]]
        assert kappa == pytest.approx([4.0, 2.0, 4.0 / 3.0, 1.0], rel=1e-12)

    def test_n_max_beyond_n_is_usage_error(self, reference_files, tmp_path):
        mpath, _ = reference_files
        code, _ = run_cli(["spectrum", mpath, "--n-max", "3"], tmp_path)
        assert code == 2

    def test_rank_deficient_is_numeric_error(self, tmp_path):
        mpath = tmp_path / "rank1.csv"
        save_matrix(str(mpath), np.outer([1.0, 2.0, 3.0], [1.0, 0.5]))
        code, _ = run_cli(["spectrum", str(mpath), "--n-max", "2"], tmp_path)
        assert code == 1

    def test_missing_file_is_io_error(self, tmp_path):
        code, _ = run_cli(["spectrum", str(tmp_path / "nope.csv"), "--n-max", "1"], tmp_path)
        assert code == 3


class TestTransform:
    def test_synthetic_exponential_n1_identity(self, tmp_path):
        code, text = run_cli(
            ["transform", "--synthetic", "8", "--decay", "exponential_sv", "--n-list", "1"],
            tmp_path,
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        sigma_sq = np.array([float(r[2]) for r in rows])
        normalized = np.array([float(r[4]) for r in rows])
        assert np.allclose(normalized, sigma_sq / sigma_sq.sum(), rtol=1e-12)

    def test_reference_grade_two_normalized_ones(self, reference_files, tmp_path):
        mpath, _ = reference_files
        code, text = run_cli(["transform", mpath, "--n-list", "2"], tmp_path)
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert [float(r[4]) for r in rows] == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_normalized_column_sums_to_n(self, tmp_path):
        code, text = run_cli(
            ["transform", "--synthetic", "8", "--decay", "linear_sv"], tmp_path
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        for n in range(1, 9):
            total = sum(float(r[4]) for r in rows if int(r[0]) == n)
            assert total == pytest.approx(n, abs=1e-10)

    def test_synthetic_needs_decay(self, tmp_path):
        code, _ = run_cli(["transform", "--synthetic", "8"], tmp_path)
        assert code == 2


class TestVolumes:
    def test_reference_brute_force_agreement(self, reference_files, tmp_path):
        mpath, _ = reference_files
        code, text = run_cli(["volumes", mpath, "--n", "2", "--brute-force"], tmp_path)
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "vol_n,vol_n_enum,rel_diff"
        vol, enum, rel = (float(tok) for tok in lines[1].split(","))
        assert vol == pytest.approx(3.0, abs=1e-10)
        assert enum == pytest.approx(3.0, abs=1e-10)
        assert rel <= 1e-10

    def test_identity_count(self, tmp_path):
        mpath = tmp_path / "I5.csv"
        save_matrix(str(mpath), np.eye(5))
        code, text = run_cli(["volumes", str(mpath), "--n", "3"], tmp_path)
        assert code == 0
        assert float(text.strip().split("\n")[1]) == pytest.approx(10.0, rel=1e-12)

    def test_rank_deficient_volume_is_zero(self, tmp_path):
        mpath = tmp_path / "rank2.csv"
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 3))
        save_matrix(str(mpath), A)
        code, text = run_cli(["volumes", str(mpath), "--n", "3", "--brute-force"], tmp_path)
        assert code == 0
        vol, enum, _ = (float(tok) for tok in text.strip().split("\n")[1].split(","))
        scale = float(np.abs(A).max()) ** 6
        assert abs(vol) <= 1e-10 * scale
        assert abs(enum) <= 1e-10 * scale


class TestSolve:
    def test_reference_one_iteration(self, reference_files, tmp_path):
        mpath, spath = reference_files
        code, text = run_cli(
            ["solve", mpath, "--solution", spath, "--n", "2", "--sampler", "volume",
             "--seed", "5"],
            tmp_path,
        )
        assert code == 0
        assert text.strip().split("\n")[0] == "iter,error_sq,gain_ratio,mu"
        assert "# iters_run=1 converged=true" in text

    def test_replay_byte_identical(self, reference_files, tmp_path):
        mpath, spath = reference_files
        args = ["solve", mpath, "--solution", spath, "--n", "1", "--seed", "7",
                "--max-iters", "60", "--tol", "1e-9"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second

    def test_uniform_mu_column_filled(self, reference_files, tmp_path):
        mpath, spath = reference_files
        code, text = run_cli(
            ["solve", mpath, "--solution", spath, "--n", "1", "--sampler", "uniform",
             "--seed", "3", "--max-iters", "30"],
            tmp_path,
        )
        assert code == 0
        data_rows = [r for r in text.strip().split("\n")[1:] if not r.startswith("#")]
        assert data_rows[0].endswith(",,")  # no gain, no mu at iteration 0
        assert all(r.split(",")[3] != "" for r in data_rows[1:])

    def test_n_zero_usage_error(self, reference_files, tmp_path):
        mpath, spath = reference_files
        code, _ = run_cli(["solve", mpath, "--solution", spath, "--n", "0"], tmp_path)
        assert code == 2

    def test_env_seed_fallback(self, reference_files, tmp_path, monkeypatch):
        mpath, spath = reference_files
        args = ["solve", mpath, "--solution", spath, "--n", "1", "--max-iters", "40"]
        monkeypatch.setenv("KACZ_SEED", "31")
        _, env_out = run_cli(args, tmp_path, "env.csv")
        monkeypatch.delenv("KACZ_SEED")
        _, flag_out = run_cli(args + ["--seed", "31"], tmp_path, "flag.csv")
        assert env_out == flag_out


class TestEnsemble:
    def test_row_shape(self, tmp_path):
        code, text = run_cli(
            ["ensemble", "--synthetic", "15", "10", "--n-list", "1,2,3",
             "--members", "3", "--iters", "10", "--seed", "2"],
            tmp_path,
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "n,iter,mean_gain_ratio,mean_log_error,bound_lower_factor,bound_upper_factor"
        assert len(lines) == 1 + 3 * 10

    def test_reference_first_gain_zero(self, reference_files, tmp_path):
        mpath, spath = reference_files
        code, text = run_cli(
            ["ensemble", mpath, "--solution", spath, "--n-list", "2",
             "--members", "5", "--iters", "3", "--seed", "1"],
            tmp_path,
        )
        assert code == 0
        first = text.strip().split("\n")[1].split(",")
        assert float(first[2]) == pytest.approx(0.0, abs=1e-10)

    def test_needs_solution_or_synthetic(self, reference_files, tmp_path):
        mpath, _ = reference_files
        code, _ = run_cli(["ensemble", mpath, "--n-list", "1"], tmp_path)
        assert code == 2

    def test_align_vmin_runs(self, tmp_path):
        code, text = run_cli(
            ["ensemble", "--synthetic", "8", "5", "--n-list", "1", "--members", "4",
             "--iters", "5", "--seed", "3", "--align-vmin"],
            tmp_path,
        )
        assert code == 0
        assert len(text.strip().split("\n")) == 6


class TestSpectralScalarRegressions:
    """Commands that the alternating-polynomial path got wrong."""

    def test_exponential_transform_normalized_at_most_one(self, tmp_path):
        code, text = run_cli(
            ["transform", "--synthetic", "16", "--decay", "exponential_sv"], tmp_path
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert len(rows) == 16 * 16
        assert max(float(r[4]) for r in rows) <= 1.0

    @pytest.mark.parametrize("decay", ["linear_sv", "exponential_sv"])
    @pytest.mark.parametrize("N", [16, 32])
    def test_normalized_never_above_one(self, tmp_path, decay, N):
        """sigma_hat_j^2 / vol_n is at most 1, and exactly 1 at n = N."""
        code, text = run_cli(["transform", "--synthetic", str(N), "--decay", decay], tmp_path)
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert len(rows) == N * N
        assert max(float(r[4]) for r in rows) <= 1.0
        assert [r[4] for r in rows if int(r[0]) == N] == ["1"] * N

    def test_gaussian_400x60_spectrum_matches_exact(self, tmp_path):
        A = np.random.default_rng(11).standard_normal((400, 60))
        mpath = tmp_path / "gauss.csv"
        save_matrix(str(mpath), A)
        code, text = run_cli(["spectrum", str(mpath)], tmp_path)
        assert code == 0
        sigma_sq = singular_spectrum(A).sigma_sq
        e = exact_esp(sigma_sq, 60)
        # the smallest branch holds the minimum transformed value
        hat_min = exact_hats(sigma_sq, 59, 60)
        rows = [[float(tok) for tok in line.split(",")] for line in text.strip().split("\n")[1:]]
        assert len(rows) == 60
        for n, vol, hat, kappa, _ in rows:
            n = int(n)
            assert rel_err(vol, e[n]) <= 1e-13
            assert rel_err(hat, hat_min[n - 1]) <= 1e-13
            assert rel_err(kappa, e[n] / hat_min[n - 1]) <= 1e-13

    def test_overflowing_grade_fails_without_nan(self, tmp_path, capsys):
        # sigma^2 = 2^200 eight times: vol_n = C(8, n) 2^(200 n) first
        # leaves the double range at n = 6.
        mpath = tmp_path / "big.csv"
        save_matrix(str(mpath), 2.0**100 * np.eye(8))
        code = main(["spectrum", str(mpath)])
        captured = capsys.readouterr()
        assert code == 1
        assert "nan" not in captured.out.lower()
        assert "grade 6" in captured.err

    def test_no_command_reaches_the_trace_recursion(self, reference_files, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("production path reached the trace recursion")

        monkeypatch.setattr(kacz.spectral, "_phi_levels", forbidden)
        monkeypatch.setattr(kacz.spectral, "vol_sequence", forbidden)
        mpath, spath = reference_files
        commands = [
            ["spectrum", mpath],
            ["transform", mpath],
            ["transform", "--synthetic", "6", "--decay", "linear_sv"],
            ["volumes", mpath, "--n", "2", "--brute-force"],
            ["solve", mpath, "--solution", spath, "--n", "2", "--max-iters", "5"],
            ["ensemble", "--synthetic", "6", "4", "--n-list", "1,2", "--members", "2",
             "--iters", "5", "--align-vmin"],
            ["ensemble", "--synthetic", "6", "4", "--n-list", "2", "--members", "2",
             "--iters", "5", "--sampler", "uniform"],
        ]
        for args in commands:
            assert run_cli(args, tmp_path)[0] == 0, args


class TestEntryPoint:
    def test_module_invocation(self, reference_files, tmp_path):
        mpath, _ = reference_files
        result = subprocess.run(
            [sys.executable, "-m", "kacz", "spectrum", mpath, "--n-max", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("n,vol_n")

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "kacz", "spectrum"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
