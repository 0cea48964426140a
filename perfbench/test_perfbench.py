"""Self-tests of the benchmark: smoke runs, traced counts, negative checks.

    python -m pytest perfbench

They are not part of the library's test suite (pytest's testpaths is
tests/). They take about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, pinned_sigma  # noqa: E402


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(tmp_dir, *args):
    return subprocess.run([sys.executable, os.path.join(tmp_dir, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=tmp_dir, timeout=180)


def test_benchmark_json_names_match_the_code():
    bench = _bench_json()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert all(w["name"] in WORKLOADS for w in bench["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_tiny_ops_pass(name, tmp_path):
    """Each workload's op kinds at tiny size (its warm-up list) pass."""
    for op in WORKLOADS[name].warmup(str(tmp_path)):
        result = run.run_op(op)
        assert result.ok, (op.argv, result.outcome.problems)


def test_scaled_time_uses_the_calibrations_beside_the_op(tmp_path, monkeypatch):
    calibrations = iter([0.02, 0.06, 0.04])  # before op 1, after op 1, after op 2
    monkeypatch.setattr(run, "calibration_seconds", lambda: next(calibrations))
    first, second = run.run_calibrated(WORKLOADS["pursuit-volume"].warmup(str(tmp_path)))
    assert first.ref_seconds == pytest.approx(first.seconds * run.CAL_REF_S / 0.04)
    assert second.ref_seconds == pytest.approx(second.seconds * run.CAL_REF_S / 0.05)


def test_passes_are_seeded(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = WORKLOADS["pursuit-volume"].make_pass(7, 2, str(tmp_path / "a"))
    with open(a[0].argv[1]) as fh:
        first = fh.read()
    b = WORKLOADS["pursuit-volume"].make_pass(7, 2, str(tmp_path / "b"))
    with open(b[0].argv[1]) as fh:
        assert fh.read() == first
    assert [op.argv[-1] for op in a] == [op.argv[-1] for op in b]


@pytest.fixture
def tmp_dir(tmp_path):
    """A copy of BENCHMARK.json and perfbench/ with nothing else."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline.json"))
    return str(tmp_path)


def test_without_sources_the_run_fails_without_a_result(tmp_dir):
    proc = _run(tmp_dir, "--workload", "pursuit-volume", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name, geometry_per_step, below_per_step, subsets_per_op", [
    # 15x10, grades 1..3: volume enumerates each grade once (15 + 105 + 455);
    # uniform enumerates grades 1..n for vol_max and grade n again for
    # v_sq_max (1,285 per ensemble op), and a solve enumerates its grade.
    ("pursuit-volume", 1.0, 0.0, (3 * 575 + 575) / 4),
    ("pursuit-uniform", 2.0, (4 * 13500 * 2 + 4 * 2000 * 2 + 4 * 2000 * 3) / 70000,
     (4 * 1285 + 4 * 105 + 4 * 455) / 12),
])
def test_traced_counts(name, geometry_per_step, below_per_step, subsets_per_op, tmp_dir):
    os.symlink(os.path.join(ROOT, "src"), os.path.join(tmp_dir, "src"))
    proc = _run(tmp_dir, "--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["projectors.subset_geometry.calls_per_step"] == geometry_per_step
    assert metrics["projectors.make_row_subset.calls_per_step"] == 1.0
    assert metrics["rng.random.calls_per_step"] == (1.0 if name == "pursuit-volume" else 0.0)
    assert metrics["rng.below.calls_per_step"] == pytest.approx(below_per_step, rel=1e-15)
    assert metrics["sampling.subsets_enumerated_per_op"] == subsets_per_op
    assert math.isfinite(metrics["trace.overhead_frac"])  # machine noise can make it < 0


# Negative tests: each check flags corrupted output.

def test_perturbed_vol_n_is_flagged():
    A = np.random.default_rng(0).standard_normal((8, 4))
    vol = math.exp(reference.matrix_grade_table(A, 2).log_vol[1])
    good = f"vol_n,vol_n_enum,rel_diff\n{vol!r},{vol!r},0\n"
    assert checks.check_volumes(0, good, vol).ok
    bad_enum = vol * (1 + 1e-6)
    bad = f"vol_n,vol_n_enum,rel_diff\n{vol!r},{bad_enum!r},{abs(vol - bad_enum) / bad_enum!r}\n"
    assert not checks.check_volumes(0, bad, vol).ok


def _spectrum_text(table, n_max, corrupt=None):
    lines = [checks.SPECTRUM_HEADER]
    for n in range(1, n_max + 1):
        kappa = math.exp(table.log_kappa_sq(n))
        row = [str(n), repr(math.exp(table.log_vol[n - 1])),
               repr(math.exp(table.log_hat_min(n))), repr(kappa), repr(1 - 1 / kappa)]
        if n == corrupt:
            row[2] = "inf"
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_inf_with_exit_0_is_flagged():
    A = np.random.default_rng(1).standard_normal((12, 5))
    table = reference.matrix_grade_table(A, 5)
    assert checks.check_spectrum(0, _spectrum_text(table, 5), table, 5).ok
    assert not checks.check_spectrum(0, _spectrum_text(table, 5, corrupt=3), table, 5).ok
    # exit 1 is accepted only when a true value does not fit in a double
    assert not checks.check_spectrum(1, "", table, 5).ok
    huge = reference.grade_table(np.full(200, 1e4), 200)
    assert checks.check_spectrum(1, "", huge, 200).ok


def test_transform_normalized_above_one_is_flagged():
    table = reference.grade_table(pinned_sigma(6, "linear_sv") ** 2, 6)
    rows = [checks.TRANSFORM_HEADER]
    for n in range(1, 7):
        for j in range(6):
            hat = math.exp(table.log_hat[n - 1, j])
            rows.append(f"{n},{j + 1},{float(table.sigma_sq[j])!r},{hat!r},"
                        f"{hat / math.exp(table.log_vol[n - 1])!r}")
    good = "\n".join(rows) + "\n"
    assert checks.check_transform(0, good, table, list(range(1, 7))).ok
    bad = good.replace(rows[-1], rows[-1].rsplit(",", 1)[0] + ",1.2086")
    assert not checks.check_transform(0, bad, table, list(range(1, 7))).ok


def _ensemble_text(iters, base, log_err, gains):
    lines = [checks.ENSEMBLE_HEADER]
    for k in range(1, iters + 1):
        lines.append(f"1,{k},{float(gains[k - 1])!r},{float(log_err[k - 1])!r},"
                     f"{base!r},{base * base!r}")
    return "\n".join(lines) + "\n"


def test_nan_row_outside_the_documented_case_is_flagged():
    iters, base = 200, 0.99
    gains = np.random.default_rng(2).uniform(0.97, 0.99, iters)
    log_err = np.log10(20.0) + np.cumsum(np.log10(gains))
    check = dict(n_list=[1], iters=iters, inv_kappa_sq={1: 1 - base}, x_star_sq=10.0)
    assert checks.check_ensemble(0, _ensemble_text(iters, base, log_err, gains), **check).ok
    # NaN while the mean log error is still far above the precision cutoff
    gains[150:] = np.nan
    outcome = checks.check_ensemble(0, _ensemble_text(iters, base, log_err, gains), **check)
    assert not outcome.ok and outcome.nan_rows == 50
    # the documented case: every member below the cutoff before the NaN rows
    log_err[149:] = -40.0
    outcome = checks.check_ensemble(0, _ensemble_text(iters, base, log_err, gains), **check)
    assert outcome.ok and outcome.nan_rows == 50


def test_gain_above_the_ceiling_is_flagged():
    iters, base = 300, 0.95
    gains = np.full(iters, 0.99) + np.random.default_rng(3).normal(0, 1e-3, iters)
    log_err = np.log10(20.0) + np.cumsum(np.log10(gains))
    text = _ensemble_text(iters, base, log_err, gains)
    outcome = checks.check_ensemble(0, text, n_list=[1], iters=iters,
                                    inv_kappa_sq={1: 1 - base}, x_star_sq=10.0)
    assert not outcome.ok and "above" in outcome.problems[0]


def _solve_text(err, mu):
    lines = [f"# iters_run={err.size - 1} converged=false", checks.SOLVE_HEADER,
             f"0,{float(err[0])!r},,"]
    for k in range(1, err.size):
        lines.append(f"{k},{float(err[k])!r},{float(err[k] / err[k - 1])!r},{mu!r}")
    return "\n".join(lines) + "\n"


def test_error_growth_above_rounding_is_flagged():
    iters = 400
    err = 10.0 * 0.8 ** np.arange(iters + 1.0)
    check = dict(max_iters=iters, mode="overshoot", inv_kappa_sq=0.05, x_star_sq=10.0)
    assert checks.check_solve(0, _solve_text(err, 1.5), **check).ok
    grown = err.copy()
    grown[31:] *= 1.0 / 0.8 * (1 + 1e-6)  # step 31 raises error_sq ~1e-2 by 1e-6
    outcome = checks.check_solve(0, _solve_text(grown, 1.5), **check)
    assert outcome.problems == ["error_sq increased during a step with mu in [0, 2]"]
    # 0.1% growth at 5x the precision cutoff is rounding, as in a real run
    near = err.copy()
    k = int(np.argmax(near < 5.5e-27))
    near[k + 1:] *= 1.001 / 0.8
    assert checks.check_solve(0, _solve_text(near, 1.97), **check).ok
