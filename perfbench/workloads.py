"""Workloads: seeded inputs, CLI argument lists, references and checks.

Every op is one `kacz` command line run in-process, on its own freshly
generated system, so no cross-call memo can turn an op into a lookup. A
pass is one instance of a workload's op list; pass `index` of seed `seed`
is always generated from the same random stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks
import reference


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list[str]
    steps: int
    check: Callable[[object, str], checks.Outcome]


class _Inputs:
    """Writes the inputs of one pass; files of op k are reused by op k of
    the next pass, so a run keeps one pass worth of files on disk."""

    def __init__(self, seed: int, index: int, salt: int, work_dir: str):
        self.rng = np.random.default_rng([seed & (2**64 - 1), index, salt])
        self.work_dir = work_dir
        self.count = 0

    def kacz_seed(self) -> str:
        return str(int(self.rng.integers(2**31)))

    def system(self, M: int, N: int):
        A = self.rng.standard_normal((M, N))
        x_star = self.rng.standard_normal(N)
        stem = os.path.join(self.work_dir, f"op{self.count}")
        self.count += 1
        # 17 significant digits round-trip, so kacz parses exactly A and x_star.
        np.savetxt(stem + "_A.csv", A, fmt="%.17g", delimiter=",")
        np.savetxt(stem + "_x.csv", x_star, fmt="%.17g")
        return A, x_star, stem + "_A.csv", stem + "_x.csv"


def _inv_kappa_sq(A: np.ndarray, n_list, sampler: str) -> dict[int, float]:
    table = reference.matrix_grade_table(A, max(n_list))
    if sampler == "volume":
        return {n: table.inv_kappa_sq(n) for n in n_list}
    return {
        n: reference.uniform_inv_kappa_sq(table, A.shape[0], n, reference.max_subset_volume(A, n))
        for n in n_list
    }


def ensemble_op(inputs: _Inputs, M: int, N: int, n_list: list[int], members: int,
                iters: int, sampler: str = "volume", mode: str = "undershoot",
                aligned: bool = False) -> Op:
    A, x_star, a_path, x_path = inputs.system(M, N)
    argv = ["ensemble", a_path, "--solution", x_path,
            "--n-list", ",".join(map(str, n_list)),
            "--members", str(members), "--iters", str(iters),
            "--sampler", sampler, "--mode", mode, "--seed", inputs.kacz_seed()]
    if aligned:
        argv.append("--align-vmin")
    check = partial(checks.check_ensemble, n_list=n_list, iters=iters,
                    inv_kappa_sq=_inv_kappa_sq(A, n_list, sampler),
                    x_star_sq=float(x_star @ x_star), aligned=aligned)
    kind = f"ensemble-{sampler}" + ("-aligned" if aligned else f"-{M}x{N}")
    return Op(kind, argv, members * iters * len(n_list), check)


def solve_op(inputs: _Inputs, M: int, N: int, n: int, mode: str, iters: int) -> Op:
    """One uniform pursuit (R = 1) run to exactly `iters` steps: a stop
    tolerance of 1e-300 squares to 0, so the step count never depends on
    the data."""
    A, x_star, a_path, x_path = inputs.system(M, N)
    argv = ["solve", a_path, "--solution", x_path, "--n", str(n), "--sampler", "uniform",
            "--mode", mode, "--max-iters", str(iters), "--tol", "1e-300",
            "--seed", inputs.kacz_seed()]
    check = partial(checks.check_solve, max_iters=iters, mode=mode,
                    inv_kappa_sq=_inv_kappa_sq(A, [n], "uniform")[n],
                    x_star_sq=float(x_star @ x_star))
    return Op(f"solve-uniform-{mode}", argv, iters, check)


def volumes_op(inputs: _Inputs, M: int, N: int, n: int) -> Op:
    A, _, a_path, _ = inputs.system(M, N)
    vol_ref = float(np.exp(reference.matrix_grade_table(A, n).log_vol[n - 1]))
    argv = ["volumes", a_path, "--n", str(n), "--brute-force"]
    return Op("volumes-brute-force", argv, 0, partial(checks.check_volumes, vol_ref=vol_ref))


def spectrum_op(inputs: _Inputs, M: int, N: int) -> Op:
    A, _, a_path, _ = inputs.system(M, N)
    check = partial(checks.check_spectrum, table=reference.matrix_grade_table(A, N), n_max=N)
    return Op(f"spectrum-{M}x{N}", ["spectrum", a_path], 0, check)


def pinned_sigma(N: int, decay: str) -> np.ndarray:
    """The README's pinned singular values: 2^-j, or 1 down to 0.1."""
    j = np.arange(N, dtype=np.float64)
    return 2.0 ** -j if decay == "exponential_sv" else 1.0 - j * (0.9 / (N - 1))


def transform_op(N: int, decay: str) -> Op:
    table = reference.grade_table(pinned_sigma(N, decay) ** 2, N)
    check = partial(checks.check_transform, table=table, n_list=list(range(1, N + 1)))
    return Op(f"transform-{decay}", ["transform", "--synthetic", str(N), "--decay", decay],
              0, check)


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int
    make_ops: Callable[[_Inputs], list[Op]]
    make_warmup: Callable[[_Inputs], list[Op]]

    def make_pass(self, seed: int, index: int, work_dir: str) -> list[Op]:
        return self.make_ops(_Inputs(seed, index, self.salt, work_dir))

    def warmup(self, work_dir: str) -> list[Op]:
        return self.make_warmup(_Inputs(0, 0, self.salt, work_dir))


#: The scripts' ensemble shape (scripts/*_ensemble.py): 15 members at
#: n = 1, 2, 3. They run 2,000 iterations; 300 keep the 100-iteration
#: burn-in and a 200-iteration gain window while an op stays near 1.5 s
#: (13,500 steps), so a run holds more than ten of them.
MEMBERS, ITERS = 15, 300
#: Acceptance criterion 08's wide aligned shape is 2,000 members x 20
#: iterations (120,000 steps, over 10 s per op). The benchmark keeps its
#: 20 iterations and a tenth of its members, 12,000 steps.
WIDE_MEMBERS, WIDE_ITERS = 200, 20
#: A single pursuit runs the scripts' 2,000 iterations.
SOLVE_ITERS = 2000


def _pursuit_volume(i: _Inputs) -> list[Op]:
    # Three paper-shape ensembles and one wide, short aligned ensemble.
    # The wide one is a quarter of the ops and near them in time, so
    # op_p50_s and op_tail_s stay in the paper-shape cluster.
    return [ensemble_op(i, 15, 10, [1, 2, 3], MEMBERS, ITERS) for _ in range(3)] + [
        ensemble_op(i, 15, 10, [1, 2, 3], WIDE_MEMBERS, WIDE_ITERS, aligned=True)]


def _pursuit_uniform(i: _Inputs) -> list[Op]:
    # Each of four ensembles is followed by two of the eight solves, so
    # the short solves are spread over the pass and meet the machine's slow
    # stretches as the ensembles do. Solves are two thirds of the ops, so
    # op_p50_s is a solve. A pass is about a quarter of a 44 s run, so a run
    # holds sixteen ensembles and op_tail_s (ten ops above it) is the sixth
    # fastest of them. With three passes it would be the second fastest of
    # twelve, which moves far more from run to run.
    solves = [(n, mode) for _ in range(2) for mode in ("undershoot", "overshoot")
              for n in (2, 3)]
    ops = []
    for k, mode in enumerate(("undershoot", "overshoot") * 2):
        ops.append(ensemble_op(i, 15, 10, [1, 2, 3], MEMBERS, ITERS, sampler="uniform", mode=mode))
        ops += [solve_op(i, 15, 10, n, m, SOLVE_ITERS) for n, m in solves[2 * k:2 * k + 2]]
    return ops


def _subset_enumeration(i: _Inputs) -> list[Op]:
    # C(60, 3) = 34,220 subsets per enumeration; pursuits run 150 steps.
    return [
        ensemble_op(i, 60, 10, [3], MEMBERS, iters=10),
        ensemble_op(i, 60, 10, [3], MEMBERS, iters=10, sampler="uniform"),
        volumes_op(i, 60, 10, 3),
    ]


def _spectral_scale(i: _Inputs) -> list[Op]:
    sizes = i.rng.integers(16, 33, size=2)
    return [
        spectrum_op(i, 400, 60),
        spectrum_op(i, 2000, 200),
        transform_op(int(sizes[0]), "exponential_sv"),
        transform_op(int(sizes[1]), "linear_sv"),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("pursuit-volume", 1, _pursuit_volume,
             lambda i: [ensemble_op(i, 6, 4, [1, 2], members=2, iters=5),
                        ensemble_op(i, 6, 4, [1, 2], members=2, iters=5, aligned=True)]),
    Workload("pursuit-uniform", 2, _pursuit_uniform,
             lambda i: [ensemble_op(i, 6, 4, [1, 2], members=2, iters=5, sampler="uniform"),
                        solve_op(i, 6, 4, 2, "overshoot", iters=5)]),
    Workload("subset-enumeration", 3, _subset_enumeration,
             lambda i: [ensemble_op(i, 8, 4, [2], members=2, iters=3),
                        ensemble_op(i, 8, 4, [2], members=2, iters=3, sampler="uniform"),
                        volumes_op(i, 8, 4, 2)]),
    Workload("spectral-scale", 4, _spectral_scale,
             lambda i: [spectrum_op(i, 8, 4), transform_op(4, "linear_sv")]),
)}
