"""Command-line front end emitting CSV.

Subcommands: spectrum, transform, volumes, solve, ensemble. All numeric
output uses 17 significant digits; every command is deterministic given
its flags (KACZ_SEED provides a default seed). Exit codes: 0 success,
1 numeric failure, 2 usage, 3 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import NumericError, ParseError
from .linsys import (
    SpectralDecomposition,
    _fmt,
    exponential_sv_schedule,
    linear_sv_schedule,
    load_matrix,
    load_system,
    singular_spectrum,
    synth_system,
)
from .solver import PursuitConfig, run_ensemble, run_pursuit
from .spectral import (
    brute_force_vol,
    build_profile_from_decomposition,
    build_spectral_profile,
    volume_sum,
)

EXIT_NUMERIC = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad n list {text!r}: expected comma-separated integers") from exc
    if not values or any(n < 1 for n in values):
        raise ValueError(f"bad n list {text!r}: entries must be positive")
    return values


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("KACZ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"KACZ_SEED must be an integer, got {env!r}") from exc
    return 0


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_profile_source(args) -> SpectralDecomposition:
    if args.synthetic is not None:
        if args.decay is None:
            raise ValueError("--synthetic needs --decay linear_sv or exponential_sv")
        N = args.synthetic
        schedule = (
            linear_sv_schedule(N) if args.decay == "linear_sv" else exponential_sv_schedule(N)
        )
        return SpectralDecomposition(sigma_sq=schedule**2, V=np.eye(N))
    if args.matrix is None:
        raise ValueError("need a matrix file or --synthetic N --decay ...")
    return singular_spectrum(load_matrix(args.matrix))


def cmd_spectrum(args) -> None:
    A = load_matrix(args.matrix)
    N = A.shape[1]
    if A.shape[0] < N:
        raise ValueError(f"matrix must have at least as many rows as columns, got {A.shape}")
    n_max = args.n_max if args.n_max is not None else N
    if not 1 <= n_max <= N:
        raise ValueError(f"--n-max must be in [1, N={N}], got {n_max}")
    profile = build_spectral_profile(A, n_max)
    lines = ["n,vol_n,sigma_hat_sq_min,kappa_sq,lower_rate"]
    for n in range(1, n_max + 1):
        kappa = profile.kappa_sq_at(n)
        lines.append(
            f"{n},{_fmt(profile.vols[n])},{_fmt(profile.sigma_hat_sq_min_at(n))},"
            f"{_fmt(kappa)},{_fmt(1.0 - 1.0 / kappa)}"
        )
    _emit(lines, args.output)


def cmd_transform(args) -> None:
    decomp = _load_profile_source(args)
    N = decomp.sigma_sq.shape[0]
    n_list = _parse_n_list(args.n_list) if args.n_list else list(range(1, N + 1))
    if any(n > N for n in n_list):
        raise ValueError(f"n list entries must not exceed N={N}")
    profile = build_profile_from_decomposition(decomp, max(n_list))
    lines = ["n,j,sigma_sq,sigma_hat_sq,normalized"]
    for n in n_list:
        hats, normalized = profile.phi_eigs_at(n), profile.normalized_at(n)
        for j in range(N):
            lines.append(
                f"{n},{j + 1},{_fmt(decomp.sigma_sq[j])},{_fmt(hats[j])},"
                f"{_fmt(normalized[j])}"
            )
    _emit(lines, args.output)


def cmd_volumes(args) -> None:
    A = load_matrix(args.matrix)
    if not 1 <= args.n <= A.shape[1]:
        raise ValueError(f"--n must be in [1, N={A.shape[1]}], got {args.n}")
    vol_n = volume_sum(singular_spectrum(A).sigma_sq, args.n)
    if args.brute_force:
        enum = brute_force_vol(A, args.n)
        diff = abs(vol_n - enum)
        rel = diff / enum if enum > 0 else diff
        lines = ["vol_n,vol_n_enum,rel_diff", f"{_fmt(vol_n)},{_fmt(enum)},{_fmt(rel)}"]
    else:
        lines = ["vol_n", f"{_fmt(vol_n)}"]
    _emit(lines, args.output)


def _pursuit_config(args, n: int, track: str, seed: int, **overrides) -> PursuitConfig:
    max_iters = overrides.pop("max_iters", None)
    stop_tol = overrides.pop("stop_tol", None)
    return PursuitConfig(
        n=n,
        sampler=args.sampler,
        relax_mode=args.mode,
        v_sq_max_mode=args.vmax_mode,
        master_seed=seed,
        max_iters=args.max_iters if max_iters is None else max_iters,
        stop_tol=args.tol if stop_tol is None else stop_tol,
        track=track,
        **overrides,
    )


def cmd_solve(args) -> None:
    system = load_system(args.matrix, rhs_path=args.rhs, solution_path=args.solution)
    if not 1 <= args.n <= system.N:
        raise ValueError(f"--n must be in [1, N={system.N}], got {args.n}")
    track = "error_to_solution" if system.x_star is not None else "residual"
    seed = _resolve_seed(args.seed)
    trace = run_pursuit(system, _pursuit_config(args, args.n, track, seed))
    lines = ["iter,error_sq,gain_ratio,mu"]
    for k in range(trace.iters_run + 1):
        gain = _fmt(trace.gain_ratios[k - 1]) if k > 0 else ""
        mu = _fmt(trace.mus[k - 1]) if (k > 0 and trace.mus is not None) else ""
        lines.append(f"{k},{_fmt(trace.errors_sq[k])},{gain},{mu}")
    lines.append(f"# iters_run={trace.iters_run} converged={'true' if trace.converged else 'false'}")
    _emit(lines, args.output)


def cmd_ensemble(args) -> None:
    seed = _resolve_seed(args.seed)
    if args.synthetic is not None:
        M, N = args.synthetic
        system = synth_system(M, N, seed=seed, decay=args.decay or "gaussian")
    else:
        if args.matrix is None:
            raise ValueError("ensemble needs a matrix file or --synthetic M N")
        system = load_system(args.matrix, rhs_path=args.rhs, solution_path=args.solution)
        if system.x_star is None:
            raise ValueError("ensemble needs a known solution (--solution)")
    n_list = _parse_n_list(args.n_list)
    if any(n > system.N for n in n_list):
        raise ValueError(f"n list entries must not exceed N={system.N}")
    lines = ["n,iter,mean_gain_ratio,mean_log_error,bound_lower_factor,bound_upper_factor"]
    for n in n_list:
        x0 = None
        if args.align_vmin:
            profile = build_spectral_profile(system.A, n)
            x0 = system.x_star + profile.v_min_at(n)
        config = _pursuit_config(
            args, n, "error_to_solution", seed,
            max_iters=args.iters, stop_tol=1e-300, x0=x0,
        )
        report = run_ensemble(system, config, members=args.members)
        for k in range(1, args.iters + 1):
            lines.append(
                f"{n},{k},{_fmt(report.mean_gain_ratio[k - 1])},"
                f"{_fmt(report.mean_log10_error[k])},"
                f"{_fmt(report.lower_factor)},{_fmt(report.upper_factor)}"
            )
    _emit(lines, args.output)


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sampler", choices=["volume", "uniform"], default="volume")
    p.add_argument("--mode", choices=["undershoot", "overshoot"], default="undershoot",
                   help="relaxation branch for the uniform sampler")
    p.add_argument("--vmax-mode", choices=["exact", "running"], default="exact",
                   help="how the uniform sampler obtains v^2_max")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: KACZ_SEED env var, else 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kacz",
        description="Multi-row randomized Kaczmarz solvers and rate experiments (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="grade condition-number table")
    p.add_argument("matrix")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("transform", help="transformed singular-value curves")
    p.add_argument("matrix", nargs="?", default=None)
    p.add_argument("--synthetic", type=int, metavar="N", default=None,
                   help="use a pinned synthetic spectrum of size N instead of a file")
    p.add_argument("--decay", choices=["linear_sv", "exponential_sv"], default=None)
    p.add_argument("--n-list", default=None, help="comma-separated grades (default 1..N)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("volumes", help="sum of squared subset volumes")
    p.add_argument("matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_volumes)

    p = sub.add_parser("solve", help="run one pursuit and print its trace")
    p.add_argument("matrix")
    p.add_argument("--rhs", default=None)
    p.add_argument("--solution", default=None)
    p.add_argument("--n", type=int, required=True)
    _add_sampler_flags(p)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("ensemble", help="seed-split ensemble with rate bounds")
    p.add_argument("matrix", nargs="?", default=None)
    p.add_argument("--rhs", default=None)
    p.add_argument("--solution", default=None)
    p.add_argument("--synthetic", type=int, nargs=2, metavar=("M", "N"), default=None)
    p.add_argument("--decay", choices=["gaussian", "linear_sv", "exponential_sv"], default=None)
    p.add_argument("--n-list", required=True)
    p.add_argument("--members", type=int, default=15)
    p.add_argument("--iters", type=int, default=2000)
    _add_sampler_flags(p)
    p.add_argument("--align-vmin", action="store_true",
                   help="start every member at x_star + v_min for the grade")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_ensemble)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"kacz: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"kacz: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError) as exc:
        print(f"kacz: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
