"""Output checks for every kind of op the benchmark runs.

Each check takes the exit code and the CSV text an op printed, plus
benchmark-side references, and returns an Outcome whose problems list is
empty when the op passed. An op fails on a wrong exit code, on output that
does not parse, and on any value outside its stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from reference import EPS, GradeTable, representable

#: The README's precision cutoff: members whose squared error falls below
#: PRECISION_CUTOFF * (1 + ||x_star||^2) leave the gain statistics.
PRECISION_CUTOFF = 1e-28
#: Iterations discarded before comparing empirical gains with the bracket.
BURN_IN = 100
#: Fewest usable rows for a bracket test; fewer rows are not tested.
MIN_WINDOW = 10
#: Standard errors of slack on each side of the bracket (see bracket_problem).
BRACKET_Z = 6.0
#: Relative tolerance of printed rate factors against the reference kappa^2.
BOUND_RTOL = 1e-8
#: Relative tolerance of spectral values and enumerated volume sums.
VALUE_RTOL = 1e-8
#: Rounding slack of one step, in units of eps: see check_solve.
STEP_ROUNDING = 16.0
#: Level of mean log10 squared error that defines iters_to_tol.
TOL_LEVEL = -1.0

ENSEMBLE_HEADER = "n,iter,mean_gain_ratio,mean_log_error,bound_lower_factor,bound_upper_factor"
SOLVE_HEADER = "iter,error_sq,gain_ratio,mu"
VOLUMES_HEADER = "vol_n,vol_n_enum,rel_diff"
SPECTRUM_HEADER = "n,vol_n,sigma_hat_sq_min,kappa_sq,lower_rate"
TRANSFORM_HEADER = "n,j,sigma_sq,sigma_hat_sq,normalized"


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    nan_rows: int = 0
    iters_to_tol: dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


class _Malformed(Exception):
    pass


def _table(text: str, header: str, columns: int) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != header:
        raise _Malformed(f"header is {lines[0] if lines else None!r}, expected {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != columns:
            raise _Malformed(f"row {','.join(row)!r} has {len(row)} fields")
    return rows


def _num(token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise _Malformed(f"not a number: {token!r}") from exc


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def _cutoff(x_star_sq: float) -> float:
    return PRECISION_CUTOFF * (1.0 + x_star_sq)


def bracket_problem(gains: np.ndarray, base: float, floor: float | None) -> str | None:
    """Mean gain over a window against the rate bracket.

    E[gain | error] <= base = 1 - 1/kappa^2 holds for every error, so the
    ceiling is a theorem and is always tested. The floor base^2 is the
    paper's asymptotic rate from an aligned start; it is tested only when
    the caller passes it (see check_ensemble). Consecutive gains of one
    member are correlated, so the standard error comes from ten batch
    means of contiguous rows; it shrinks as 1/sqrt(members * rows). Six
    standard errors keep a false alarm below about 1e-4 per op even with
    the heavy tails of a 10-batch t statistic (t_9 > 6 has p ~ 1e-4). In a
    calibration over 25 seeds (525 windows), the closest window sat 1.3
    standard errors below the ceiling, the closest aligned one 2.4 above
    the floor.
    """
    if gains.size < MIN_WINDOW:
        return None
    batches = np.array([b.mean() for b in np.array_split(gains, 10)])
    se = float(batches.std(ddof=1)) / math.sqrt(batches.size)
    g = float(gains.mean())
    if g > base + BRACKET_Z * se:
        return f"mean gain {g:.6g} above 1 - 1/kappa^2 = {base:.6g} + {BRACKET_Z:g}*{se:.3g}"
    if floor is not None and g < floor - BRACKET_Z * se:
        return f"mean gain {g:.6g} below (1 - 1/kappa^2)^2 = {floor:.6g} - {BRACKET_Z:g}*{se:.3g}"
    return None


def check_ensemble(code, text: str, n_list: list[int], iters: int,
                   inv_kappa_sq: dict[int, float], x_star_sq: float,
                   aligned: bool = False) -> Outcome:
    """kacz ensemble: layout, reference rate factors, NaN rule, gain bracket.

    inv_kappa_sq holds the reference 1/kappa^2 per grade, with vol_max in
    place of vol_n for the uniform sampler."""
    out = Outcome()
    if code != 0:
        out.problems.append(f"exit {code}")
        return out
    try:
        rows = _table(text, ENSEMBLE_HEADER, 6)
        if len(rows) != iters * len(n_list):
            raise _Malformed(f"{len(rows)} rows, expected {iters * len(n_list)}")
        values = np.array([[_num(tok) for tok in row] for row in rows])
    except _Malformed as exc:
        out.problems.append(str(exc))
        return out
    cutoff_log = math.log10(_cutoff(x_star_sq))
    for g, n in enumerate(n_list):
        block = values[g * iters:(g + 1) * iters]
        if not (np.all(block[:, 0] == n) and np.array_equal(block[:, 1], np.arange(1, iters + 1))):
            out.problems.append(f"n={n}: rows are not iterations 1..{iters} of grade {n}")
            continue
        gain, log_err, lower, upper = block[:, 2], block[:, 3], block[:, 4], block[:, 5]
        if not (np.all(np.isfinite(log_err)) and np.all(np.isfinite(lower))
                and np.all(np.isfinite(upper))):
            out.problems.append(f"n={n}: non-finite mean_log_error or bound column")
            continue
        if np.ptp(lower) or np.ptp(upper):
            out.problems.append(f"n={n}: bound columns vary with iter")
        lo, up = float(lower[0]), float(upper[0])
        if not _close(1.0 - lo, inv_kappa_sq[n], BOUND_RTOL):
            out.problems.append(f"n={n}: 1 - bound_lower_factor = {1.0 - lo!r}, "
                                f"reference 1/kappa^2 = {inv_kappa_sq[n]!r}")
        if not _close(up, lo * lo, 1e-12):
            out.problems.append(f"n={n}: bound_upper_factor {up!r} != bound_lower_factor^2")
        nan = np.isnan(gain)
        out.nan_rows += int(nan.sum())
        if np.any(np.isinf(gain)):
            out.problems.append(f"n={n}: infinite mean_gain_ratio")
        if nan.any():
            first = int(np.argmax(nan))
            # A NaN gain at iteration k means no member was above the
            # cutoff at k-1, so the mean log error there is below it too.
            before = log_err[first - 1] if first > 0 else math.inf
            if not nan[first:].all() or before > cutoff_log:
                out.problems.append(f"n={n}: NaN mean_gain_ratio at iter {first + 1} "
                                    f"before every member passed the precision cutoff")
        # From a random start the error is still leaving fast directions
        # after the burn-in, so short runs beat the asymptotic floor (3 of
        # 75 paper-shape volume ops at n=1 did); an aligned start has no
        # such transient, so only aligned ops are held to the floor.
        window = gain[(0 if aligned else BURN_IN):]
        problem = bracket_problem(window[np.isfinite(window)], lo, up if aligned else None)
        if problem:
            out.problems.append(f"n={n}: {problem}")
        if not aligned:
            crossed = np.nonzero(log_err <= TOL_LEVEL)[0]
            out.iters_to_tol[n] = int(crossed[0]) + 1 if crossed.size else iters + 1
    return out


def check_solve(code, text: str, max_iters: int, mode: str, inv_kappa_sq: float,
                x_star_sq: float) -> Outcome:
    """kacz solve run to max_iters: trace layout, mu range, monotone error,
    gain column consistency and the gain bracket for a single member."""
    out = Outcome()
    if code != 0:
        out.problems.append(f"exit {code}")
        return out
    summary = [line for line in text.splitlines() if line.startswith("# ")]
    if summary != [f"# iters_run={max_iters} converged=false"]:
        out.problems.append(f"summary line {summary!r}")
    try:
        rows = _table(text, SOLVE_HEADER, 4)
        if len(rows) != max_iters + 1 or rows[0][2:] != ["", ""]:
            raise _Malformed(f"{len(rows)} rows, expected {max_iters + 1} starting with iter 0")
        iters = np.array([_num(r[0]) for r in rows])
        err = np.array([_num(r[1]) for r in rows])
        gain = np.array([_num(r[2]) for r in rows[1:]])
        mu = np.array([_num(r[3]) for r in rows[1:]])
    except _Malformed as exc:
        out.problems.append(str(exc))
        return out
    if not np.array_equal(iters, np.arange(max_iters + 1)):
        out.problems.append("iter column is not 0..max_iters")
    if not (np.all(np.isfinite(err)) and np.all(err >= 0.0)):
        out.problems.append("non-finite or negative error_sq")
        return out
    lo_mu, hi_mu = (0.0, 1.0) if mode == "undershoot" else (1.0, 2.0)
    if not np.all((mu >= lo_mu) & (mu <= hi_mu)):
        out.problems.append(f"mu outside [{lo_mu}, {hi_mu}] for {mode}")
    live = err[:-1] >= _cutoff(x_star_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = err[1:] / err[:-1]
    if not np.allclose(gain[live], expected[live], rtol=1e-12, atol=0.0):
        out.problems.append("gain_ratio differs from error_sq[k] / error_sq[k-1]")
    # A step with mu in [0, 2] cannot raise the error in exact arithmetic.
    # Rounding moves each x_i by a few eps |x_i|, so the computed error
    # vector moves by at most about STEP_ROUNDING eps sqrt(1 + ||x*||^2),
    # and its square by twice that times ||e||. Near the cutoff an
    # overshoot step with mu near 2 barely shrinks the error, and that
    # slack is what lets it grow (by 0.1% at 5x the cutoff in 2,000-step
    # runs). At error_sq 1e-6 and ||x*||^2 = 10 the slack is 2e-11 relative.
    prev = err[:-1][live]
    slack = STEP_ROUNDING * EPS * (prev + 2.0 * np.sqrt(prev * (1.0 + x_star_sq)))
    if np.any(err[1:][live] > prev + slack):
        out.problems.append("error_sq increased during a step with mu in [0, 2]")
    # The uniform bound uses vol_max, which makes it loose: uniform runs
    # routinely beat its square, so only the ceiling is tested.
    window = gain[BURN_IN:][live[BURN_IN:]]
    problem = bracket_problem(window, 1.0 - inv_kappa_sq, None)
    if problem:
        out.problems.append(problem)
    return out


def check_volumes(code, text: str, vol_ref: float) -> Outcome:
    """kacz volumes --brute-force: recursion and enumeration sums against
    the ESP reference (Cauchy-Binet)."""
    out = Outcome()
    if code != 0:
        out.problems.append(f"exit {code}")
        return out
    try:
        rows = _table(text, VOLUMES_HEADER, 3)
        if len(rows) != 1:
            raise _Malformed(f"{len(rows)} rows, expected 1")
        vol, enum, rel = (_num(tok) for tok in rows[0])
    except _Malformed as exc:
        out.problems.append(str(exc))
        return out
    for name, value in (("vol_n", vol), ("vol_n_enum", enum)):
        if not _close(value, vol_ref, VALUE_RTOL):
            out.problems.append(f"{name} = {value!r}, reference {vol_ref!r}")
    # The CLI prints |vol_n - vol_n_enum| / vol_n_enum, or the plain
    # difference when the enumerated sum is 0.
    expected_rel = abs(vol - enum) / enum if enum > 0 else abs(vol - enum)
    if not (math.isfinite(rel) and abs(rel - expected_rel) <= 1e-12):
        out.problems.append(f"rel_diff {rel!r} inconsistent with its row")
    return out


def _unrepresentable(table: GradeTable, grades) -> bool:
    return any(
        not (representable(float(table.log_vol[n - 1])) and representable(table.log_hat_min(n))
             and representable(table.log_kappa_sq(n)))
        for n in grades
    )


def _exit_rule(code, table: GradeTable, grades, out: Outcome) -> bool:
    """True when the op's exit code settles the outcome without reading rows."""
    if code == 1 and _unrepresentable(table, grades):
        return True
    if code != 0:
        reason = "" if code != 1 else " although every value fits in a double"
        out.problems.append(f"exit {code}{reason}")
        return True
    return False


def check_spectrum(code, text: str, table: GradeTable, n_max: int) -> Outcome:
    """kacz spectrum: every row finite and within VALUE_RTOL of the ESP
    reference; exit 1 only when some grade's true value does not fit."""
    out = Outcome()
    if _exit_rule(code, table, range(1, n_max + 1), out):
        return out
    try:
        rows = _table(text, SPECTRUM_HEADER, 5)
        if len(rows) != n_max:
            raise _Malformed(f"{len(rows)} rows, expected {n_max}")
        values = np.array([[_num(tok) for tok in row] for row in rows])
    except _Malformed as exc:
        out.problems.append(str(exc))
        return out
    out.nan_rows = int(np.any(np.isnan(values), axis=1).sum())
    unfit, off = [], []
    for n, vol, hat_min, kappa, rate in values:
        n = int(n)
        if _unrepresentable(table, [n]):
            unfit.append(n)
            continue
        log_k = table.log_kappa_sq(n)
        refs = ((vol, table.log_vol[n - 1]), (hat_min, table.log_hat_min(n)), (kappa, log_k))
        if not (all(_close(value, math.exp(log_ref), VALUE_RTOL) for value, log_ref in refs)
                and math.isfinite(rate)
                and abs(rate - (1.0 - math.exp(-log_k))) <= VALUE_RTOL):
            off.append(n)
    _report_grades(out, unfit, off)
    return out


def _report_grades(out: Outcome, unfit: list[int], off: list[int]) -> None:
    if unfit:
        out.problems.append(f"exit 0 although true values of {len(unfit)} grades "
                            f"(n={unfit[0]}..{unfit[-1]}) do not fit in a double")
    if off:
        out.problems.append(f"{len(off)} grades (first n={off[0]}) off the reference")


def check_transform(code, text: str, table: GradeTable, n_list: list[int]) -> Outcome:
    """kacz transform: sigma_hat_j^2 and its normalization by vol_n against
    the ESP reference, every row finite."""
    out = Outcome()
    if _exit_rule(code, table, n_list, out):
        return out
    N = table.sigma_sq.shape[0]
    try:
        rows = _table(text, TRANSFORM_HEADER, 5)
        if len(rows) != N * len(n_list):
            raise _Malformed(f"{len(rows)} rows, expected {N * len(n_list)}")
        values = np.array([[_num(tok) for tok in row] for row in rows])
    except _Malformed as exc:
        out.problems.append(str(exc))
        return out
    out.nan_rows = int(np.any(np.isnan(values), axis=1).sum())
    unfit, off = [], []
    for g, n in enumerate(n_list):
        block = values[g * N:(g + 1) * N]
        if not (np.all(block[:, 0] == n) and np.array_equal(block[:, 1], np.arange(1, N + 1))):
            out.problems.append(f"n={n}: rows are not j = 1..{N} of grade {n}")
            continue
        if _unrepresentable(table, [n]):
            unfit.append(n)
            continue
        hat_ref = np.exp(table.log_hat[n - 1])
        norm_ref = np.exp(table.log_hat[n - 1] - table.log_vol[n - 1])
        if not all(_close(s, s_ref, 1e-12) and _close(h, h_ref, VALUE_RTOL)
                   and _close(q, q_ref, VALUE_RTOL)
                   for s, h, q, s_ref, h_ref, q_ref in zip(
                       block[:, 2], block[:, 3], block[:, 4], table.sigma_sq, hat_ref, norm_ref)):
            off.append(n)
    _report_grades(out, unfit, off)
    return out
