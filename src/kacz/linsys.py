"""Dense linear systems: containers, file I/O, Gram spectra, synthesis.

Matrix files are UTF-8 text with one comma-separated row per line; lines
starting with '#' are ignored. Vector files hold one decimal per line.
The writer emits 17 significant digits so finite values round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .rng import Xoshiro256StarStar
from .tolerances import CONSISTENCY_TOL, psd_clamp_tol

DECAY_MODES = ("gaussian", "linear_sv", "exponential_sv")


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LinearSystem:
    """A consistent dense system A x = b with optional known solution."""

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray | None

    @property
    def M(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]


def make_linear_system(A, b=None, x_star=None) -> LinearSystem:
    """Validate and assemble a LinearSystem.

    Requires M >= N. If b is omitted and x_star given, b = A @ x_star.
    When both are given, A @ x_star must match b to the consistency
    tolerance 1e-8 * (1 + ||b||_inf).
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    M, N = A.shape
    if M < N:
        raise ValueError(f"matrix must have at least as many rows as columns (M={M} < N={N})")
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=np.float64).reshape(-1)
        if x_star.shape[0] != N:
            raise ValueError(f"solution length {x_star.shape[0]} != N={N}")
    if b is None:
        if x_star is None:
            raise ValueError("need a right-hand side or a solution to build one from")
        b = A @ x_star
    else:
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        if b.shape[0] != M:
            raise ValueError(f"rhs length {b.shape[0]} != M={M}")
        if x_star is not None:
            tol = CONSISTENCY_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))
            gap = float(np.max(np.abs(A @ x_star - b)))
            if gap > tol:
                raise ValueError(f"inconsistent system: ||A x_star - b||_inf = {gap:.3e} > {tol:.3e}")
    return LinearSystem(
        A=_freeze(A),
        b=_freeze(b),
        x_star=None if x_star is None else _freeze(x_star),
    )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition of the Gram matrix A^T A.

    sigma_sq holds the N eigenvalues (squared singular values of A) in
    descending order, clamped at zero; column j of V is the eigenvector for
    sigma_sq[j].
    """

    sigma_sq: np.ndarray
    V: np.ndarray


def gram(A: np.ndarray) -> np.ndarray:
    """Gram matrix A^T A, symmetrized exactly."""
    A = np.asarray(A, dtype=np.float64)
    G = A.T @ A
    return 0.5 * (G + G.T)


def singular_spectrum(A: np.ndarray) -> SpectralDecomposition:
    """Descending eigenvalues and eigenvectors of gram(A).

    Tiny negative eigenvalues (within N*eps*max) are clamped to zero;
    anything more negative is a numerical failure.
    """
    G = gram(A)
    eigvals, eigvecs = np.linalg.eigh(G)
    order = np.argsort(eigvals)[::-1]
    sigma_sq = eigvals[order]
    V = eigvecs[:, order]
    tol = psd_clamp_tol(G.shape[0], float(sigma_sq[0]) if sigma_sq.size else 0.0)
    if sigma_sq.size and float(sigma_sq[-1]) < -tol:
        raise np.linalg.LinAlgError(
            f"Gram matrix eigenvalue {sigma_sq[-1]:.3e} below -{tol:.3e}; not PSD"
        )
    sigma_sq = np.maximum(sigma_sq, 0.0)
    return SpectralDecomposition(sigma_sq=_freeze(sigma_sq), V=_freeze(V))


def linear_sv_schedule(N: int) -> np.ndarray:
    """Pinned linearly decaying singular values: 1 down to 0.1 in N steps."""
    if N == 1:
        return np.array([1.0])
    j = np.arange(N, dtype=np.float64)
    return 1.0 - j * (0.9 / (N - 1))


def exponential_sv_schedule(N: int) -> np.ndarray:
    """Pinned geometrically decaying singular values: 2^0 .. 2^-(N-1)."""
    return 2.0 ** (-np.arange(N, dtype=np.float64))


def _random_matrix(rng: Xoshiro256StarStar, rows: int, cols: int) -> np.ndarray:
    """Row-major standard normal fill from the pinned stream."""
    return np.array(rng.normals(rows * cols), dtype=np.float64).reshape(rows, cols)


def _random_orthonormal(rng: Xoshiro256StarStar, rows: int, cols: int) -> np.ndarray:
    """Random matrix with orthonormal columns, sign-fixed for uniqueness."""
    Q, R = np.linalg.qr(_random_matrix(rng, rows, cols))
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def synth_system(M: int, N: int, seed: int, decay: str = "gaussian") -> LinearSystem:
    """Deterministic synthetic system with a known random solution.

    gaussian: i.i.d. standard normal entries. linear_sv / exponential_sv:
    A = U diag(s) V^T with random orthonormal factors and the pinned
    singular-value schedule. Draw order (entries of A, then x_star) is part
    of the replay contract.
    """
    if N < 1 or M < N:
        raise ValueError(f"need M >= N >= 1, got M={M}, N={N}")
    if decay not in DECAY_MODES:
        raise ValueError(f"decay must be one of {DECAY_MODES}")
    rng = Xoshiro256StarStar(seed)
    if decay == "gaussian":
        A = _random_matrix(rng, M, N)
    else:
        sv = linear_sv_schedule(N) if decay == "linear_sv" else exponential_sv_schedule(N)
        U = _random_orthonormal(rng, M, N)
        V = _random_orthonormal(rng, N, N)
        A = (U * sv) @ V.T
    x_star = np.array(rng.normals(N), dtype=np.float64)
    return make_linear_system(A, x_star=x_star)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_decimal(token: str, path: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: not a decimal literal: {token!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno}: non-finite value {token!r}")
    return value


def _data_lines(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def load_matrix(path: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in _data_lines(path):
        row = [_parse_decimal(tok.strip(), path, lineno) for tok in line.split(",")]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def load_vector(path: str) -> np.ndarray:
    values = [_parse_decimal(line, path, lineno) for lineno, line in _data_lines(path)]
    if not values:
        raise ParseError(f"{path}: no data rows")
    return np.array(values, dtype=np.float64)


def save_matrix(path: str, A: np.ndarray) -> None:
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in A:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def save_vector(path: str, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    with open(path, "w", encoding="utf-8") as fh:
        for value in v:
            fh.write(_fmt(value) + "\n")


def load_system(matrix_path: str, rhs_path: str | None = None,
                solution_path: str | None = None) -> LinearSystem:
    """Load and validate a system from text files.

    With only a solution file, the right-hand side is computed as
    A @ x_star; with both, consistency is enforced.
    """
    A = load_matrix(matrix_path)
    b = load_vector(rhs_path) if rhs_path is not None else None
    x_star = load_vector(solution_path) if solution_path is not None else None
    return make_linear_system(A, b=b, x_star=x_star)
