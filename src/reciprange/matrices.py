"""Reciprocal tridiagonal matrices and their xi-parameters.

A reciprocal matrix has zero main diagonal and paired off-diagonal entries with
a_{j,j+1} * a_{j+1,j} = 1.  The boundary generating curve of such a matrix
depends on the entries only through the nonnegative parameters

    xi_j = (|a_{j,j+1}| - |a_{j+1,j}|)^2 / 4,

so most of the package works with xi directly; ``matrix_from_xi`` provides the
canonical real-positive representative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

#: largest xi the float computations take: envelope_points forms xi (xi + 1),
#: and P_n of classify products of xi, which overflow a float above about
#: 1.3e154
MAX_XI = 1e150


@dataclass(frozen=True)
class XiParameters:
    """The vector (xi_1, ..., xi_{n-1}) of nonnegative off-diagonal asymmetries."""

    xi: tuple

    def __post_init__(self):
        for i, x in enumerate(self.xi):
            if not math.isfinite(x):
                raise InvalidInputError(f"xi[{i}] = {x} is not finite")
        if any(x < 0 for x in self.xi):
            bad = min(range(len(self.xi)), key=lambda i: self.xi[i])
            raise InvalidInputError(f"xi[{bad}] = {self.xi[bad]} is negative")

    @property
    def n(self):
        return len(self.xi) + 1

    def __iter__(self):
        return iter(self.xi)

    def __len__(self):
        return len(self.xi)

    def __getitem__(self, i):
        return self.xi[i]


def check_xi_bound(xi, who):
    """Raise InvalidInputError at the first xi above MAX_XI, which ``who`` does not take."""
    for j, x in enumerate(xi):
        if x > MAX_XI:
            raise InvalidInputError(f"xi[{j}] = {x:g} exceeds {MAX_XI:g}, the largest xi {who}")


def as_xi(xi) -> XiParameters:
    if isinstance(xi, XiParameters):
        return xi
    if isinstance(xi, ReciprocalMatrix):
        return xi.xi()
    return XiParameters(tuple(float(x) for x in xi))


@dataclass(frozen=True)
class ReciprocalMatrix:
    """Tridiagonal matrix with zero diagonal and reciprocal off-diagonal pairs."""

    superdiag: tuple

    @property
    def n(self):
        return len(self.superdiag) + 1

    def dense(self) -> np.ndarray:
        n = self.n
        A = np.zeros((n, n), dtype=complex)
        for j, a in enumerate(self.superdiag):
            A[j, j + 1] = a
            A[j + 1, j] = 1 / a
        return A

    def xi(self) -> XiParameters:
        out = []
        for j, a in enumerate(self.superdiag):
            m = abs(a)
            try:
                out.append((m - 1 / m) ** 2 / 4)
            except OverflowError:
                raise InvalidInputError(
                    f"superdiagonal entry {j} = {a} gives an xi beyond the float range") from None
        return XiParameters(tuple(out))


def build_from_superdiagonal(entries) -> ReciprocalMatrix:
    """Construct from the superdiagonal; the subdiagonal is the entrywise reciprocal."""
    entries = tuple(complex(e) for e in entries)
    if len(entries) < 1:
        raise InvalidInputError("need at least one superdiagonal entry")
    for i, e in enumerate(entries):
        if not cmath.isfinite(e):
            raise InvalidInputError(f"superdiagonal entry {i} = {e} is not finite")
        if e == 0:
            raise InvalidInputError(f"superdiagonal entry {i} is zero")
    return ReciprocalMatrix(entries)


def matrix_from_xi(xi) -> ReciprocalMatrix:
    """Canonical representative with real positive entries |a| = sqrt(xi) + sqrt(xi+1).

    This inverts xi exactly: (|a| - 1/|a|)^2/4 = xi since 1/|a| = sqrt(xi+1) - sqrt(xi).
    """
    xi = as_xi(xi)
    if not xi.xi:
        raise InvalidInputError("need at least one xi value (n >= 2)")
    entries = tuple(math.sqrt(x) + math.sqrt(x + 1) for x in xi)
    return ReciprocalMatrix(entries)


def imag_part_spectrum(xi) -> np.ndarray:
    """Eigenvalues (ascending) of Im A, from the xi-parameters alone.

    Im A is unitarily similar to the symmetric tridiagonal with zero diagonal
    and off-diagonals sqrt(xi_j), which is well conditioned even at repeated
    eigenvalues; an empty xi gives the 1x1 block [0].  A stack of xi
    (shape (..., n - 1)) is solved by one stacked ``eigvalsh``.
    """
    return np.linalg.eigvalsh(symmetric_tridiagonal(np.sqrt(np.asarray(xi, dtype=float))))


def symmetric_tridiagonal(off) -> np.ndarray:
    """The stack of zero-diagonal symmetric tridiagonals with off-diagonals
    ``off``: shape (..., n - 1) in, shape (..., n, n) out."""
    j = np.arange(off.shape[-1])
    T = np.zeros(off.shape[:-1] + (len(j) + 1, len(j) + 1))
    T[..., j, j + 1] = T[..., j + 1, j] = off
    return T


def flip(matrix: ReciprocalMatrix) -> ReciprocalMatrix:
    """Reverse row/column order; unitary similarity sending xi_j to xi_{n-j}."""
    return ReciprocalMatrix(tuple(1 / a for a in reversed(matrix.superdiag)))


def exact_spectrum(n: int) -> tuple:
    """The eigenvalues 2 cos(j pi/(n+1)), j = 1..n, in decreasing order: every
    reciprocal matrix of size n is similar to the Toeplitz tridiagonal with
    unit off-diagonals."""
    if n < 1:
        raise InvalidInputError(f"dimension must be positive, got {n}")
    return tuple(2 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1))


def _json_numbers(value, what) -> list:
    """``value``, a JSON array of numbers, as floats."""
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise InvalidInputError(f"{what} must be an array of numbers")
    try:
        return [float(v) for v in value]
    except OverflowError:
        raise InvalidInputError(f"{what} holds a number beyond the float range") from None


def matrix_from_json_dict(obj) -> ReciprocalMatrix:
    """Accept {"n", "superdiag": [[re, im], ...]} or {"n", "xi": [...]}; the
    forms are exclusive, and "n", where given, must match."""
    if not isinstance(obj, dict):
        raise InvalidInputError("matrix JSON must be an object")
    has_sd = "superdiag" in obj
    has_xi = "xi" in obj
    if has_sd == has_xi:
        raise InvalidInputError('matrix JSON needs exactly one of "superdiag" or "xi"')
    if has_xi:
        values, what = _json_numbers(obj["xi"], '"xi"'), "xi values"
    else:
        pairs = obj["superdiag"]
        if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise InvalidInputError('"superdiag" must be an array of [re, im] pairs')
        values = [complex(*_json_numbers(p, '"superdiag" entry')) for p in pairs]
        what = "superdiagonal entries"
    if "n" in obj and obj["n"] != len(values) + 1:
        raise InvalidInputError(f'"n"={obj["n"]!r} inconsistent with {len(values)} {what}')
    return matrix_from_xi(values) if has_xi else build_from_superdiagonal(values)
