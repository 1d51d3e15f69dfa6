"""Self-contained exact linear programming over rationals.

Solves `A x = b, x >= 0` feasibility with phase 1 of the simplex method,
returning a Farkas refutation on failure. The tableau is kept as scaled
integers (fraction-free pivoting): every entry equals `det` times the true
rational value, where `det` is the determinant of the current basis, so each
pivot costs integer multiplications plus one exact division per cell and no
gcd normalization. Bland's smallest-index rule picks both the entering column
and the leaving row, which rules out cycling; ties in the ratio test go to the
smallest basic variable index, so runs are deterministic.

Artificial variables never re-enter the basis once they leave. A redundant
(rank-deficient) constraint row keeps its artificial basic at value zero,
which the extracted solution ignores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of `solve_equalities`: exactly one of solution/farkas is set."""

    solution: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def _integerize(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Scale each constraint row to coprime integers with a non-negative rhs.

    Returns the integer rows (rhs appended) plus the per-row factor mapping the
    original row to the integer row, used to translate Farkas vectors back.
    """
    int_rows = []
    scales = []
    for row, b in zip(rows, rhs):
        ext = [Fraction(v) for v in row] + [Fraction(b)]
        denlcm = 1
        for v in ext:
            denlcm = denlcm * v.denominator // math.gcd(denlcm, v.denominator)
        ints = [int(v * denlcm) for v in ext]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        if g == 0:
            g = 1
        sign = -1 if ints[-1] < 0 else 1
        int_rows.append([sign * v // g for v in ints])
        scales.append(Fraction(sign * denlcm, g))
    return int_rows, scales


class _Simplex:
    def __init__(self, int_rows: list[list[int]]):
        m = len(int_rows)
        n = len(int_rows[0]) - 1 if m else 0
        self.m = m
        self.n = n
        self.width = n + m + 1
        self.rows = []
        for i, r in enumerate(int_rows):
            row = r[:-1] + [0] * m + [r[-1]]
            row[n + i] = 1
            self.rows.append(row)
        self.basis = list(range(n, n + m))
        self.det = 1
        # phase-1 objective: minimize the sum of the artificials
        obj = [0] * self.width
        for j in range(n):
            obj[j] = -sum(row[j] for row in self.rows)
        obj[-1] = -sum(row[-1] for row in self.rows)
        self.obj = obj

    def _sign(self) -> int:
        return 1 if self.det > 0 else -1

    def _entering(self) -> int | None:
        s = self._sign()
        obj = self.obj
        for j in range(self.n):
            if s * obj[j] < 0:
                return j
        return None

    def _leaving(self, c: int) -> int | None:
        s = self._sign()
        best = None
        best_num = best_den = 0
        for i, row in enumerate(self.rows):
            den = row[c]
            if s * den <= 0:
                continue
            num = row[-1]
            if best is None:
                best, best_num, best_den = i, num, den
                continue
            lhs = num * best_den
            rhs = best_num * den
            if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                best, best_num, best_den = i, num, den
        return best

    def _pivot(self, r: int, c: int) -> None:
        det = self.det
        prow = self.rows[r]
        p = prow[c]
        width = self.width
        for row in self.rows:
            if row is prow:
                continue
            f = row[c]
            if f == 0 and p == det:
                continue
            for j in range(width):
                q, rem = divmod(row[j] * p - f * prow[j], det)
                if rem:
                    raise ArithmeticError("inexact division in integer pivot")
                row[j] = q
        obj = self.obj
        f = obj[c]
        if not (f == 0 and p == det):
            for j in range(width):
                q, rem = divmod(obj[j] * p - f * prow[j], det)
                if rem:
                    raise ArithmeticError("inexact division in integer pivot")
                obj[j] = q
        self.det = p
        self.basis[r] = c

    def phase1(self) -> bool:
        """Drive the artificial sum to zero. True means the system is feasible."""
        while True:
            if self.obj[-1] == 0:
                return True
            c = self._entering()
            if c is None:
                return False
            r = self._leaving(c)
            if r is None:
                raise ArithmeticError("phase-1 objective cannot be unbounded")
            self._pivot(r, c)

    def farkas(self) -> list[Fraction]:
        """Dual vector at an infeasible phase-1 optimum: y.A <= 0, y.b > 0."""
        det = self.det
        return [1 - Fraction(self.obj[self.n + i], det) for i in range(self.m)]

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        det = self.det
        for i, var in enumerate(self.basis):
            if var < self.n:
                x[var] = Fraction(self.rows[i][-1], det)
        return x


def solve_equalities(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> FeasibilityResult:
    """Find x >= 0 with `rows @ x == rhs`, or a Farkas vector refuting it.

    The Farkas vector y (one entry per input row) satisfies y.rows <= 0
    componentwise and y.rhs > 0, which no non-negative x can survive.
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs lengths differ")
    if not rows:
        return FeasibilityResult(solution=(), farkas=None)
    int_rows, scales = _integerize(rows, rhs)
    sx = _Simplex(int_rows)
    if sx.phase1():
        return FeasibilityResult(solution=tuple(sx.solution()), farkas=None)
    y = sx.farkas()
    return FeasibilityResult(
        solution=None, farkas=tuple(scales[i] * y[i] for i in range(len(y)))
    )


def farkas_refutes(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], y: Sequence[Fraction]
) -> bool:
    """Check y.rows <= 0 componentwise and y.rhs > 0, exactly."""
    if len(y) != len(rows) or not rows:
        return False
    ncols = len(rows[0])
    for j in range(ncols):
        if sum((y[i] * rows[i][j] for i in range(len(rows))), ZERO) > 0:
            return False
    return sum((y[i] * rhs[i] for i in range(len(rows))), ZERO) > 0
