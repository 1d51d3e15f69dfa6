"""Self-contained exact linear programming over rationals.

Solves `A x = b, x >= 0` feasibility with phase 1 of the simplex method,
returning a Farkas refutation on failure. Each tableau row, the objective
row included, is a sparse map from column to integer plus one positive
integer denominator of its own, kept coprime with the row's entries
(Bareiss-style fraction-free elimination applied row by row). A pivot
rewrites only the rows with a nonzero in the pivot column, over the union of
their keys and the pivot row's; every other row's true values do not change.
Bland's smallest-index rule picks both the entering column and the leaving
row, which rules out cycling; ties in the ratio test go to the smallest basic
variable index, so runs are deterministic.

Artificial variables never re-enter the basis once they leave. A redundant
(rank-deficient) constraint row keeps its artificial basic at value zero,
which the extracted solution ignores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError

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
        ext = [*row, b]
        # a list, not a generator: CPython sizes a generator's argument tuple
        # by resizing, and each such call leaves one more tuple on a free list
        denlcm = math.lcm(*[v.denominator for v in ext])
        ints = [v.numerator * (denlcm // v.denominator) for v in ext]
        g = math.gcd(*ints) or 1
        sign = -1 if ints[-1] < 0 else 1
        int_rows.append([sign * v // g for v in ints])
        scales.append(Fraction(sign * denlcm, g))
    return int_rows, scales


class _Tableau:
    """Sparse phase-1 tableau; row `m` is the objective (reduced costs).

    Row i is the map `rows[i]` from column to integer plus the positive
    integer `dens[i]`: its true entry in column j is `rows[i].get(j, 0) /
    dens[i]`. Columns are the n structural variables, then the m artificials,
    then the rhs at column `n + m`.
    """

    def __init__(self, int_rows: list[list[int]]):
        m = len(int_rows)
        n = len(int_rows[0]) - 1
        self.m, self.n, self.rhs = m, n, n + m
        self.rows = []
        obj: dict[int, int] = {}
        for i, r in enumerate(int_rows):
            row = {j: v for j, v in enumerate(r[:-1]) if v}
            if r[-1]:
                row[n + m] = r[-1]
            for j, v in row.items():
                obj[j] = obj.get(j, 0) - v
            row[n + i] = 1
            self.rows.append(row)
        # phase-1 objective: minimize the sum of the artificials
        self.rows.append({j: v for j, v in obj.items() if v})
        self.dens = [1] * (m + 1)
        self.basis = list(range(n, n + m))

    def _entering(self) -> int | None:
        n = self.n
        return min((j for j, v in self.rows[-1].items() if j < n and v < 0), default=None)

    def _leaving(self, c: int) -> int | None:
        best = None
        best_num = best_den = 0
        for i in range(self.m):
            row = self.rows[i]
            den = row.get(c, 0)
            if den <= 0:
                continue
            num = row.get(self.rhs, 0)
            if best is None:
                best, best_num, best_den = i, num, den
                continue
            lhs = num * best_den
            rhs = best_num * den
            if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                best, best_num, best_den = i, num, den
        return best

    def _pivot(self, r: int, c: int) -> None:
        rows, dens = self.rows, self.dens
        # normalise the pivot row: coprime integers over its pivot entry p > 0
        prow = rows[r]
        g = math.gcd(*prow.values())
        if prow[c] < 0:
            g = -g
        prow = rows[r] = {j: v // g for j, v in prow.items()}
        p = dens[r] = prow[c]
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            # true row minus f/d times the true pivot row, over denominator d*p
            new = {j: v * p for j, v in row.items()}
            for j, v in prow.items():
                w = new.get(j, 0) - f * v
                if w:
                    new[j] = w
                else:
                    del new[j]
            d = dens[i] * p
            g = math.gcd(d, *new.values())
            if g > 1:
                new = {j: v // g for j, v in new.items()}
                d //= g
            rows[i] = new
            dens[i] = d
        self.basis[r] = c

    def phase1(self) -> bool:
        """Drive the artificial sum to zero. True means the system is feasible."""
        while True:
            if self.rhs not in self.rows[-1]:
                return True
            c = self._entering()
            if c is None:
                return False
            r = self._leaving(c)
            if r is None:
                raise InternalError("phase-1 objective cannot be unbounded")
            self._pivot(r, c)

    def farkas(self) -> list[Fraction]:
        """Dual vector at an infeasible phase-1 optimum: y.A <= 0, y.b > 0."""
        obj, den = self.rows[-1], self.dens[-1]
        return [1 - Fraction(obj.get(self.n + i, 0), den) for i in range(self.m)]

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        for i, var in enumerate(self.basis):
            if var < self.n:
                x[var] = Fraction(self.rows[i].get(self.rhs, 0), self.dens[i])
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
    sx = _Tableau(int_rows)
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
