"""Self-contained exact linear programming over rationals.

`solve_equalities` is the one entry. It decides `A x = b, x >= 0`, or with
`bounded` also `x <= 1`, by phase 1 of the simplex method, and returns a
Farkas refutation on failure. It takes integer columns: each column's nonzero
(row, integer) pairs, the integer rhs, and each row's multiplier, the positive
integer that maps the row as given to it. `mps` states both of its LPs in that
form straight from a law's counts, as its verifiers read them, and states a
column bound p_j by scaling column j by p_j.

Each tableau row, the objective row included, is a sparse map from column to
integer plus one positive integer denominator of its own, kept coprime with
the row's entries (Bareiss-style fraction-free elimination applied row by
row). A pivot rewrites only the rows with a nonzero in the pivot column, over
the union of their keys and the pivot row's; every other row's true values do
not change. Bland's smallest-index rule picks both the entering column and
the leaving row, which rules out cycling; ties in the ratio test go to the
smallest basic variable index, so runs are deterministic.

Bounded columns use Dantzig's upper-bounding technique. A variable at its
upper bound 1 is kept complemented, as t'_j = 1 - t_j: its column is negated
and moved into the rhs, so every nonbasic variable rests at zero and the
entering rule stays the canonical one. The ratio test also admits a basic
variable rising to its bound, and the entering variable flipping to its own
bound (ratio 1, so a flip never comes from a degenerate step); Bland's
smallest-index rule covers both, with a flip indexed by the entering column.
Bounds of 1 keep every flip integral. Without bounds the tableau pivots
exactly as the canonical one.

Artificial variables never re-enter the basis once they leave. A redundant
(rank-deficient) constraint row keeps its artificial basic at value zero,
which the extracted solution ignores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of `solve_equalities`: exactly one of solution/farkas is set."""

    solution: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None

    @property
    def feasible(self) -> bool:
        return self.solution is not None


class _Tableau:
    """Sparse phase-1 tableau; row `m` is the objective (reduced costs).

    Row i is the map `rows[i]` from column to integer plus the positive
    integer `dens[i]`: its true entry in column j is `rows[i].get(j, 0) /
    dens[i]`. Columns are the n structural variables, then the m artificials,
    then the rhs at column `n + m`, and `scales[i]` maps row i as given to
    row i. When `bounded`, every structural column has upper bound 1, and
    those in `flipped` are currently complemented.
    """

    def __init__(self, columns, rhs, mults, bounded: bool = False):
        m, n = len(rhs), len(columns)
        self.m, self.n, self.rhs = m, n, n + m
        self.bounded = bounded
        self.flipped: set[int] = set()
        self.rows = rows = [{} for _ in range(m)]
        for j, column in enumerate(columns):
            for i, v in column:
                rows[i][j] = v
        # each row as coprime integers with a non-negative rhs, and the scale
        # mapping the row as given to it; an all-zero row stays empty, scale 1
        self.scales = [ONE] * m
        obj: dict[int, int] = {}
        for i, b in enumerate(rhs):
            row = rows[i]
            g = math.gcd(b, *row.values())
            if g:
                if b < 0:
                    g = -g
                if g != 1:
                    row = rows[i] = {j: v // g for j, v in row.items()}
                    b //= g
                self.scales[i] = Fraction(mults[i], g)
            if b:
                row[n + m] = b
            for j, v in row.items():
                obj[j] = obj.get(j, 0) - v
            row[n + i] = 1
        # phase-1 objective: minimize the sum of the artificials
        self.rows.append({j: v for j, v in obj.items() if v})
        self.dens = [1] * (m + 1)
        self.basis = list(range(n, n + m))

    def _entering(self, start: int) -> int | None:
        """The first structural column from `start` on with a negative reduced cost."""
        obj = self.rows[-1]
        return next((j for j in range(start, self.n) if obj.get(j, 0) < 0), None)

    def _leaving(self, c: int) -> int | None:
        """The row of the leaving variable, `m` for a bound flip of c, None if unbounded.

        A row whose entry in c is negative has its bounded basic variable
        rising to its upper bound.
        """
        bounded, basis, n = self.bounded, self.basis, self.n
        best = best_var = None
        best_num = best_den = 0
        if bounded:
            best, best_var, best_num, best_den = self.m, c, 1, 1
        for i in range(self.m):
            row = self.rows[i]
            den = row.get(c, 0)
            if den > 0:
                num = row.get(self.rhs, 0)
            elif den and bounded and basis[i] < n:
                num = self.dens[i] - row.get(self.rhs, 0)
                den = -den
            else:
                continue
            var = basis[i]
            if best is None:
                best, best_var, best_num, best_den = i, var, num, den
                continue
            lhs = num * best_den
            rhs = best_num * den
            if lhs < rhs or (lhs == rhs and var < best_var):
                best, best_var, best_num, best_den = i, var, num, den
        return best

    def _complement(self, j: int) -> None:
        """Substitute t_j = 1 - t'_j: negate column j and move it into the rhs.

        The gcd of a row's entries and its denominator does not change.
        """
        rhs = self.rhs
        for row in self.rows:
            a = row.get(j)
            if a is None:
                continue
            row[j] = -a
            b = row.get(rhs, 0) - a
            if b:
                row[rhs] = b
            else:
                del row[rhs]
        self.flipped ^= {j}

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
        """Drive the artificial sum to zero. True means the system is feasible.

        A flip of c changes only c's reduced cost, to positive, and every
        column below c was already non-negative, so Bland's scan resumes at
        c + 1; a real pivot restarts it at 0.
        """
        start = 0
        while True:
            if self.rhs not in self.rows[-1]:
                return True
            c = self._entering(start)
            if c is None:
                return False
            r = self._leaving(c)
            if r is None:
                raise InternalError("phase-1 objective cannot be unbounded")
            if r == self.m:
                self._complement(c)
                start = c + 1
                continue
            start = 0
            if self.rows[r][c] < 0:  # the basic variable leaves at its upper bound
                self._complement(self.basis[r])
            self._pivot(r, c)

    def farkas(self) -> list[Fraction]:
        """Dual vector at an infeasible phase-1 optimum, y.A <= 0 and y.b > 0, over
        the rows as given: the tableau's dual times each row's scale."""
        obj, den = self.rows[-1], self.dens[-1]
        return [s * (1 - Fraction(obj.get(self.n + i, 0), den)) for i, s in enumerate(self.scales)]

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        for i, var in enumerate(self.basis):
            if var < self.n:
                x[var] = Fraction(self.rows[i].get(self.rhs, 0), self.dens[i])
        for j in self.flipped:
            x[j] = 1 - x[j]
        return x


def solve_equalities(columns, rhs, mults, bounded: bool = False) -> FeasibilityResult:
    """Find x >= 0 solving the rows, or a Farkas vector refuting them.

    `columns[j]` lists column j's nonzero (row, integer) pairs, `rhs[i]` is an
    integer, and row i is `mults[i]` > 0 times the row as given. With
    `bounded`, every column also lies in [0, 1]. The Farkas vector is stated
    over the rows as given.
    """
    sx = _Tableau(columns, rhs, mults, bounded)
    if sx.phase1():
        return FeasibilityResult(solution=tuple(sx.solution()), farkas=None)
    return FeasibilityResult(solution=None, farkas=tuple(sx.farkas()))
