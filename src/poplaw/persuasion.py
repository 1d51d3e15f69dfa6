"""Private persuasion of a homogeneous population via grid concavification.

A sender with a non-decreasing utility over the fraction of adopters faces n
agents who adopt at posteriors of at least tau. The optimal value is

    mu * u(1) + (1 - mu) * cav_n(u)(mu * (1 - tau) / (tau * (1 - mu)))

where cav_n is the upper concave envelope of u restricted to the 1/n grid,
evaluated on an exact upper hull that each utility builds once and every
evaluation searches by bisection. The optimal policy sends the adopt signal
to everyone in the good state; in the bad state it draws an adoption
fraction from the envelope's witness distribution and recommends to a
uniformly random subset of that size, leaving adopters at posterior tau and
everyone else at posterior 0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import InvariantError
from .measures import Belief, EmpiricalDistribution, PopulationLaw, Prior, ScalarMeasure
from .rationals import parse_rational, require_int, shown
from .structures import SymmetricScheme, require_within_bound

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SenderUtility:
    """Utility of persuading a fraction of the population, sampled on the 1/n grid."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable) -> None:
        values = tuple(parse_rational(v) for v in values)
        if len(values) < 2:
            raise InvariantError("need utilities at both grid endpoints")
        if any(b < a for a, b in zip(values, values[1:])):
            raise InvariantError("sender utility must be non-decreasing on the grid")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, fn: Callable, n: int) -> "SenderUtility":
        require_within_bound(require_int(n, "agent count") + 1, "sender utility", "grid values")
        return cls(fn(Fraction(i, n)) for i in range(n + 1))

    @classmethod
    def linear(cls, n: int) -> "SenderUtility":
        return cls.from_function(lambda x: x, n)

    @classmethod
    def step(cls, n: int, cut) -> "SenderUtility":
        """Indicator of reaching the fraction `cut`."""
        cut = parse_rational(cut)
        return cls.from_function(lambda x: ONE if x >= cut else ZERO, n)

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @cached_property
    def _hull(self) -> list[tuple[Fraction, Fraction]]:
        """Vertices (i/n, u_i) of the upper concave envelope; the first and last always stay."""
        hull: list[tuple[Fraction, Fraction]] = []
        for i, v in enumerate(self.values):
            x = Fraction(i, self.n)
            while len(hull) >= 2:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (v - oy) < (ay - oy) * (x - ox):  # a lies above the chord
                    break
                hull.pop()
            hull.append((x, v))
        return hull


@dataclass(frozen=True)
class PersuasionInstance:
    """n agents, prior mu on the good state, indifference threshold tau, utility u."""

    n: int
    mu: Fraction
    tau: Fraction
    utility: SenderUtility

    def __init__(self, n: int, mu, tau, utility: SenderUtility) -> None:
        require_int(n, "agent count")
        mu = parse_rational(mu)
        tau = parse_rational(tau)
        if not 0 < mu < tau < 1:
            got = f"mu={shown(mu, str)}, tau={shown(tau, str)}"
            raise InvariantError(f"need 0 < mu < tau < 1, got {got}")
        if utility.n != n:
            raise InvariantError(f"utility grid {utility.n} does not match n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "utility", utility)

    def adoption_target(self) -> Fraction:
        """Expected adoption fraction in the bad state under any optimal policy."""
        return self.mu * (1 - self.tau) / (self.tau * (1 - self.mu))


def grid_concavification(utility: SenderUtility, y) -> tuple[Fraction, ScalarMeasure]:
    """Value and witness of the grid concavification at y.

    The witness is supported on at most two adjacent hull vertices with mean
    y; when y is itself a grid point on the hull the witness is the point mass
    there.
    """
    y = parse_rational(y)
    if not 0 <= y <= 1:
        raise InvariantError(f"evaluation point must lie in [0, 1]: {shown(y, str)}")
    hull = utility._hull
    i = bisect_left(hull, y, key=itemgetter(0))  # the first vertex at or right of y
    left, right = (hull[i], hull[i]) if hull[i][0] == y else (hull[i - 1], hull[i])
    lam = ZERO if left == right else (y - left[0]) / (right[0] - left[0])
    value = (1 - lam) * left[1] + lam * right[1]
    n = utility.n
    if (y * n).denominator == 1 and utility.values[int(y * n)] == value:
        # y is a grid point attaining the hull: the point mass is the minimal witness
        return value, ScalarMeasure.dirac(y)
    return value, ScalarMeasure([(left[0], 1 - lam), (right[0], lam)])


def persuasion_value(instance: PersuasionInstance) -> Fraction:
    """The sender's optimal value."""
    cav_value, _ = grid_concavification(instance.utility, instance.adoption_target())
    return instance.mu * instance.utility.values[-1] + (1 - instance.mu) * cav_value


@dataclass(frozen=True)
class PersuasionSolution:
    """Optimal value, bad-state adoption law, and the implementing scheme."""

    value: Fraction
    adoption_law: ScalarMeasure
    scheme: SymmetricScheme


def persuasion_policy(instance: PersuasionInstance) -> PersuasionSolution:
    """An optimal policy realizing `persuasion_value`.

    Good state: everyone gets the adopt signal, posterior tau. Bad state: an
    adoption fraction is drawn from the concavification witness and dealt to
    a uniformly random subset; adopters sit at tau, the rest at 0.
    """
    _, witness = grid_concavification(instance.utility, instance.adoption_target())
    n = instance.n
    adopt = Belief.binary(instance.tau)
    reject = Belief.binary(0)
    good = PopulationLaw.dirac(EmpiricalDistribution.constant(n, adopt))
    bad_atoms = []
    for fraction, weight in witness.atoms:
        k = int(fraction * n)
        bad_atoms.append(
            (EmpiricalDistribution(n, [(adopt, k), (reject, n - k)]), weight)
        )
    bad = PopulationLaw(n, bad_atoms)
    scheme = SymmetricScheme(Prior.binary(instance.mu), (bad, good))
    return PersuasionSolution(value=persuasion_value(instance), adoption_law=witness, scheme=scheme)


@dataclass(frozen=True)
class LimitReport:
    """Values along a grid-refinement schedule; monotone over nested grids."""

    values: tuple[tuple[int, Fraction], ...]
    monotone: bool


def persuasion_limit_value(mu, tau, utility_fn: Callable, schedule: Sequence[int]) -> LimitReport:
    """Evaluate the value along increasingly fine grids.

    `utility_fn` maps a Fraction in [0, 1] to a rational utility; it is
    sampled onto each grid in the schedule. Monotonicity is checked over
    consecutive entries where the next grid refines the previous one.
    """
    schedule = [require_int(k, "schedule entry") for k in schedule]
    if not schedule:
        raise InvariantError("schedule must not be empty")
    rows = []
    for n in schedule:
        instance = PersuasionInstance(
            n, mu, tau, SenderUtility.from_function(utility_fn, n)
        )
        rows.append((n, persuasion_value(instance)))
    monotone = all(
        later % earlier != 0 or v_later >= v_earlier
        for (earlier, v_earlier), (later, v_later) in zip(rows, rows[1:])
    )
    return LimitReport(values=tuple(rows), monotone=monotone)
