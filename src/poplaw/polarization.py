"""Belief polarization: variance functionals, bounds, and extremal structures.

Polarization of a population snapshot is the variance of the agents' beliefs
(the designated coordinate for two states, the summed per-coordinate variance
in general). Revealing the state to half of the agents and nothing to the
rest attains the maximum mu*(1-mu)/4 for even populations; odd populations
get a bracket plus the structure that achieves its lower end. An exhaustive
grid search over small structures is available for probing the odd case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError
from .measures import EmpiricalDistribution, PopulationLaw, Prior
from .structures import InformationStructure, grid_kernel, weight_grid

ZERO = Fraction(0)
ONE = Fraction(1)


def variance(empirical: EmpiricalDistribution, state: int) -> Fraction:
    """Population variance (denominator n) of one belief coordinate across agents."""
    n = empirical.n
    mean = ZERO
    second = ZERO
    for belief, count in empirical.counts:
        x = belief.coordinate(state)
        mean += Fraction(count, n) * x
        second += Fraction(count, n) * x * x
    return second - mean * mean


def pol(empirical: EmpiricalDistribution) -> Fraction:
    """Summed per-coordinate variance; equals the mean squared distance to the average."""
    return sum(
        (variance(empirical, state) for state in range(empirical.dimension)), ZERO
    )


def expected_polarization(law: PopulationLaw) -> Fraction:
    """Law-average polarization: coordinate-1 variance for two states, pol otherwise."""
    if law.dimension == 2:
        return sum((w * variance(emp, 1) for emp, w in law.atoms), ZERO)
    return sum((w * pol(emp) for emp, w in law.atoms), ZERO)


def reveal_half_structure(n: int, prior: Prior) -> InformationStructure:
    """Reveal the state to ceil(n/2) agents, tell the rest nothing."""
    if not isinstance(n, int) or n < 1:
        raise InvariantError(f"population size must be a positive integer: {n}")
    informed = (n + 1) // 2
    state_labels = tuple(f"state{j}" for j in range(prior.dimension))
    silent = ("quiet",)
    signal_sets = [state_labels] * informed + [silent] * (n - informed)
    kernel = []
    for state in range(prior.dimension):
        profile = tuple([state_labels[state]] * informed + ["quiet"] * (n - informed))
        kernel.append(((profile, ONE),))
    return InformationStructure(n, prior, signal_sets, kernel)


@dataclass(frozen=True)
class PolarizationReport:
    """Achieved value, bracketing bounds, and the structure that attains the value."""

    value: Fraction
    lower_bound: Fraction
    upper_bound: Fraction
    structure: InformationStructure | None

    def __post_init__(self):
        if not self.lower_bound <= self.value <= self.upper_bound:
            raise InvariantError("polarization report bounds do not bracket the value")


def max_polarization(n: int, prior: Prior) -> PolarizationReport:
    """Maximal expected polarization of n agents under the prior.

    Even n: the reveal-half structure is optimal and the bounds coincide.
    Odd n: the reveal-to-(n+1)/2 structure achieves the lower end of the
    bracket [(1 - 1/n^2) * B, B] where B is the even-n optimum; the true odd
    maximum may sit strictly inside. The value is the closed form; the tests
    check that the returned structure attains it.
    """
    if not isinstance(n, int) or n < 1:
        raise InvariantError(f"population size must be a positive integer: {n}")
    if prior.dimension == 2:
        mu = prior.coordinate(1)
        bound = mu * (1 - mu) / 4
    else:
        bound = sum((c * (1 - c) / 4 for c in prior.coords), ZERO)
    lower = bound if n % 2 == 0 else (1 - Fraction(1, n * n)) * bound
    return PolarizationReport(
        value=lower,
        lower_bound=lower,
        upper_bound=bound,
        structure=reveal_half_structure(n, prior),
    )


def search_max_polarization(
    n: int, prior: Prior, signals_per_agent: int = 2, denominator: int = 4
) -> tuple[Fraction, InformationStructure]:
    """Exhaustive search over two-state kernels with probabilities on a 1/denominator grid.

    Enumerates every pair of per-state weight vectors over all signal
    profiles. Intended for small n; the result is a certified lower bound for
    the true maximum on that grid, not a claim about all structures.
    """
    if prior.dimension != 2:
        raise InvariantError("grid search is implemented for two states")
    signal_set, profiles, vectors = weight_grid(n, signals_per_agent, denominator)
    p0 = prior.coordinate(0)
    p1 = prior.coordinate(1)
    # integer prior weights over a common denominator keep the hot loop integral
    q = p0.denominator * p1.denominator // math.gcd(p0.denominator, p1.denominator)
    w0_prior = int(p0 * q)
    w1_prior = int(p1 * q)
    marginal_tables = [
        _marginal_table(vec, profiles, n, signals_per_agent) for vec in vectors
    ]
    posterior_cache: dict[tuple[int, int], Fraction] = {}
    variance_cache: dict[tuple, Fraction] = {}
    best = None
    best_pair = None
    for i0, w0 in enumerate(vectors):
        marg0 = marginal_tables[i0]
        for i1, w1 in enumerate(vectors):
            marg1 = marginal_tables[i1]
            posts = []
            for agent in range(n):
                row = []
                for s in range(signals_per_agent):
                    key = (w0_prior * marg0[agent][s], w1_prior * marg1[agent][s])
                    post = posterior_cache.get(key)
                    if post is None:
                        total = key[0] + key[1]
                        post = None if total == 0 else Fraction(key[1], total)
                        posterior_cache[key] = post
                    row.append(post)
                posts.append(row)
            total_weight = ZERO
            for p_idx, profile in enumerate(profiles):
                mass = w0_prior * w0[p_idx] + w1_prior * w1[p_idx]
                if mass == 0:
                    continue
                values = tuple(sorted(posts[agent][sig] for agent, sig in enumerate(profile)))
                var = variance_cache.get(values)
                if var is None:
                    var = _variance_of_values(values)
                    variance_cache[values] = var
                total_weight += mass * var
            value = total_weight / (q * denominator)
            if best is None or value > best:
                best = value
                best_pair = (w0, w1)
    kernel = [grid_kernel(signal_set, profiles, vec, denominator) for vec in best_pair]
    return best, InformationStructure(n, prior, [signal_set] * n, kernel)


def _marginal_table(vector, profiles, n, signals_per_agent):
    table = [[0] * signals_per_agent for _ in range(n)]
    for p_idx, profile in enumerate(profiles):
        w = vector[p_idx]
        if w:
            for agent, s in enumerate(profile):
                table[agent][s] += w
    return table


def _variance_of_values(values) -> Fraction:
    n = len(values)
    mean = sum(values, ZERO) / n
    second = sum((v * v for v in values), ZERO) / n
    return second - mean * mean

