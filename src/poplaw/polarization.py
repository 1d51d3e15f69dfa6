"""Belief polarization: variance functionals, bounds, and extremal structures.

Polarization of a population snapshot is the variance of the agents' beliefs
(the designated coordinate for two states, the summed per-coordinate variance
in general). Revealing the state to half of the agents and nothing to the
rest attains the maximum mu*(1-mu)/4 for even populations; odd populations
get a bracket plus the structure that achieves its lower end. An exhaustive
grid search over small structures probes the odd case. Its integer scores do
not change when agents or one agent's signals are renamed, so it scores one
state-0 margin group per relabeling orbit and then recovers the first
maximizer in enumeration order from the maximizers' joint orbits. A pair is
scored only if Jensen's bound from its two margin groups, the mean squared
average posterior in each state floored at its squared mean, reaches the
best score so far; a skipped pair scores strictly below the final best, so
no output changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import getitem, mul

from .errors import InvariantError
from .measures import EmpiricalDistribution, PopulationLaw, Prior
from .rationals import require_int
from .structures import InformationStructure, grid_kernel, require_within_bound, weight_grid

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
    require_int(n, "population size")
    require_within_bound(prior.dimension * n, "reveal-half structure", "profile labels")
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
    structure: InformationStructure


def polarization_bounds(n: int, prior: Prior) -> tuple[Fraction, Fraction]:
    """The bracket (lower, upper) of n agents' maximal expected polarization.

    The upper end B is the even-n optimum mu*(1-mu)/4 (summed over the
    coordinates for more than two states); the lower end is B for even n and
    (1 - 1/n^2) * B, what reveal-half attains, for odd n.
    """
    require_int(n, "population size")
    if prior.dimension == 2:
        mu = prior.coordinate(1)
        bound = mu * (1 - mu) / 4
    else:
        bound = sum((c * (1 - c) / 4 for c in prior.coords), ZERO)
    lower = bound if n % 2 == 0 else (1 - Fraction(1, n * n)) * bound
    return lower, bound


def max_polarization(n: int, prior: Prior) -> PolarizationReport:
    """Maximal expected polarization of n agents under the prior.

    Even n: the reveal-half structure is optimal and the bounds coincide.
    Odd n: the reveal-to-(n+1)/2 structure achieves the lower end of the
    bracket [(1 - 1/n^2) * B, B] where B is the even-n optimum; the true odd
    maximum may sit strictly inside. The value is the closed form of
    `polarization_bounds`; the tests check that the returned structure
    attains it.
    """
    lower, upper = polarization_bounds(n, prior)
    return PolarizationReport(
        value=lower,
        lower_bound=lower,
        upper_bound=upper,
        structure=reveal_half_structure(n, prior),
    )


def _jensen_row(margin0, margins, weights, n, denominator):
    """The Jensen bounds of state-0 margin `margin0` against every state-1 margin.

    Returns (bounds, scale) with bounds[k1] / scale the bound of the pair
    (margin0, margins[k1]) in the units of the search's num / L^2, all over
    one scale: the row tabulates L*B^2/T over L, the lcm of the row's nonzero
    T, for each of margin0's values and each state-1 margin in 0..denominator,
    and a pair's L*S sums one table entry per slot.
    """
    w0, w1 = weights
    values = set(margin0)
    # pairwise: star-unpacking a tuple of a new length per row raised peak RSS by about 1 MB
    lcm = reduce(math.lcm, (
        w0 * m0 + w1 * m1 or 1 for m0 in values for m1 in range(denominator + 1)
    ))
    terms = {
        m0: [(w1 * m1) ** 2 * (lcm // (w0 * m0 + w1 * m1 or 1)) for m1 in range(denominator + 1)]
        for m0 in values
    }
    row_terms = [terms[m0] for m0 in margin0]
    total = w1 * n * denominator * lcm  # L times the sum of B over the slots
    # w0*total*s - w1*(total - s)^2 - w0*s^2, expanded in s: one long product per pair
    slope, q, offset = (w0 + 2 * w1) * total, w0 + w1, w1 * total * total
    bounds = []
    for margin1 in margins:
        s = sum(map(getitem, row_terms, margin1))  # L * S
        bounds.append(s * (slope - q * s) - offset)
    return bounds, denominator * w0 * w1 * lcm * lcm


def search_max_polarization(
    n: int, prior: Prior, signals_per_agent: int = 2, denominator: int = 4
) -> tuple[Fraction, InformationStructure]:
    """Exhaustive search over two-state kernels with probabilities on a 1/denominator grid.

    Returns the best value over all pairs (v0, v1) of per-state weight
    vectors over the signal profiles, with the first maximizing pair in
    (v0, v1) enumeration order, the structure `enumerate_grid_structures`
    yields first among the maximizers. Intended for small n; the result is a
    certified lower bound for the true maximum on that grid, not a claim
    about all structures.

    The arithmetic is integral. With prior weights w0, w1 over their common
    denominator q, let A = w0*marg0 and B = w1*marg1 be the two states' weight
    on one (agent, signal) slot; the posterior there is B/T with T = A + B.
    With L the lcm of the nonzero T, X = B*(L/T) is an integer and a
    profile's variance is (n*sum(X^2) - sum(X)^2) / (n^2 L^2), so a pair
    scores num / (q*denominator*n^2*L^2) with, since mass*X^2 summed over
    the profiles through a slot is T*X^2 = L*B*X,
    num = n*L*sum(B*X over slots) - sum(mass*sum(X)^2 over profiles).
    X depends on a vector only through its margins, and mass = mass0 + mass1
    is linear, so within a pair of margin groups each state's vector is the
    first one minimizing its own mass term.

    Renaming the agents, or one agent's signals, permutes the slots and the
    profiles; done to both states at once, it leaves the score unchanged. So
    the best value is found by scoring one state-0 margin group per orbit,
    keyed by the sorted tuple of the agents' sorted slot blocks, against
    every state-1 group. Each maximizing group pair lies in the joint orbit
    of one found there, keyed by the sorted tuple of the agents' sorted
    blocks of (state-0, state-1) slot pairs, and every pair in such an orbit
    maximizes; so the first maximizer is the smallest (i0, i1) over those
    orbits' pairs, each scored again; a state-1 group outside the tied pairs'
    state-1 orbits cannot be in one. State-0 groups are visited in order of
    their first member, a lower bound on their i0, until it exceeds the best
    i0. Values compare by cross-multiplication and the Fraction is built once.

    A pair is scored only if an upper bound on its score reaches the best so
    far. Any member v of state-0 group k0 has sum(v) = denominator and
    sum(v_p * S_p over profiles) = sum(a * X over slots), with a the group's
    margin and S_p a profile's sum(X); by Cauchy-Schwarz, cost0 is at least
    w0*(sum(a*X))^2 / denominator, and likewise cost1 with the state-1
    margin b. So num <= bound / denominator with
    bound = denominator*n*L*sum(B*X) - w0*(sum(a*X))^2 - w1*(sum(b*X))^2,
    from the margins alone: Jensen's inequality within each state. With
    S = sum(B^2/T over slots), and sum(B) = w1*n*denominator since each
    agent's margins sum to the denominator, sum(b*X) = L*S/w1 and
    sum(a*X) = L*(w1*n*denominator - S)/w0, so bound / (denominator*L^2) is
    (denominator*n*S - (w1*n*denominator - S)^2/w0 - S^2/w1) / denominator.
    A slot's B^2/T depends only on its two margins, each in 0..denominator,
    so each representative's row tabulates L*B^2/T once over the lcm L of
    the row's nonzero T, and every bound in the row is an integer over one
    scale. The row is visited in descending order of that integer. A pair
    whose bound, cross-multiplied, is below the running best scores strictly
    below the final best, so it can be neither the best nor tied with it; so
    can every later pair in the row, and the row stops there. The order only
    raises the running best early: the tied orbits and the result do not
    depend on it.
    """
    if prior.dimension != 2:
        raise InvariantError("grid search is implemented for two states")
    signal_set, profiles, vectors = weight_grid(n, signals_per_agent, denominator)
    (w0, w1), q = prior.belief._nums, prior.belief._den
    # each agent's flat (agent, signal) slot index in every profile
    columns = [
        [agent * signals_per_agent + profile[agent] for profile in profiles]
        for agent in range(n)
    ]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, vec in enumerate(vectors):
        margin = [0] * (n * signals_per_agent)
        for p, w in enumerate(vec):
            if w:
                for column in columns:
                    margin[column[p]] += w
        groups.setdefault(tuple(margin), []).append(i)
    margins = list(groups)  # in order of first member
    sides = [
        [
            ([w * m for m in margin], [([w * x for x in vectors[i]], i) for i in members])
            for margin, members in groups.items()
        ]
        for w in (w0, w1)
    ]

    def orbit(*state_margins):
        # the agents' sorted blocks of one margin, or of zipped state-0, state-1 margins
        return tuple(sorted(
            tuple(sorted(zip(*(m[a:a + signals_per_agent] for m in state_margins))))
            for a in range(0, n * signals_per_agent, signals_per_agent)
        ))

    def score(k0, k1):
        (a_slots, members0), (b_slots, members1) = sides[0][k0], sides[1][k1]
        totals = [a + b or 1 for a, b in zip(a_slots, b_slots)]  # b = 0 where T = 0
        lcm = math.lcm(*totals)
        xs = [b * (lcm // t) for b, t in zip(b_slots, totals)]
        # sum(X)^2 over each profile's agents
        sums = list(map(sum, zip(*[map(xs.__getitem__, c) for c in columns])))
        squares = list(map(mul, sums, sums))
        cost0, i0 = min((sum(map(mul, mass, squares)), i) for mass, i in members0)
        cost1, i1 = min((sum(map(mul, mass, squares)), i) for mass, i in members1)
        return n * lcm * sum(map(mul, b_slots, xs)) - cost0 - cost1, lcm * lcm, i0, i1

    keys = [orbit(margin) for margin in margins]
    orbits: dict[tuple, list[int]] = {}
    for k, key in enumerate(keys):
        orbits.setdefault(key, []).append(k)
    norm = q * denominator * n * n  # to polarization units
    # state-0 orbit key -> state-1 orbit key -> joint orbits of the pairs scoring the best
    best_num, best_scale, tied = -1, 1, {}
    for k0 in [members[-1] for members in orbits.values()]:  # one group per orbit
        bounds, bound_scale = _jensen_row(margins[k0], margins, (w0, w1), n, denominator)
        for k1 in sorted(range(len(margins)), key=bounds.__getitem__, reverse=True):
            if bounds[k1] * best_scale < best_num * bound_scale:
                break  # this pair and the rest of the row score below the final best
            num, scale, _, _ = score(k0, k1)
            lhs, rhs = num * best_scale, best_num * scale  # cross-multiplied
            if lhs > rhs:
                best_num, best_scale, tied = num, scale, {}
            if lhs >= rhs:
                joints = tied.setdefault(keys[k0], {}).setdefault(keys[k1], set())
                joints.add(orbit(margins[k0], margins[k1]))
    best_pair = (len(vectors), len(vectors))
    for k0, margin0 in enumerate(margins):
        if groups[margin0][0] > best_pair[0]:
            break
        for key1, joints in tied.get(keys[k0], {}).items():
            for k1 in orbits[key1]:
                if orbit(margin0, margins[k1]) in joints:
                    best_pair = min(best_pair, score(k0, k1)[2:])
    best = Fraction(best_num, norm * best_scale)
    kernel = [grid_kernel(signal_set, profiles, vectors[i], denominator) for i in best_pair]
    return best, InformationStructure(n, prior, [signal_set] * n, kernel)
