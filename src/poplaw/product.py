"""Feasibility of agent-symmetric private-private information.

When every agent independently draws a belief from one marginal Q, the
anonymous law of the population is the multinomial over Q's support, and the
product is implementable exactly when that multinomial law is feasible. For
binary-supported marginals the test reduces to a one-dimensional quantile
bound, with the closed form 1/2 - C(2m, m) * 2**-(2m+1) at the symmetric
family (mu = 1/2, atoms a and 1 - a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError
from .feasibility import FeasibilityVerdict, binary_base, binary_bracket, check_feasible
from .measures import (
    Belief,
    DiscreteMeasure,
    EmpiricalDistribution,
    PopulationLaw,
    Prior,
    _trusted,
)
from .rationals import over_common_denominator, parse_quantile_level, parse_rational, require_int, shown
from .structures import capped_multinomial, compositions, max_profiles_bound, require_within_bound


@dataclass(frozen=True)
class SymmetricProduct:
    """n agents, each independently drawing a belief from the same marginal."""

    marginal: DiscreteMeasure
    n: int

    def __init__(self, marginal: DiscreteMeasure, n: int) -> None:
        require_int(n, "agent count")
        object.__setattr__(self, "marginal", marginal)
        object.__setattr__(self, "n", n)


def multinomial_law(product: SymmetricProduct) -> PopulationLaw:
    """The exact law of the empirical distribution of n independent draws.

    With the marginal's weights written over one common denominator D as
    a_k / D, the draws with counts c have weight

        n! / prod_k(c_k!) * prod_k(a_k ** c_k) / D ** n,

    an integer over D ** n that becomes one `Fraction` per atom. The
    multinomial coefficient is built as `structures.capped_multinomial`
    states it, one binomial factor C(c_1 + ... + c_j, c_j) per part.

    Raises `ResourceLimitError` when the support would exceed the bound.
    """
    atoms = product.marginal.atoms
    k = len(atoms)
    n = product.n
    # the support holds the C(n + k - 1, k - 1) count vectors of n draws over k atoms
    support = capped_multinomial((n, k - 1), max_profiles_bound())
    require_within_bound(support, "multinomial support", "atoms", " or shrink n")
    scaled, common = over_common_denominator([w for _, w in atoms])
    total = common**n
    beliefs = [belief for belief, _ in atoms]
    # marginal atoms are sorted and distinct, so comparing empirical distributions
    # compares their (atom index, count) pairs; sorting those gives canonical order
    supports = sorted(
        tuple((j, c) for j, c in enumerate(counts) if c) for counts in compositions(n, k)
    )
    law_atoms = []
    for support in supports:
        weight, drawn = 1, 0
        for j, c in support:
            drawn += c
            weight *= math.comb(drawn, c) * scaled[j] ** c
        empirical = _trusted(
            EmpiricalDistribution, n=n, counts=tuple((beliefs[j], c) for j, c in support)
        )
        law_atoms.append((empirical, Fraction(weight, total)))
    # positive weights over D ** n that sum to (sum_k a_k) ** n / D ** n = 1
    return _trusted(PopulationLaw, n=n, atoms=tuple(law_atoms))


def product_feasible(product: SymmetricProduct, prior: Prior) -> FeasibilityVerdict:
    """Feasibility of the symmetric product under the prior.

    Builds the multinomial law and runs the spread machinery against its base;
    two-atom marginals take the quantile shortcut automatically. A marginal
    whose barycenter differs from the prior comes back infeasible with
    prior_consistent False.
    """
    if prior.dimension != 2:
        raise InvariantError("product feasibility is characterized for two states")
    if product.marginal.dimension != 2:
        raise InvariantError("marginal and prior live on different state spaces")
    return check_feasible(multinomial_law(product), prior)


def binomial_quantile_expectation(n: int, p, alpha) -> Fraction:
    """Mean of the lower alpha-quantile slice of Binomial(n, p) on the 1/n grid.

    Summed in integers: with p = P/Q and alpha = A/B, grid point i/n has mass
    B * C(n, i) * P**i * (Q - P)**(n - i) in units of 1/(B * Q**n), and the
    slice takes the lowest points up to a total of A * Q**n.

    Raises `ResourceLimitError` when the n + 1 grid points exceed the bound.
    """
    require_int(n, "trial count")
    p = parse_rational(p)
    alpha = parse_quantile_level(alpha)
    if not 0 < p < 1:
        raise InvariantError(f"success probability must lie in (0, 1): {shown(p, str)}")
    # the n + 1 grid points are the atoms of the two-atom marginal's multinomial law
    require_within_bound(n + 1, "binomial quantile slice", "grid points", " or shrink n")
    P, Q = p.numerator, p.denominator
    B = alpha.denominator
    slice_mass = alpha.numerator * Q**n
    taken = moment = 0
    for i in range(n + 1):
        take = min(B * math.comb(n, i) * P**i * (Q - P) ** (n - i), slice_mass - taken)
        moment += i * take
        taken += take
        if taken == slice_mass:
            break
    return Fraction(moment, n * slice_mass)


def binary_marginal(mu, a, b) -> DiscreteMeasure:
    """The marginal on beliefs {a, b} whose mean is the prior's mu."""
    mu, a, b = binary_bracket(mu, a, b)
    high = _weight_on_high(mu, a, b)
    return DiscreteMeasure([(Belief.binary(a), 1 - high), (Belief.binary(b), high)])


def _weight_on_high(mu: Fraction, a: Fraction, b: Fraction) -> Fraction:
    return (mu - a) / (b - a)


def binary_product_feasible_quantile(n: int, mu, a, b) -> bool:
    """One-dimensional criterion for a binary-supported marginal on {a, b}.

    With the marginal pinned by the prior (`binary_marginal`), the product is
    feasible iff the mean of the (1 - mu)-quantile slice of the binomial is at
    most the low atom of the closed-form base (`feasibility.binary_base`).
    mu, a and b are read through `feasibility.binary_bracket`, so a = 0 and
    b = 1 are accepted here as by `binary_marginal` and `product-check`.
    """
    mu, a, b = binary_bracket(mu, a, b)
    p = _weight_on_high(mu, a, b)
    return binomial_quantile_expectation(n, p, 1 - mu) <= binary_base(mu, a, b).a


def symmetric_threshold(n: int) -> Fraction:
    """Smallest low atom a for which the symmetric marginal on {a, 1 - a} stays feasible.

    Closed form 1/2 - C(2m, m) * 2**-(2m+1) with m = n // 2; even n and n + 1
    share the value.
    """
    m = require_int(n, "agent count", low=2) // 2
    return Fraction(1, 2) - Fraction(math.comb(2 * m, m), 2 ** (2 * m + 1))


def threshold_denominator(n: int) -> int:
    """The reduced denominator of `symmetric_threshold(n)`, without C(2m, m).

    C(2m, m) holds s(m) factors 2, s(m) the binary digit sum of m (Kummer), so
    the denominator is 2**(2m + 1 - s(m)); the numerator is smaller.
    """
    m = require_int(n, "agent count", low=2) // 2
    return 2 ** (2 * m + 1 - m.bit_count())


def curve_sizes(n_max: int) -> range:
    """The threshold curve's population sizes 2 .. n_max, refused when its rows pass the bound."""
    require_within_bound(require_int(n_max, "n_max", low=2) - 1, "threshold curve", "rows")
    return range(2, n_max + 1)


def threshold_curve(n_max: int) -> list[tuple[int, Fraction]]:
    """Rows (n, symmetric_threshold(n)) for n = 2 .. n_max, one big-integer step per row.

    C(2m, m) is carried from row to row, C(2m, m) = C(2m - 2, m - 1) * 2(2m - 1) / m,
    and odd n repeats the row of n - 1.
    """
    rows, central = [], 1  # C(2m, m) at m = 0
    for n in curve_sizes(n_max):
        m = n // 2
        if n % 2 == 0:
            central = central * (4 * m - 2) // m
            value = Fraction(4**m - central, 2 * 4**m)
        rows.append((n, value))
    return rows
