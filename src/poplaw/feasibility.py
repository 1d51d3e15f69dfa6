"""Deciding which population laws some information structure can induce.

A law is feasible for a prior exactly when it spreads its own base law: the
mixture, over states, of point masses at the state-conditional reweightings
of its expected belief measure. This module computes those reweightings, the
base law, and a full verdict with either a decomposition (reusable for
synthesis) or an infeasibility certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .errors import InvariantError, PriorInconsistencyError
from .measures import (
    DiscreteMeasure,
    PopulationLaw,
    Prior,
    _trusted,
    barycenter,
    law_expected_measure,
)
from .mps import (
    BinaryBase,
    InfeasibilityCertificate,
    MeanMismatch,
    SpreadDecomposition,
    SpreadTarget,
    mps_decompose,
)
from .rationals import parse_rational, shown


def conditional_tilt(measure: DiscreteMeasure, prior: Prior, state: int) -> DiscreteMeasure:
    """Reweight a belief measure by the likelihood of one state.

    Atom x gets weight w * x_state / mu_state; atoms assigning zero to the
    state disappear. The result is a probability measure exactly when the
    measure's barycenter equals the prior, so anything else is rejected.
    """
    _check_prior(measure, prior)
    return DiscreteMeasure(_tilt_atoms(measure, prior, state))


def base_law(law: PopulationLaw, prior: Prior) -> SpreadTarget:
    """The state-indexed mixture of conditional reweightings of the law's expected measure."""
    expected = law_expected_measure(law)
    _check_prior(expected, prior)
    # each tilt keeps the expected measure's order and positive weights, and
    # sums to center_state / mu_state = 1 once the barycenter is the prior
    tilts = [
        _trusted(DiscreteMeasure, atoms=_tilt_atoms(expected, prior, state))
        for state in range(prior.dimension)
    ]
    # the prior's coordinates are positive and sum to 1, and no tilt is empty,
    # as the barycenter equals a full-support prior
    return _trusted(SpreadTarget, components=tuple(zip(prior.coords, tilts)))


def _check_prior(measure: DiscreteMeasure, prior: Prior) -> None:
    if measure.dimension != prior.dimension:
        raise InvariantError("measure and prior live on different state spaces")
    center = barycenter(measure)
    if center != prior.belief:
        raise PriorInconsistencyError(center, prior.belief)


def _tilt_atoms(measure: DiscreteMeasure, prior: Prior, state: int) -> tuple:
    mu = prior.coordinate(state)
    mu_num, mu_den = mu.numerator, mu.denominator
    return tuple(  # w * (c / x._den) / mu as one Fraction
        (x, Fraction(w.numerator * c * mu_den, w.denominator * x._den * mu_num))
        for x, w in measure.atoms
        if (c := x._nums[state])
    )


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of `check_feasible`: its evidence, with both flags read off it.

    When the law's mean belief matches the prior, there is a base and exactly
    one of decomposition and certificate. When it does not, the verdict is
    infeasible with a belief-level `MeanMismatch` certificate and no base.
    """

    base: SpreadTarget | None
    decomposition: SpreadDecomposition | None
    certificate: InfeasibilityCertificate | None

    @property
    def feasible(self) -> bool:
        return self.decomposition is not None

    @property
    def prior_consistent(self) -> bool:
        return self.base is not None


def check_feasible(law: PopulationLaw, prior: Prior) -> FeasibilityVerdict:
    """Decide feasibility of a population law under a prior, with evidence."""
    if law.dimension != prior.dimension:
        raise InvariantError("law and prior live on different state spaces")
    try:
        base = base_law(law, prior)
    except PriorInconsistencyError as exc:
        return FeasibilityVerdict(None, None, MeanMismatch(exc.barycenter, exc.prior))
    result = mps_decompose(law, base)
    if isinstance(result, SpreadDecomposition):
        return FeasibilityVerdict(base, result, None)
    return FeasibilityVerdict(base, None, result)


def binary_bracket(mu, a, b) -> tuple[Fraction, Fraction, Fraction]:
    """Parse two beliefs a, b about the prior mu, requiring 0 <= a < mu < b <= 1."""
    mu, a, b = parse_rational(mu), parse_rational(a), parse_rational(b)
    if not 0 <= a < mu < b <= 1:
        got = f"a={shown(a, str)}, mu={shown(mu, str)}, b={shown(b, str)}"
        raise InvariantError(f"need 0 <= a < mu < b <= 1, got {got}")
    return mu, a, b


def binary_base(mu, a, b) -> BinaryBase:
    """Closed-form base for two-state laws whose beliefs take the two values a < mu < b.

    The high atom (mu - a) * b / ((b - a) * mu) carries weight mu, the low atom
    (mu - a) * (1 - b) / ((b - a) * (1 - mu)) carries weight 1 - mu; the result
    is oriented with `a` the low atom and alpha = 1 - mu. Both are built over d,
    the product of the denominators, from M = mu * d, A = a * d and B = b * d.
    """
    mu, a, b = binary_bracket(mu, a, b)
    d = mu.denominator * a.denominator * b.denominator
    M, A, B = (v.numerator * (d // v.denominator) for v in (mu, a, b))
    high = Fraction((M - A) * B, (B - A) * M)
    low = Fraction((M - A) * (d - B), (B - A) * (d - M))
    return BinaryBase(a=low, b=high, alpha=1 - mu)
