import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _lawgen import random_binary_posterior_law
from poplaw import (
    Belief,
    DiscreteMeasure,
    EmpiricalDistribution,
    InvariantError,
    MeanMismatch,
    PopulationLaw,
    Prior,
    PriorInconsistencyError,
    barycenter,
    base_law,
    binary_base,
    check_feasible,
    conditional_tilt,
    enumerate_grid_structures,
    induced_population_law,
    is_mps_binary_base,
)

HALF = Prior.binary(F(1, 2))


def binary_family_law(n, a, b, weights):
    lo, hi = Belief.binary(a), Belief.binary(b)
    total = sum(weights)
    return PopulationLaw(
        n,
        [
            (EmpiricalDistribution(n, [(hi, k), (lo, n - k)]), F(w, total))
            for k, w in enumerate(weights)
            if w
        ],
    )


UNIFORM9 = binary_family_law(9, F(1, 4), F(3, 4), [1] * 10)
UNIFORM8 = binary_family_law(9, F(1, 4), F(3, 4), [0] + [1] * 8 + [0])


# --------------------------------------------------------- conditional tilt


def test_tilt_symmetric_pair():
    tp = DiscreteMeasure([(Belief.binary(F(1, 4)), F(1, 2)), (Belief.binary(F(3, 4)), F(1, 2))])
    assert conditional_tilt(tp, HALF, 1) == DiscreteMeasure(
        [(Belief.binary(F(1, 4)), F(1, 4)), (Belief.binary(F(3, 4)), F(3, 4))]
    )


def test_tilt_of_no_information():
    mu = Prior.binary(F(2, 7))
    tp = DiscreteMeasure.dirac(mu.belief)
    for state in range(2):
        assert conditional_tilt(tp, mu, state) == tp


def test_tilt_low_state():
    tp = DiscreteMeasure([(Belief.binary(F(1, 3)), F(1, 2)), (Belief.binary(F(2, 3)), F(1, 2))])
    assert conditional_tilt(tp, HALF, 0) == DiscreteMeasure(
        [(Belief.binary(F(1, 3)), F(2, 3)), (Belief.binary(F(2, 3)), F(1, 3))]
    )


def test_tilt_rejects_inconsistent_prior():
    tp = DiscreteMeasure.dirac(Belief.binary(F(1, 3)))
    with pytest.raises(PriorInconsistencyError) as err:
        conditional_tilt(tp, HALF, 1)
    assert err.value.barycenter == Belief.binary(F(1, 3))
    assert err.value.prior == Belief.binary(F(1, 2))


def test_tilt_drops_zero_coordinate_atoms():
    tp = DiscreteMeasure([(Belief.binary(0), F(1, 2)), (Belief.binary(1), F(1, 2))])
    assert conditional_tilt(tp, HALF, 1) == DiscreteMeasure.dirac(Belief.binary(1))


# --------------------------------------------------------- base law


def test_base_law_of_quarter_family():
    base = base_law(UNIFORM9, HALF)
    (w0, t0), (w1, t1) = base.components
    assert w0 == w1 == F(1, 2)
    assert t0 == DiscreteMeasure(
        [(Belief.binary(F(1, 4)), F(3, 4)), (Belief.binary(F(3, 4)), F(1, 4))]
    )
    assert t1 == DiscreteMeasure(
        [(Belief.binary(F(1, 4)), F(1, 4)), (Belief.binary(F(3, 4)), F(3, 4))]
    )
    # in fraction-of-high-posterior form the base is 1/2 at 1/4 and 1/2 at 3/4
    assert t0.mass(Belief.binary(F(3, 4))) == F(1, 4)
    assert t1.mass(Belief.binary(F(3, 4))) == F(3, 4)


def test_base_law_of_point_mass():
    mu = Prior.binary(F(3, 7))
    law = PopulationLaw.dirac(EmpiricalDistribution.constant(4, mu.belief))
    base = base_law(law, mu)
    assert all(t == DiscreteMeasure.dirac(mu.belief) for _, t in base.components)


def test_base_law_of_footnote_law():
    b13, b23 = Belief.binary(F(1, 3)), Belief.binary(F(2, 3))
    law = PopulationLaw(
        3,
        [
            (EmpiricalDistribution(3, [(b13, 2), (b23, 1)]), F(1, 2)),
            (EmpiricalDistribution(3, [(b23, 2), (b13, 1)]), F(1, 2)),
        ],
    )
    base = base_law(law, HALF)
    (_, t0), (_, t1) = base.components
    assert t0 == DiscreteMeasure([(b13, F(2, 3)), (b23, F(1, 3))])
    assert t1 == DiscreteMeasure([(b13, F(1, 3)), (b23, F(2, 3))])


# --------------------------------------------------------- check_feasible


def test_uniform9_feasible():
    verdict = check_feasible(UNIFORM9, HALF)
    assert verdict.feasible and verdict.prior_consistent
    assert verdict.decomposition is not None and verdict.certificate is None


def test_uniform8_infeasible():
    verdict = check_feasible(UNIFORM8, HALF)
    assert not verdict.feasible and verdict.prior_consistent
    assert verdict.decomposition is None and verdict.certificate is not None


def test_prior_mismatch_is_infeasible_not_an_error():
    verdict = check_feasible(UNIFORM9, Prior.binary(F(2, 5)))
    assert not verdict.feasible
    assert not verdict.prior_consistent
    assert verdict.base is None
    cert = verdict.certificate
    assert isinstance(cert, MeanMismatch)
    assert cert.left == Belief.binary(F(1, 2))
    assert cert.right == Belief.binary(F(2, 5))


# --------------------------------------------------------- binary base


def test_binary_base_quarter():
    base = binary_base(F(1, 2), F(1, 4), F(3, 4))
    assert (base.a, base.b, base.alpha) == (F(1, 4), F(3, 4), F(1, 2))


def test_binary_base_symmetric_family():
    for a in (F(1, 10), F(1, 5), F(2, 5)):
        base = binary_base(F(1, 2), a, 1 - a)
        assert (base.a, base.b, base.alpha) == (a, 1 - a, F(1, 2))


def test_binary_base_thirds():
    base = binary_base(F(1, 2), F(1, 3), F(2, 3))
    assert (base.a, base.b) == (F(1, 3), F(2, 3))


def test_binary_base_ordering_violation():
    with pytest.raises(InvariantError):
        binary_base(F(1, 4), F(1, 2), F(3, 4))  # mu below a


def test_binary_base_monotone_over_grid():
    grid = [F(p, q) for q in (3, 4, 5) for p in range(1, q)]
    for a in grid:
        for mu in grid:
            for b in grid:
                if not a < mu < b:
                    continue
                base = binary_base(mu, a, b)
                assert base.a < base.b
                assert 0 <= base.a and base.b <= 1


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=24)


@settings(max_examples=200, deadline=None)
@given(st.lists(unit_fractions, min_size=3, max_size=3, unique=True))
@example([F(0), F(1, 2), F(1)])
@example([F(0), F(1, 3), F(2, 5)])
@example([F(3, 7), F(1, 2), F(1)])
def test_binary_base_matches_the_textbook_formula(values):
    a, mu, b = sorted(values)
    base = binary_base(mu, a, b)
    high = (mu - a) * b / ((b - a) * mu)
    low = (mu - a) * (1 - b) / ((b - a) * (1 - mu))
    assert (base.a, base.b, base.alpha) == (low, high, 1 - mu)
    assert all(type(v) is F for v in (base.a, base.b, base.alpha))
    if b == 1:
        assert base.a == 0


# --------------------------------------------------------- cross-checks


def test_corollary_consistency_with_quantile_test():
    """check_feasible and the closed-form base + quantile test always agree."""
    rng = random.Random(7311)
    checked = 0
    for _ in range(400):
        law, prior, a, b, _ = random_binary_posterior_law(rng, max_n=5, max_denominator=8)
        mu = prior.coordinate(1)
        if not (0 < a < mu < b < 1):
            continue
        quick = is_mps_binary_base(scalar_form(law, b), binary_base(mu, a, b))
        full = check_feasible(law, prior)
        assert quick.is_spread == full.feasible
        checked += 1
    assert checked > 100


def scalar_form(law, high_value):
    """The law as a distribution over the fraction of agents at the high belief."""
    from poplaw import ScalarMeasure

    atoms = []
    for empirical, weight in law.atoms:
        count = sum(c for b, c in empirical.counts if b.coordinate(1) == high_value)
        atoms.append((F(count, law.n), weight))
    return ScalarMeasure(atoms)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=8),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[0],
    )
)
def test_mixture_identity(entries):
    """The prior-weighted tilts mix back to the measure itself."""
    total = sum(w for _, w in entries)
    measure = DiscreteMeasure(
        [(Belief.binary(x), F(w, total)) for x, w in entries]
    )
    center = barycenter(measure)
    if any(c == 0 for c in center.coords):
        return
    prior = Prior(center)
    mixed = {}
    for state in range(2):
        tilt = conditional_tilt(measure, prior, state)
        for b, w in tilt.atoms:
            mixed[b] = mixed.get(b, F(0)) + prior.coordinate(state) * w
    assert DiscreteMeasure(mixed.items()) == measure


def test_infeasible_law_has_no_small_grid_implementation():
    """Exhaustive search over kernel grids never induces an infeasible law."""
    split = PopulationLaw.dirac(
        EmpiricalDistribution(2, [(Belief.binary(0), 1), (Belief.binary(1), 1)])
    )
    assert not check_feasible(split, HALF).feasible
    seen = 0
    for denom in (1, 2, 3):
        for structure in enumerate_grid_structures(2, HALF, 2, denom):
            assert induced_population_law(structure) != split
            seen += 1
    assert seen > 400


def test_consistent_but_infeasible_three_agent_law():
    """A martingale-consistent law can still be infeasible; no grid structure induces it."""
    lo, hi = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))
    law = PopulationLaw(
        3,
        [
            (EmpiricalDistribution(3, [(hi, 1), (lo, 2)]), F(1, 2)),
            (EmpiricalDistribution(3, [(hi, 2), (lo, 1)]), F(1, 2)),
        ],
    )
    verdict = check_feasible(law, HALF)
    assert verdict.prior_consistent and not verdict.feasible
    # lower-half mean 1/3 exceeds the low base atom 1/4
    assert verdict.certificate.quantile_mean == F(1, 3)
    for denom in (1, 2):
        for structure in enumerate_grid_structures(3, HALF, 2, denom):
            assert induced_population_law(structure) != law


def test_feasible_law_found_by_grid_search():
    """Sanity for the search itself: a feasible public-signal law does appear."""
    lo, hi = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))
    target = PopulationLaw(
        2,
        [
            (EmpiricalDistribution(2, [(hi, 2)]), F(1, 2)),
            (EmpiricalDistribution(2, [(lo, 2)]), F(1, 2)),
        ],
    )
    assert check_feasible(target, HALF).feasible
    found = False
    for structure in enumerate_grid_structures(2, HALF, 2, 4):
        if induced_population_law(structure) == target:
            found = True
            break
    assert found
