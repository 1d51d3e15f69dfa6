import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poplaw import (
    Belief,
    EmpiricalDistribution,
    InvariantError,
    PopulationLaw,
    Prior,
    ResourceLimitError,
    expected_polarization,
    induced_population_law,
    max_polarization,
    polarization_bounds,
    pol,
    reveal_half_structure,
    search_max_polarization,
    variance,
)
from poplaw import enumerate_grid_structures
from poplaw.polarization import _jensen_row
from poplaw.rationals import over_common_denominator
from poplaw.structures import InformationStructure

from _lawgen import (
    margin_groups,
    reference_pair_bound,
    reference_polarization_bound,
    reference_search_max_polarization,
)

HALF = Prior.binary(F(1, 2))


def example_three_agents():
    tab0 = [
        (("s1", "s1", "r0"), F(1, 3)),
        (("s1", "s2", "r0"), F(1, 3)),
        (("s2", "s1", "r0"), F(1, 3)),
    ]
    tab1 = [
        (("s1", "s2", "r1"), F(1, 3)),
        (("s2", "s1", "r1"), F(1, 3)),
        (("s2", "s2", "r1"), F(1, 3)),
    ]
    return InformationStructure(
        3, HALF, [("s1", "s2"), ("s1", "s2"), ("r0", "r1")], [tab0, tab1]
    )


# ----------------------------------------------------------- variance / pol


def test_variance_two_point_symmetric():
    h = EmpiricalDistribution(4, [(Belief.binary(0), 2), (Belief.binary(1), 2)])
    assert variance(h, 1) == F(1, 4)


def test_variance_degenerate():
    h = EmpiricalDistribution.constant(5, Belief.binary(F(2, 7)))
    assert variance(h, 1) == 0


def test_variance_pair_formula():
    rng = random.Random(4)
    for _ in range(25):
        x1 = F(rng.randint(0, 8), 8)
        x2 = F(rng.randint(0, 8), 8)
        if x1 == x2:
            continue
        h = EmpiricalDistribution(2, [(Belief.binary(x1), 1), (Belief.binary(x2), 1)])
        assert variance(h, 1) == (x1 - x2) ** 2 / 4


def test_pol_degenerate_and_binary_relation():
    h = EmpiricalDistribution.constant(3, Belief.binary(F(1, 3)))
    assert pol(h) == 0
    h2 = EmpiricalDistribution(3, [(Belief.binary(F(1, 4)), 2), (Belief.binary(1), 1)])
    assert pol(h2) == 2 * variance(h2, 1)


def test_pol_three_state_vertices():
    e1 = Belief([1, 0, 0])
    e2 = Belief([0, 1, 0])
    h = EmpiricalDistribution(2, [(e1, 1), (e2, 1)])
    # per-coordinate variances 1/4, 1/4, 0; the norm form agrees
    assert pol(h) == F(1, 2)


def test_pol_norm_equivalence_random():
    rng = random.Random(12)
    pool = [
        Belief([F(i, 4), F(j, 4), F(4 - i - j, 4)])
        for i in range(5)
        for j in range(5 - i)
    ]
    for _ in range(40):
        n = rng.randint(1, 5)
        beliefs = [rng.choice(pool) for _ in range(n)]
        counts = {}
        for b in beliefs:
            counts[b] = counts.get(b, 0) + 1
        h = EmpiricalDistribution(n, counts.items())
        center = [sum(b.coords[i] for b in beliefs) / n for i in range(3)]
        by_distance = sum(
            sum((c - m) ** 2 for c, m in zip(b.coords, center)) for b in beliefs
        ) / n
        assert pol(h) == by_distance


# ----------------------------------------------------------- expectations


def test_expected_polarization_of_example_law():
    law = induced_population_law(example_three_agents())
    assert expected_polarization(law) == F(14, 243)
    assert expected_polarization(law) > F(1, 18)


def test_expected_polarization_point_mass_zero():
    law = PopulationLaw.dirac(EmpiricalDistribution.constant(4, HALF.belief))
    assert expected_polarization(law) == 0


@pytest.mark.parametrize("n", [2, 4, 6, 1, 3, 5])
@pytest.mark.parametrize("mu", [F(1, 4), F(1, 2), F(2, 3)])
def test_reveal_half_attains_bound_even(n, mu):
    """mu(1-mu)/4 for even n, the bracket's lower end (1 - 1/n^2) mu(1-mu)/4 for odd n."""
    prior = Prior.binary(mu)
    law = induced_population_law(reveal_half_structure(n, prior))
    bound = mu * (1 - mu) / 4
    closed_form = bound if n % 2 == 0 else (1 - F(1, n * n)) * bound
    assert expected_polarization(law) == closed_form
    report = max_polarization(n, prior)
    assert report.value == closed_form
    assert expected_polarization(induced_population_law(report.structure)) == closed_form


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reveal_half_attains_closed_form_three_states(n):
    prior = Prior([F(1, 2), F(1, 3), F(1, 6)])
    bound = sum(c * (1 - c) for c in prior.coords) / 4
    closed_form = bound if n % 2 == 0 else (1 - F(1, n * n)) * bound
    report = max_polarization(n, prior)
    law = induced_population_law(report.structure)
    assert expected_polarization(law) == report.value == closed_form


# ----------------------------------------------------------- reports


def test_report_even_four_agents():
    report = max_polarization(4, HALF)
    assert report.value == F(1, 16)
    assert report.lower_bound == report.upper_bound == F(1, 16)
    assert expected_polarization(induced_population_law(report.structure)) == F(1, 16)


def test_report_odd_three_agents():
    report = max_polarization(3, HALF)
    assert report.lower_bound == F(1, 18)
    assert report.upper_bound == F(1, 16)
    assert report.value == F(1, 18)
    # the correlated example beats sending all-or-nothing information
    law = induced_population_law(example_three_agents())
    assert expected_polarization(law) == F(14, 243) > F(1, 18)


def test_report_two_agents_quarter_prior():
    report = max_polarization(2, Prior.binary(F(1, 4)))
    assert report.value == F(3, 64)


def test_report_multi_state():
    prior = Prior([F(1, 2), F(1, 4), F(1, 4)])
    report = max_polarization(4, prior)
    expected = (F(1, 2) * F(1, 2) + F(1, 4) * F(3, 4) + F(1, 4) * F(3, 4)) / 4
    assert report.value == report.upper_bound == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("prior", [HALF, Prior.binary(F(1, 4)), Prior([F(1, 2), F(1, 3), F(1, 6)])])
def test_bounds_are_the_report_bracket(n, prior):
    report = max_polarization(n, prior)
    assert polarization_bounds(n, prior) == (report.lower_bound, report.upper_bound)
    assert report.value == report.lower_bound


def test_report_rejects_zero_population():
    with pytest.raises(InvariantError):
        max_polarization(0, HALF)


# ----------------------------------------------------------- bound checks


@pytest.mark.parametrize("n,denom", [(2, 2), (2, 3), (3, 2), (4, 1)])
def test_upper_bound_over_grid_structures(n, denom):
    bound = F(1, 16)
    for structure in enumerate_grid_structures(n, HALF, 2, denom):
        law = induced_population_law(structure)
        assert expected_polarization(law) <= bound


def test_search_even_population_hits_bound():
    best, structure = search_max_polarization(2, HALF, denominator=2)
    assert best == F(1, 16)
    assert expected_polarization(induced_population_law(structure)) == best


def test_search_three_agents_denominator_three():
    """The thirds grid contains a structure attaining the even-n bound at n=3."""
    best, structure = search_max_polarization(3, HALF, denominator=3)
    assert best == F(1, 16)
    assert expected_polarization(induced_population_law(structure)) == F(1, 16)


def test_grid_size_checked_before_enumeration():
    # C(10 + 63, 63)**2 is about 3.9e23 kernel pairs
    message = (
        "grid enumeration needs more than 1000000 kernel pairs; raise the bound or shrink the grid"
    )
    with pytest.raises(ResourceLimitError) as info:
        search_max_polarization(6, HALF, denominator=10)
    assert str(info.value) == message
    with pytest.raises(ResourceLimitError):
        next(enumerate_grid_structures(6, HALF, 2, 10))


@pytest.mark.parametrize(
    "call",
    [
        lambda: search_max_polarization(10**9, HALF, 2, 2),
        lambda: next(enumerate_grid_structures(10**9, HALF, 2, 2)),
    ],
    ids=["search", "enumerate"],
)
def test_grid_refuses_a_huge_population_without_the_power(call):
    # at least 2**(2n) kernel pairs: n alone passes the bound, so 2**n is never built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        call()
    assert time.perf_counter() - start < 0.5


def test_reveal_half_size_checked_before_building(monkeypatch):
    # two profiles of n labels each, against the default bound of 10**6
    for n in (500_001, 10**20):
        with pytest.raises(ResourceLimitError):
            max_polarization(n, HALF)
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "10")
    assert reveal_half_structure(5, HALF).n == 5
    with pytest.raises(ResourceLimitError) as info:
        reveal_half_structure(6, HALF)
    message = "reveal-half structure needs more than 10 profile labels; raise the bound"
    assert str(info.value) == message


def test_grid_bound_follows_the_environment(monkeypatch):
    # n = 2, denominator 2: C(5, 3) = 10 weight vectors, so 100 kernel pairs
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "99")
    with pytest.raises(ResourceLimitError):
        search_max_polarization(2, HALF, denominator=2)
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "100")
    assert len(list(enumerate_grid_structures(2, HALF, 2, 2))) == 100


# ----------------------------------------------------------- search oracle

# (n, signals, denominator) with at most 1,300 grid structures each
SMALL_GRIDS = [
    (n, s, d)
    for n in (1, 2, 3)
    for s in (2, 3)
    for d in (1, 2, 3)
    if math.comb(d + s**n - 1, s**n - 1) ** 2 <= 1300
]
SMALL_PRIORS = sorted({F(p, q) for q in range(2, 13) for p in range(1, q)})
LONG_PRIOR = F(1000003, 2000000)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SMALL_GRIDS),
    st.one_of(st.sampled_from(SMALL_PRIORS), st.just(LONG_PRIOR)),
)
@example((3, 2, 2), LONG_PRIOR)
@example((1, 3, 3), F(1, 3))
@example((2, 3, 1), F(5, 12))
@example((2, 2, 3), LONG_PRIOR)
def test_search_matches_brute_force_first_maximizer(grid, mu):
    """The best value on the grid, and the first structure in enumeration order that attains it."""
    n, signals, denominator = grid
    prior = Prior.binary(mu)
    best, first = None, None
    for structure in enumerate_grid_structures(n, prior, signals, denominator):
        value = expected_polarization(induced_population_law(structure))
        if best is None or value > best:
            best, first = value, structure
    assert search_max_polarization(n, prior, signals, denominator) == (best, first)


# grids past brute force, up to about 2 * 10**4 kernel pairs, plus one signal per agent
REFERENCE_GRIDS = [
    (2, 2, 4), (2, 2, 5), (2, 2, 6), (3, 2, 2), (3, 2, 3), (4, 2, 1), (4, 2, 2),
    (5, 2, 1), (2, 3, 2), (1, 3, 3), (3, 1, 3),
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(REFERENCE_GRIDS),
    st.one_of(st.sampled_from(SMALL_PRIORS), st.just(LONG_PRIOR)),
)
@example((4, 2, 1), F(1, 2))
@example((3, 2, 2), F(1, 2))
@example((2, 2, 6), F(1, 2))
# the first maximizer's state-0 margin group holds more than one vector of least mass
# term, and only the first of them is the first maximizer's
@example((5, 2, 2), F(3, 5))
def test_search_matches_the_full_pair_scan(grid, mu):
    """One state-0 group per relabeling orbit finds the full scan's value and first maximizer."""
    n, signals, denominator = grid
    prior = Prior.binary(mu)
    expected = reference_search_max_polarization(n, prior, signals, denominator)
    assert search_max_polarization(n, prior, signals, denominator) == expected


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(SMALL_GRIDS),
    st.one_of(st.sampled_from(SMALL_PRIORS), st.just(LONG_PRIOR)),
)
@example((3, 2, 2), LONG_PRIOR)
@example((2, 2, 3), F(1, 2))
def test_jensen_bound_holds_on_every_grid_structure(grid, mu):
    """Each structure's expected polarization is at most the bound from its slots alone."""
    n, signals, denominator = grid
    for structure in enumerate_grid_structures(n, Prior.binary(mu), signals, denominator):
        value = expected_polarization(induced_population_law(structure))
        assert value <= reference_polarization_bound(structure)


def test_jensen_bound_is_tight_when_the_state_fixes_the_average():
    # reveal-half at n = 2: given the state, the average posterior is 1/4 or 3/4
    structure = reveal_half_structure(2, HALF)
    assert reference_polarization_bound(structure) == F(1, 16)
    assert expected_polarization(induced_population_law(structure)) == F(1, 16)


@pytest.mark.parametrize(
    "mu", [F(1, 3), F(5, 12), LONG_PRIOR, F(10**400 + 7, 3 * 10**400)],
    ids=["third", "five-twelfths", "long", "huge"],
)
@pytest.mark.parametrize(
    "grid", [(1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2), (4, 2, 1), (3, 1, 2)],
    ids=["n1-s3-d3", "n2-d3", "n2-s3-d2", "n3-d2", "n4-d1", "n3-s1-d2"],
)
def test_jensen_row_is_the_per_pair_bound(grid, mu):
    """Each row's table gives every margin-group pair exactly its per-pair Jensen bound."""
    n, signals, denominator = grid
    weights, _ = over_common_denominator(Prior.binary(mu).coords)
    *_, groups = margin_groups(n, signals, denominator)
    margins = list(groups)
    for margin0 in margins:
        bounds, scale = _jensen_row(margin0, margins, weights, n, denominator)
        expected = [reference_pair_bound(margin0, m1, weights, n, denominator) for m1 in margins]
        assert [F(b, scale) for b in bounds] == expected


@pytest.mark.parametrize(
    "mu",
    [F(1, 3 * 10**400), F(10**300 + 7, 3 * 10**300), F(10**400 + 7, 3 * 10**400)],
    ids=["tiny", "long", "longer"],
)
@pytest.mark.parametrize("grid", [(2, 2, 3), (3, 2, 2)], ids=["n2-d3", "n3-d2"])
def test_search_with_a_huge_prior_denominator(grid, mu):
    # each row's bounds are integers over one scale, the lcm of hundreds-digit totals,
    # and are sorted and compared exactly: a float of them would overflow at the longer prior
    n, signals, denominator = grid
    prior = Prior.binary(mu)
    expected = reference_search_max_polarization(n, prior, signals, denominator)
    assert search_max_polarization(n, prior, signals, denominator) == expected


@pytest.mark.parametrize(
    "n,signals,denominator,mu,budget",
    [
        (5, 2, 2, F(2, 5), 0.5),
        (9, 2, 1, F(1, 3), 3.0),
        (2, 2, 15, LONG_PRIOR, 0.5),
        (3, 2, 5, LONG_PRIOR, 0.5),
        (4, 2, 3, LONG_PRIOR, 0.5),
        (2, 3, 4, LONG_PRIOR, 0.5),
        (2, 4, 3, LONG_PRIOR, 0.5),
    ],
    ids=["n5-d2", "n9-d1", "n2-d15", "n3-d5", "n4-d3", "n2-s3-d4", "n2-s4-d3"],
)
def test_search_time_on_admitted_grids(n, signals, denominator, mu, budget):
    # the full pair scan took over 1 s at (5, 2, 2) and over a minute at (9, 2, 1);
    # at (9, 2, 1) the tie stage must stop once groups start past the best i0;
    # the other grids are the largest admitted of their shape, at most 816 vectors each
    start = time.perf_counter()
    search_max_polarization(n, Prior.binary(mu), signals, denominator)
    assert time.perf_counter() - start < budget
