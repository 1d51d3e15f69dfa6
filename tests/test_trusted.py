"""Values built without constructor checks equal their rebuild through the public constructors.

The library skips the checks only where it proves the fields canonical (see
the `measures` module docstring). Each such value must come back from its
public constructor with the same fields in the same order, the same number
types and the same hash.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from _lawgen import (
    marginals,
    random_binary_posterior_law,
    random_feasible_instance,
    scalar_measures,
    two_belief_spreads,
)
from poplaw import (
    Belief,
    EmpiricalDistribution,
    InformationStructure,
    PopulationLaw,
    SpreadDecomposition,
    SpreadTarget,
    SymmetricProduct,
    barycenter,
    base_law,
    bayes_posterior,
    check_feasible,
    conditional_tilt,
    expand_scheme,
    induced_population_law,
    law_expected_measure,
    mps_decompose,
    multinomial_law,
    quantile_distribution,
    simulate,
    synthesize,
    upper_quantile_distribution,
    verify_decomposition,
)
from poplaw import jsonio

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_canonical(value):
    cls = type(value)
    names = [field.name for field in dataclasses.fields(cls)]
    public = cls(*(getattr(value, name) for name in names))
    for name in names:
        assert getattr(public, name) == getattr(value, name)
    assert hash(public) == hash(value)
    if cls is Belief:
        assert all(type(c) is F for c in value.coords)
    elif cls is EmpiricalDistribution:
        assert all(type(c) is int for _, c in value.counts)
    else:
        assert all(type(w) is F for _, w in value.atoms)
        for point, _ in value.atoms:
            if isinstance(point, EmpiricalDistribution):
                assert_canonical(point)


def assert_law_parts_canonical(evidence):
    if isinstance(evidence, SpreadDecomposition):
        for _, part in evidence.components:
            assert_canonical(part)


def _laws(seed):
    rng = random.Random(seed)
    law, prior = random_feasible_instance(rng)
    yield law, prior
    law, prior, _, _, consistent = random_binary_posterior_law(rng)
    if consistent:
        yield law, prior


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_expected_measures_and_barycenters(seed):
    for law, _ in _laws(seed):
        expected = law_expected_measure(law)
        assert_canonical(expected)
        assert_canonical(barycenter(expected))


def test_expected_measure_of_beliefs_met_out_of_order():
    # the first atom's second belief is above a belief that only the second atom holds
    lo, mid, hi = (Belief.binary(x) for x in (0, F(1, 2), 1))
    law = PopulationLaw(
        2,
        [
            (EmpiricalDistribution(2, [(lo, 1), (hi, 1)]), F(1, 2)),
            (EmpiricalDistribution(2, [(mid, 2)]), F(1, 2)),
        ],
    )
    assert_canonical(law_expected_measure(law))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_base_law_components_equal_conditional_tilts(seed):
    for law, prior in _laws(seed):
        expected = law_expected_measure(law)
        target = base_law(law, prior)
        public = SpreadTarget(target.components)
        assert public.components == target.components and hash(public) == hash(target)
        assert all(type(weight) is F for weight, _ in target.components)
        for state, (weight, measure) in enumerate(target.components):
            public = conditional_tilt(expected, prior, state)
            assert weight == prior.coordinate(state)
            assert measure.atoms == public.atoms
            assert_canonical(measure)


@settings(max_examples=150, deadline=None)
@given(scalar_measures(), st.fractions(min_value=F(1, 10), max_value=1, max_denominator=10))
def test_quantile_slices(measure, alpha):
    assert_canonical(quantile_distribution(measure, alpha))
    assert_canonical(upper_quantile_distribution(measure, alpha))


@settings(max_examples=80, deadline=None)
@given(marginals(), st.integers(min_value=1, max_value=5))
def test_multinomial_laws(marginal, n):
    assert_canonical(multinomial_law(SymmetricProduct(marginal, n)))


@settings(max_examples=150, deadline=None)
@given(two_belief_spreads())
def test_two_belief_shortcut_parts(instance):
    # every instance is spread, so the shortcut splits the law into two parts
    law, target = instance
    result = mps_decompose(law, target)
    assert isinstance(result, SpreadDecomposition) and verify_decomposition(law, target, result)
    assert_law_parts_canonical(result)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_decomposition_parts_on_both_routes(seed):
    for law, prior in _laws(seed):
        verdict = check_feasible(law, prior)
        assert_law_parts_canonical(verdict.decomposition)
        assert_law_parts_canonical(mps_decompose(law, verdict.base, route="lp"))


def assert_structure_canonical(structure):
    """The structure, its induced law and every posterior equal their public rebuilds."""
    public = InformationStructure(
        structure.n, structure.prior, structure.signal_sets, structure.kernel
    )
    assert public.signal_sets == structure.signal_sets
    assert public.kernel == structure.kernel
    assert hash(public) == hash(structure)
    assert all(type(prob) is F for state in structure.kernel for _, prob in state)
    assert_canonical(induced_population_law(structure))
    for agent, labels in enumerate(structure.signal_sets):
        for label in labels:
            assert_canonical(bayes_posterior(structure, agent, label))


def _scheme(law, prior):
    return synthesize(law, prior, check_feasible(law, prior).decomposition)


def _expanded(law, prior):
    return expand_scheme(_scheme(law, prior))


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_expanded_structures_laws_and_posteriors(seed):
    # random_feasible_instance draws three states a quarter of the time
    law, prior = random_feasible_instance(random.Random(seed))
    structure = _expanded(law, prior)
    assert_structure_canonical(structure)
    assert induced_population_law(structure) == law


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=300))
def test_simulated_laws(seed, samples):
    # two or three states; the states of a synthesized scheme mostly share
    # some of their empirical distributions, whose counts simulate merges
    scheme = _scheme(*random_feasible_instance(random.Random(seed)))
    assert_canonical(simulate(scheme, samples, seed))


def _three_state_golden_problem():
    problem = jsonio.loads((Path(__file__).parent / "data" / "three_state_n2.json").read_text())
    return jsonio.law_from_json(problem["law"]), jsonio.prior_from_json(problem["mu"])


def test_three_state_golden_problem():
    structure = _expanded(*_three_state_golden_problem())
    assert structure.m == 3
    assert_structure_canonical(structure)


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=300))
def test_simulated_laws_of_the_three_state_golden_problem(seed, samples):
    scheme = _scheme(*_three_state_golden_problem())
    # every two of its three states share an empirical distribution
    supports = [set(state_law.support()) for state_law in scheme.state_laws]
    assert all(a & b for a, b in itertools.combinations(supports, 2))
    assert_canonical(simulate(scheme, samples, seed))
