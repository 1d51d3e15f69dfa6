import dataclasses
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lawgen import marginals, random_feasible_instance, scalar_measures
from poplaw import (
    Belief,
    DiscreteMeasure,
    EmpiricalDistribution,
    InvariantError,
    PopulationLaw,
    Prior,
    ScalarMeasure,
    barycenter,
    empirical_to_measure,
    law_expected_measure,
    quantile_distribution,
    upper_quantile_distribution,
)
from poplaw import jsonio


def binary(x):
    return Belief.binary(x)


# ---------------------------------------------------------------- invariants


def test_belief_validation():
    with pytest.raises(InvariantError):
        Belief([F(1, 2)])  # one state
    with pytest.raises(InvariantError):
        Belief([F(1, 2), F(1, 3)])  # does not sum to 1
    with pytest.raises(InvariantError):
        Belief([F(3, 2), F(-1, 2)])  # out of range
    with pytest.raises(InvariantError):
        Belief([0.5, 0.5])  # floats refused


def test_prior_requires_full_support():
    with pytest.raises(InvariantError):
        Prior([1, 0])
    assert Prior.binary(F(1, 2)).coordinate(1) == F(1, 2)


def test_measure_canonicalization():
    m1 = DiscreteMeasure([(binary(F(1, 2)), F(1, 4)), (binary(F(1, 2)), F(1, 4)), (binary(0), F(1, 2))])
    m2 = DiscreteMeasure([(binary(0), F(1, 2)), (binary(F(1, 2)), F(1, 2))])
    assert m1 == m2
    with pytest.raises(InvariantError):
        DiscreteMeasure([(binary(0), F(1, 2))])  # mass 1/2 only
    with pytest.raises(InvariantError):
        DiscreteMeasure([(binary(0), F(3, 2)), (binary(1), F(-1, 2))])


def test_empirical_counts_must_sum_to_n():
    # ten beliefs on a nine-agent population is rejected
    beliefs = [binary(F(k, 9)) for k in range(9)] + [binary(1)]
    with pytest.raises(InvariantError):
        EmpiricalDistribution(9, [(b, 1) for b in beliefs])
    ok = EmpiricalDistribution(2, [(binary(0), 1), (binary(1), 1)])
    assert dict(ok.counts) == {binary(0): 1, binary(1): 1}


def test_population_law_shares_n():
    e2 = EmpiricalDistribution(2, [(binary(0), 2)])
    e3 = EmpiricalDistribution(3, [(binary(0), 3)])
    with pytest.raises(InvariantError):
        PopulationLaw(2, [(e2, F(1, 2)), (e3, F(1, 2))])
    # and one state space: its expected measure would mix two
    ternary = EmpiricalDistribution(2, [(Belief([0, 0, 1]), 2)])
    with pytest.raises(InvariantError, match="one state space"):
        PopulationLaw(2, [(e2, F(1, 2)), (ternary, F(1, 2))])


# ---------------------------------------------------------------- operations


def test_barycenter_symmetric_pair():
    m = DiscreteMeasure([(binary(F(1, 4)), F(1, 2)), (binary(F(3, 4)), F(1, 2))])
    assert barycenter(m) == binary(F(1, 2))


def test_barycenter_dirac_identity():
    x = binary(F(2, 7))
    assert barycenter(DiscreteMeasure.dirac(x)) == x


def test_barycenter_weighted():
    m = DiscreteMeasure([(binary(F(1, 3)), F(2, 3)), (binary(F(2, 3)), F(1, 3))])
    assert barycenter(m) == binary(F(4, 9))


def test_empirical_to_measure():
    x = binary(F(1, 5))
    assert empirical_to_measure(EmpiricalDistribution(2, [(x, 2)])) == DiscreteMeasure.dirac(x)
    e = EmpiricalDistribution(3, [(binary(F(1, 3)), 2), (binary(F(2, 3)), 1)])
    assert empirical_to_measure(e) == DiscreteMeasure(
        [(binary(F(1, 3)), F(2, 3)), (binary(F(2, 3)), F(1, 3))]
    )


def test_law_expected_measure_dirac():
    e = EmpiricalDistribution(3, [(binary(F(1, 3)), 2), (binary(F(2, 3)), 1)])
    assert law_expected_measure(PopulationLaw.dirac(e)) == empirical_to_measure(e)


def test_law_expected_measure_uniform_binary_family():
    lo, hi = binary(F(1, 4)), binary(F(3, 4))
    law = PopulationLaw(
        9,
        [
            (EmpiricalDistribution(9, [(hi, k), (lo, 9 - k)]), F(1, 10))
            for k in range(10)
        ],
    )
    assert law_expected_measure(law) == DiscreteMeasure([(lo, F(1, 2)), (hi, F(1, 2))])


def test_law_expected_measure_two_empiricals():
    b13, b23 = binary(F(1, 3)), binary(F(2, 3))
    law = PopulationLaw(
        3,
        [
            (EmpiricalDistribution(3, [(b13, 2), (b23, 1)]), F(1, 2)),
            (EmpiricalDistribution(3, [(b23, 2), (b13, 1)]), F(1, 2)),
        ],
    )
    assert law_expected_measure(law) == DiscreteMeasure([(b13, F(1, 2)), (b23, F(1, 2))])


def test_quantile_binomial_half():
    m = ScalarMeasure([(0, F(1, 4)), (F(1, 2), F(1, 2)), (1, F(1, 4))])
    assert quantile_distribution(m, F(1, 2)) == ScalarMeasure(
        [(0, F(1, 2)), (F(1, 2), F(1, 2))]
    )


def test_quantile_full_level_is_identity():
    m = ScalarMeasure([(F(1, 3), F(2, 5)), (F(3, 4), F(3, 5))])
    assert quantile_distribution(m, 1) == m


def test_quantile_uniform_ten_points():
    m = ScalarMeasure([(F(k, 9), F(1, 10)) for k in range(10)])
    sliced = quantile_distribution(m, F(1, 2))
    assert sliced == ScalarMeasure([(F(k, 9), F(1, 5)) for k in range(5)])
    assert sliced.mean() == F(2, 9)


def test_quantile_level_out_of_range():
    m = ScalarMeasure([(0, 1)])
    with pytest.raises(InvariantError):
        quantile_distribution(m, 0)
    with pytest.raises(InvariantError):
        quantile_distribution(m, F(3, 2))


def test_quantile_drops_zero_leftover():
    # the cut lands exactly on a cumulative sum: the next atom gets nothing
    m = ScalarMeasure([(0, F(1, 2)), (1, F(1, 2))])
    assert quantile_distribution(m, F(1, 2)) == ScalarMeasure([(0, 1)])


def test_projection_merges_collisions():
    from poplaw import project

    b1 = Belief([F(1, 2), F(1, 4), F(1, 4)])
    b2 = Belief([F(1, 4), F(1, 4), F(1, 2)])
    m = DiscreteMeasure([(b1, F(1, 3)), (b2, F(2, 3))])
    # both beliefs share the middle coordinate, so the projection is a point mass
    assert project(m, 1) == ScalarMeasure([(F(1, 4), 1)])
    assert project(m, 0) == ScalarMeasure([(F(1, 4), F(2, 3)), (F(1, 2), F(1, 3))])


# ---------------------------------------------------------------- cached hashes


def test_cached_hashes_equal_the_dataclass_hashes():
    third = Belief([F(1, 3), F(1, 3), F(1, 3)])
    for belief in (binary(F(1, 4)), binary(0), third, Belief(["1/6", "1/2", "1/3"])):
        assert hash(belief) == hash((belief.coords,))
        assert hash(belief) == hash((belief.coords,))  # again, from the cache
    lo, hi = binary(F(1, 4)), binary(F(3, 4))
    for empirical in (
        EmpiricalDistribution(5, [(hi, 2), (lo, 3)]),
        EmpiricalDistribution.constant(2, lo),
        EmpiricalDistribution(3, [(third, 3)]),
    ):
        assert hash(empirical) == hash((empirical.n, empirical.counts))
        assert hash(empirical) == hash((empirical.n, empirical.counts))


def test_equal_values_built_apart_hash_alike():
    text = '[["1/4", "3/4"], ["0.25", "0.75"], ["2/8", "6/8"]]'
    a, b, c = (jsonio.belief_from_json(x) for x in jsonio.loads(text))
    d = binary(F(3, 4))
    assert a == b == c == d and a is not b
    assert len({hash(x) for x in (a, b, c, d)}) == 1
    hash(a)  # a keeps its hash; b has none yet
    e1 = EmpiricalDistribution(2, [(a, 1), (b, 1)])
    e2 = EmpiricalDistribution(2, [(c, 2)])
    assert e1 == e2 and hash(e1) == hash(e2)
    assert len({a, b, c, d}) == 1 and len({e1, e2}) == 1
    copy = pickle.loads(pickle.dumps(e1))
    assert copy == e1 and hash(copy) == hash(e1)


def test_cached_hash_leaves_fields_repr_and_order_alone():
    assert [f.name for f in dataclasses.fields(Belief)] == ["coords"]
    assert [f.name for f in dataclasses.fields(EmpiricalDistribution)] == ["n", "counts"]
    lo, hi = binary(F(1, 4)), binary(F(3, 4))
    empirical = EmpiricalDistribution(2, [(lo, 1), (hi, 1)])
    for value in (lo, empirical):
        before = repr(value)
        hash(value)
        assert repr(value) == before
    assert repr(lo) == "Belief(coords=(Fraction(3, 4), Fraction(1, 4)))"
    assert repr(empirical) == (
        "EmpiricalDistribution(n=2, counts=((Belief(coords=(Fraction(1, 4), Fraction(3, 4))), 1),"
        " (Belief(coords=(Fraction(3, 4), Fraction(1, 4))), 1)))"
    )
    assert hi < lo and sorted([lo, hi]) == [hi, lo]
    assert EmpiricalDistribution.constant(2, hi) < EmpiricalDistribution.constant(2, lo)
    assert EmpiricalDistribution.constant(1, lo) < EmpiricalDistribution.constant(2, hi)


# ---------------------------------------------------------------- properties

rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def belief_measures(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    highs = draw(st.lists(rationals01, min_size=k, max_size=k, unique=True))
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k)
    )
    total = sum(weights)
    return DiscreteMeasure(
        [(Belief.binary(h), F(w, total)) for h, w in zip(highs, weights)]
    )


@settings(max_examples=150, deadline=None)
@given(belief_measures(), belief_measures(), rationals01)
def test_barycenter_is_linear(m1, m2, lam):
    if lam in (0, 1):
        return
    mixture_atoms = {}
    for weight_scale, m in ((lam, m1), ((1 - lam), m2)):
        for b, w in m.atoms:
            mixture_atoms[b] = mixture_atoms.get(b, F(0)) + weight_scale * w
    mixture = DiscreteMeasure(mixture_atoms.items())
    direct = barycenter(mixture)
    combined = Belief(
        lam * c1 + (1 - lam) * c2
        for c1, c2 in zip(barycenter(m1).coords, barycenter(m2).coords)
    )
    assert direct == combined


def plain_barycenter(measure):
    return tuple(
        sum((w * b.coords[i] for b, w in measure.atoms), F(0)) for i in range(measure.dimension)
    )


@settings(max_examples=150, deadline=None)
@given(marginals())
def test_barycenter_is_the_plain_fraction_sum(measure):
    assert barycenter(measure).coords == plain_barycenter(measure)


@pytest.mark.parametrize("seed", range(40))
def test_law_expected_measure_is_the_plain_fraction_sum(seed):
    law, _ = random_feasible_instance(random.Random(seed))
    totals = {}
    for empirical, weight in law.atoms:
        for belief, count in empirical.counts:
            totals[belief] = totals.get(belief, F(0)) + weight * F(count, law.n)
    expected = law_expected_measure(law)
    assert expected.atoms == tuple(sorted(totals.items()))
    assert barycenter(expected).coords == plain_barycenter(expected)


@settings(max_examples=200, deadline=None)
@given(scalar_measures(), st.fractions(min_value=0, max_value=1, max_denominator=10))
def test_complementary_quantile_identity(m, alpha):
    # alpha*E[lower] + (1-alpha)*E[upper] recovers the mean exactly
    if alpha in (0, 1):
        return
    lower = quantile_distribution(m, alpha)
    upper = upper_quantile_distribution(m, 1 - alpha)
    assert alpha * lower.mean() + (1 - alpha) * upper.mean() == m.mean()
    assert sum(w for _, w in lower.atoms) == 1


@settings(max_examples=100, deadline=None)
@given(scalar_measures())
def test_quantile_total_mass(m):
    sliced = quantile_distribution(m, F(1, 3))
    assert sum(w for _, w in sliced.atoms) == 1
