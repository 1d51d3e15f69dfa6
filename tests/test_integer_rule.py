"""The one integer rule and the one quantile-level rule, at every public entry."""

from fractions import Fraction as F

import pytest

from poplaw import (
    Belief,
    EmpiricalDistribution,
    InvariantError,
    PersuasionInstance,
    PopulationLaw,
    Prior,
    ScalarMeasure,
    SenderUtility,
    SymmetricProduct,
    binomial_quantile_expectation,
    enumerate_grid_structures,
    jsonio,
    max_polarization,
    polarization_bounds,
    persuasion_limit_value,
    persuasion_policy,
    quantile_distribution,
    reveal_half_structure,
    search_max_polarization,
    simulate,
    symmetric_threshold,
    threshold_curve,
    upper_quantile_distribution,
)
from poplaw.product import binary_marginal
from poplaw.rationals import format_decimal, parse_quantile_level, require_int
from poplaw.structures import InformationStructure, max_profiles_bound, weight_grid

HALF = Prior.binary(F(1, 2))
BELIEF = Belief.binary(F(1, 2))
OTHER = Belief.binary(F(1, 4))
EMPIRICAL = EmpiricalDistribution.constant(1, BELIEF)
SCHEME = persuasion_policy(
    PersuasionInstance(1, "1/4", "1/2", SenderUtility.linear(1))
).scheme


def _scheme_with_state(state):
    payload = jsonio.loads(jsonio.dumps(jsonio.scheme_to_json(SCHEME)))
    payload["state_laws"][0]["state"] = state
    return jsonio.scheme_from_json(payload)


# (entry, call with the argument under test, smallest value the entry accepts)
ENTRIES = [
    ("EmpiricalDistribution.n", lambda v: EmpiricalDistribution(v, [(BELIEF, v)]), 1),
    (
        "EmpiricalDistribution.count",
        lambda v: EmpiricalDistribution(2, [(BELIEF, v), (OTHER, 2)]),
        0,
    ),
    ("PopulationLaw.n", lambda v: PopulationLaw(v, [(EMPIRICAL, 1)]), 1),
    (
        "InformationStructure.n",
        lambda v: InformationStructure(v, HALF, [("s",)], [[(("s",), 1)]] * 2),
        1,
    ),
    ("simulate.samples", lambda v: simulate(SCHEME, v, 1), 1),
    ("simulate.shards", lambda v: simulate(SCHEME, 10, 1, shards=v), 1),
    ("simulate.seed", lambda v: simulate(SCHEME, 10, v), 0),
    ("weight_grid.n", lambda v: weight_grid(v, 2, 2), 1),
    ("weight_grid.signals", lambda v: weight_grid(2, v, 2), 1),
    ("weight_grid.denominator", lambda v: weight_grid(2, 2, v), 1),
    ("search_max_polarization.n", lambda v: search_max_polarization(v, HALF, 2, 2), 1),
    ("search_max_polarization.signals", lambda v: search_max_polarization(2, HALF, v, 2), 1),
    ("search_max_polarization.denominator", lambda v: search_max_polarization(2, HALF, 2, v), 1),
    ("enumerate_grid_structures.n", lambda v: next(enumerate_grid_structures(v, HALF, 2, 2)), 1),
    (
        "enumerate_grid_structures.signals",
        lambda v: next(enumerate_grid_structures(2, HALF, v, 2)),
        1,
    ),
    (
        "enumerate_grid_structures.denominator",
        lambda v: next(enumerate_grid_structures(2, HALF, 2, v)),
        1,
    ),
    ("SymmetricProduct.n", lambda v: SymmetricProduct(binary_marginal("1/2", "1/4", "3/4"), v), 1),
    ("binomial_quantile_expectation.n", lambda v: binomial_quantile_expectation(v, "1/2", "1/2"), 1),
    ("symmetric_threshold.n", symmetric_threshold, 2),
    ("threshold_curve.n_max", threshold_curve, 2),
    ("reveal_half_structure.n", lambda v: reveal_half_structure(v, HALF), 1),
    ("max_polarization.n", lambda v: max_polarization(v, HALF), 1),
    ("polarization_bounds.n", lambda v: polarization_bounds(v, HALF), 1),
    (
        "PersuasionInstance.n",
        lambda v: PersuasionInstance(v, "1/4", "1/2", SenderUtility.linear(1)),
        1,
    ),
    (
        "persuasion_limit_value.schedule",
        lambda v: persuasion_limit_value("1/4", "1/2", lambda x: x, [2, v]),
        1,
    ),
    ("SenderUtility.from_function.n", lambda v: SenderUtility.from_function(lambda x: x, v), 1),
    ("SenderUtility.linear.n", SenderUtility.linear, 1),
    ("SenderUtility.step.n", lambda v: SenderUtility.step(v, "1/2"), 1),
    ("format_decimal.digits", lambda v: format_decimal(F(1, 3), v), 0),
    ("scheme_from_json.state", _scheme_with_state, 0),
]
CALLS = pytest.mark.parametrize("call,low", [e[1:] for e in ENTRIES], ids=[e[0] for e in ENTRIES])


@CALLS
@pytest.mark.parametrize("bad", [True, 2.0, "2", "below"])
def test_every_entry_refuses_non_integers_and_values_below_range(call, low, bad):
    with pytest.raises(InvariantError, match="is not an integer"):
        call(low - 1 if bad == "below" else bad)


@CALLS
def test_every_entry_takes_its_lowest_value(call, low):
    call(low)


def test_state_at_the_dimension_is_refused():
    with pytest.raises(InvariantError, match=r"state 2 is not an integer in \[0, 2\)"):
        _scheme_with_state(2)


def test_last_seed_runs_and_the_next_is_refused():
    simulate(SCHEME, 10, 2**64 - 1)
    with pytest.raises(InvariantError, match=rf"seed {2**64} is not an integer in \[0, {2**64}\)"):
        simulate(SCHEME, 10, 2**64)


def test_require_int_bounds():
    assert require_int(1, "k") == 1
    assert require_int(0, "k", low=0) == 0
    assert require_int(-3, "k", low=-3) == -3
    assert require_int(10**30, "k") == 10**30
    assert require_int(2, "k", low=2, high=5) == 2
    assert require_int(4, "k", low=2, high=5) == 4
    outside = [(0, 1, None), (-1, 0, None), (1, 2, 5), (5, 2, 5), (6, 2, 5), (0, 0, 0)]
    for value, low, high in outside:
        with pytest.raises(InvariantError):
            require_int(value, "k", low, high)


@pytest.mark.parametrize("value", [True, False, 1.0, F(1), "1", None, [1]])
def test_require_int_refuses_everything_but_int(value):
    with pytest.raises(InvariantError):
        require_int(value, "k", low=0)


def test_require_int_message_names_the_argument():
    with pytest.raises(InvariantError) as info:
        require_int(True, "agent count")
    assert str(info.value) == "agent count True is not an integer >= 1"
    with pytest.raises(InvariantError) as info:
        require_int(3, "state", 0, 3)
    assert str(info.value) == "state 3 is not an integer in [0, 3)"
    with pytest.raises(InvariantError) as info:
        require_int(-(10**5000), "seed", 0)
    assert str(info.value) == "seed with more than 4300 digits is not an integer >= 0"


def test_max_profiles_bound_goes_through_the_rule(monkeypatch):
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "1")
    assert max_profiles_bound() == 1
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "0")
    with pytest.raises(InvariantError, match="POPLAW_MAX_PROFILES 0 is not an integer >= 1"):
        max_profiles_bound()


def test_quantile_level_bounds():
    assert parse_quantile_level(1) == 1 and type(parse_quantile_level(1)) is F
    assert parse_quantile_level("1/2") == F(1, 2)
    assert parse_quantile_level("1e-30") == F(1, 10**30)
    for value in [0, "-1/2", "1.000000000000000000001"]:
        with pytest.raises(InvariantError, match=r"quantile level must lie in \(0, 1\]"):
            parse_quantile_level(value)


MEASURE = ScalarMeasure([(0, F(1, 3)), (F(1, 2), F(1, 3)), (1, F(1, 3))])
QUANTILE_ENTRIES = {
    "lower": lambda a: quantile_distribution(MEASURE, a),
    "upper": lambda a: upper_quantile_distribution(MEASURE, a),
    "binomial": lambda a: binomial_quantile_expectation(3, "1/2", a),
}


@pytest.mark.parametrize("call", QUANTILE_ENTRIES.values(), ids=QUANTILE_ENTRIES.keys())
def test_quantile_entries_share_the_level_rule(call):
    call(1)
    call("1/3")
    for alpha in [0, "-1/3", "3/2"]:
        with pytest.raises(InvariantError, match=r"quantile level must lie in \(0, 1\]"):
            call(alpha)
    with pytest.raises(InvariantError, match="not a rational"):
        call(True)
