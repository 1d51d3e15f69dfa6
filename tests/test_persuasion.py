import random
from fractions import Fraction as F

import pytest

from _lawgen import grid_lp_maximum
from poplaw import (
    Belief,
    EmpiricalDistribution,
    InvariantError,
    PersuasionInstance,
    Prior,
    ResourceLimitError,
    ScalarMeasure,
    SenderUtility,
    bayes_posterior,
    binary_base,
    check_feasible,
    expand_scheme,
    grid_concavification,
    induced_population_law,
    persuasion_limit_value,
    persuasion_policy,
    persuasion_value,
)


# ----------------------------------------------------------- sender utility


def test_utility_must_be_non_decreasing():
    with pytest.raises(InvariantError):
        SenderUtility([0, 1, F(1, 2)])
    SenderUtility([0, 0, 1])  # plateaus allowed


def test_utility_grid_is_bounded(monkeypatch):
    # n + 1 grid values
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "10")
    assert SenderUtility.linear(9).n == 9
    with pytest.raises(ResourceLimitError) as info:
        SenderUtility.linear(10)
    assert str(info.value) == "sender utility needs more than 10 grid values; raise the bound"


def test_utility_presets():
    lin = SenderUtility.linear(4)
    assert lin.values == (0, F(1, 4), F(1, 2), F(3, 4), 1)
    step = SenderUtility.step(2, F(1, 2))
    assert step.values == (0, 1, 1)


# ----------------------------------------------------------- concavification


def test_concave_utility_is_its_own_envelope():
    # strictly concave increments: 0, 1/2, 3/4, 7/8
    u = SenderUtility([0, F(1, 2), F(3, 4), F(7, 8)])
    for i in range(4):
        y = F(i, 3)
        value, witness = grid_concavification(u, y)
        assert value == u.values[i]
        assert witness == ScalarMeasure.dirac(y)


def test_square_utility_midpoint():
    u = SenderUtility.from_function(lambda x: x * x, 2)
    value, witness = grid_concavification(u, F(1, 2))
    assert value == F(1, 2)
    assert witness == ScalarMeasure([(0, F(1, 2)), (1, F(1, 2))])


def test_indicator_utility_three_sevenths():
    u = SenderUtility.step(2, F(1, 2))
    value, witness = grid_concavification(u, F(3, 7))
    assert value == F(6, 7)
    assert witness == ScalarMeasure([(0, F(1, 7)), (F(1, 2), F(6, 7))])


def test_concavification_rejects_outside_unit_interval():
    u = SenderUtility.linear(2)
    with pytest.raises(InvariantError):
        grid_concavification(u, F(3, 2))


def test_hull_matches_lp_maximum_random():
    """Independent oracle: maximize sum(q_i u_i) over mean-y grid distributions."""
    rng = random.Random(424242)
    for _ in range(120):
        n = rng.randint(1, 6)
        increments = [F(rng.randint(0, 6), 12) for _ in range(n)]
        values = [F(0)]
        for inc in increments:
            values.append(values[-1] + inc)
        u = SenderUtility(values)
        y = F(rng.randint(0, 24), 24)
        # the first evaluation builds the utility's hull, the grid points reuse it
        for x in (y, *(F(i, n) for i in range(n + 1))):
            value, witness = grid_concavification(u, x)
            assert value == grid_lp_maximum(u.values, x)
            assert witness.mean() == x
            assert len(witness.atoms) <= 2


# ----------------------------------------------------------- value formula


def test_linear_utility_value_is_mu_over_tau():
    for n in (1, 2, 3, 5, 8, 13):
        inst = PersuasionInstance(n, F(3, 10), F(1, 2), SenderUtility.linear(n))
        assert persuasion_value(inst) == F(3, 5)


def test_indicator_value_two_agents():
    inst = PersuasionInstance(2, F(3, 10), F(1, 2), SenderUtility.step(2, F(1, 2)))
    assert persuasion_value(inst) == F(9, 10)


def test_constant_utility_value():
    c = F(5, 7)
    inst = PersuasionInstance(3, F(1, 4), F(1, 2), SenderUtility([c] * 4))
    assert persuasion_value(inst) == c


def test_instance_invariants():
    with pytest.raises(InvariantError):
        PersuasionInstance(2, F(1, 2), F(1, 2), SenderUtility.linear(2))  # mu == tau
    with pytest.raises(InvariantError):
        PersuasionInstance(2, F(1, 4), F(1, 2), SenderUtility.linear(3))  # grid mismatch


# ----------------------------------------------------------- optimal policy


def test_policy_witness_for_indicator():
    inst = PersuasionInstance(2, F(3, 10), F(1, 2), SenderUtility.step(2, F(1, 2)))
    solution = persuasion_policy(inst)
    assert solution.value == F(9, 10)
    assert solution.adoption_law == ScalarMeasure([(0, F(1, 7)), (F(1, 2), F(6, 7))])


def test_policy_small_prior_target():
    inst = PersuasionInstance(2, F(1, 100), F(1, 2), SenderUtility.linear(2))
    assert inst.adoption_target() == F(1, 99)
    solution = persuasion_policy(inst)
    assert solution.adoption_law.mean() == F(1, 99)
    assert persuasion_value(inst) == F(1, 50)


def test_policy_scheme_posteriors_and_feasibility():
    """Expanded policies put adopters exactly at tau and others at zero, and the
    induced law passes the feasibility check with the closed-form base."""
    tau = F(1, 2)
    for n, mu in ((2, F(3, 10)), (3, F(1, 4)), (4, F(2, 5))):
        inst = PersuasionInstance(n, mu, tau, SenderUtility.step(n, F(1, 2)))
        solution = persuasion_policy(inst)
        structure = expand_scheme(solution.scheme)
        adopt, reject = Belief.binary(tau), Belief.binary(0)
        for agent in range(n):
            for label in structure.signal_sets[agent]:
                assert bayes_posterior(structure, agent, label) == label
                assert label in (adopt, reject)
        law = induced_population_law(structure)
        verdict = check_feasible(law, Prior.binary(mu))
        assert verdict.feasible
        closed = binary_base(mu, F(0), tau)
        assert closed.b == 1
        assert closed.a == inst.adoption_target()
        # the verdict's base occupies the same two scalar positions
        positions = sorted(
            t.mass(adopt) for _, t in verdict.base.components
        )
        assert positions == sorted((closed.a, closed.b))
        # the induced law is mu on all-adopt plus (1 - mu) times the witness image
        all_adopt = EmpiricalDistribution.constant(n, adopt)
        assert law.mass(all_adopt) >= mu
        for fraction, weight in solution.adoption_law.atoms:
            k = int(fraction * n)
            emp = EmpiricalDistribution(n, [(adopt, k), (reject, n - k)])
            expected = (1 - mu) * weight + (mu if k == n else 0)
            assert law.mass(emp) == expected


# ----------------------------------------------------------- refinement


def test_limit_linear_is_constant():
    report = persuasion_limit_value(F(3, 10), F(1, 2), lambda x: x, [2, 4, 8, 16])
    assert all(v == F(3, 5) for _, v in report.values)
    assert report.monotone
    assert report.values[-1] == (16, F(3, 5))


def test_limit_indicator_even_grids():
    u = lambda x: F(1) if x >= F(1, 2) else F(0)
    report = persuasion_limit_value(F(3, 10), F(1, 2), u, [2, 4, 8])
    assert all(v == F(9, 10) for _, v in report.values)


def test_limit_convex_increases_toward_chord():
    report = persuasion_limit_value(F(3, 10), F(1, 2), lambda x: x * x, [1, 2, 4, 8, 16])
    values = [v for _, v in report.values]
    assert report.monotone
    assert values == sorted(values)
    # chord value: cav(x^2) = x on [0,1], so V = mu + (1-mu) * target
    target = F(3, 10) * F(1, 2) / (F(1, 2) * F(7, 10))
    chord = F(3, 10) + F(7, 10) * target
    assert values[-1] <= chord
    assert chord - values[-1] < F(1, 10)


def test_refinement_nesting_monotonicity():
    rng = random.Random(8)
    for _ in range(20):
        mu, tau = F(1, 4), F(3, 5)
        cut = F(rng.randint(1, 9), 10)
        u = lambda x: F(1) if x >= cut else x / 2
        report = persuasion_limit_value(mu, tau, u, [3, 6, 12])
        assert report.monotone
