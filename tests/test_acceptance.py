"""Acceptance suite: every criterion checked at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its wall-clock time. All equality checks are exact rational
comparisons; tolerances appear only where a criterion states one (the
Monte-Carlo total-variation bound and the plot-label precision).
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

from _lawgen import (
    grid_lp_maximum,
    random_binary_posterior_law,
    random_feasible_instance,
)
from poplaw import (
    Belief,
    DiscreteMeasure,
    EmpiricalDistribution,
    PopulationLaw,
    Prior,
    SenderUtility,
    PersuasionInstance,
    SpreadDecomposition,
    SymmetricProduct,
    base_law,
    bayes_posterior,
    binary_product_feasible_quantile,
    binomial_quantile_expectation,
    check_feasible,
    expand_scheme,
    expected_polarization,
    grid_concavification,
    induced_population_law,
    jsonio,
    max_polarization,
    mps_decompose,
    multinomial_law,
    persuasion_policy,
    persuasion_value,
    reveal_half_structure,
    search_max_polarization,
    simulate,
    synthesize,
    threshold_curve,
)
from poplaw.cli import main as cli_main
from poplaw.structures import InformationStructure

DATA = Path(__file__).parent / "data"
HALF = Prior.binary(F(1, 2))


def report(number, label, started, budget):
    elapsed = time.time() - started
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def quarter_family(ks, weight):
    lo, hi = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))
    return PopulationLaw(
        9,
        [(EmpiricalDistribution(9, [(hi, k), (lo, 9 - k)]), weight) for k in ks],
    )


def test_criterion_1_worked_examples(capsys):
    started = time.time()
    # through the library
    assert check_feasible(quarter_family(range(10), F(1, 10)), HALF).feasible
    assert not check_feasible(quarter_family(range(1, 9), F(1, 8)), HALF).feasible
    # through the CLI
    assert cli_main(["feasible", str(DATA / "uniform9.json")]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["feasible"] is True
    assert cli_main(["feasible", str(DATA / "uniform8.json")]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["feasible"] is False
    with capsys.disabled():
        report(1, "nine-agent uniform families decide exactly", started, 1)


def test_criterion_2_synthesis_round_trip():
    started = time.time()
    rng = random.Random(20260811)
    for _ in range(200):
        law, prior = random_feasible_instance(rng, max_n=5, max_atoms=4)
        verdict = check_feasible(law, prior)
        assert verdict.feasible, "constructively feasible law rejected"
        scheme = synthesize(law, prior, verdict.decomposition)
        structure = expand_scheme(scheme)
        assert induced_population_law(structure) == law
        for agent in range(structure.n):
            for label in structure.signal_sets[agent]:
                posterior = bayes_posterior(structure, agent, label)
                assert posterior == label
    report(2, "200 synthesis round-trips exact", started, 30)


def test_criterion_3_oracle_agreement():
    started = time.time()
    rng = random.Random(31415926)
    disagreements = 0
    for _ in range(10_000):
        law, prior, _, _, _ = random_binary_posterior_law(
            rng, max_n=6, max_denominator=12
        )
        verdict = check_feasible(law, prior)
        if not verdict.prior_consistent:
            continue
        via_lp = mps_decompose(law, verdict.base, route="lp")
        if verdict.feasible != isinstance(via_lp, SpreadDecomposition):
            disagreements += 1
    assert disagreements == 0
    report(3, "quantile shortcut vs LP, 10^4 instances", started, 60)


def test_criterion_4_polarization():
    started = time.time()
    for n in (2, 4, 6, 8):
        for mu in (F(1, 4), F(1, 2)):
            prior = Prior.binary(mu)
            law = induced_population_law(reveal_half_structure(n, prior))
            assert expected_polarization(law) == mu * (1 - mu) / 4
            assert max_polarization(n, prior).value == mu * (1 - mu) / 4
    # the correlated three-agent example evaluates exactly and beats 1/18
    tab0 = [(("s1", "s1", "r0"), F(1, 3)), (("s1", "s2", "r0"), F(1, 3)), (("s2", "s1", "r0"), F(1, 3))]
    tab1 = [(("s1", "s2", "r1"), F(1, 3)), (("s2", "s1", "r1"), F(1, 3)), (("s2", "s2", "r1"), F(1, 3))]
    example = InformationStructure(
        3, HALF, [("s1", "s2"), ("s1", "s2"), ("r0", "r1")], [tab0, tab1]
    )
    value = expected_polarization(induced_population_law(example))
    assert value == F(14, 243)
    assert value > F(1, 18)
    # exhaustive two-signal grid search never exceeds mu(1-mu)/4
    for denominator in (3, 4):
        best, _ = search_max_polarization(3, HALF, denominator=denominator)
        assert best <= F(1, 16)
    report(4, "polarization values, bound and grid search", started, 120)


def test_criterion_5_closed_form():
    started = time.time()
    for m in range(1, 21):
        closed = F(1, 2) - F(math.comb(2 * m, m), 2 ** (2 * m + 1))
        assert binomial_quantile_expectation(2 * m, F(1, 2), F(1, 2)) == closed
        assert binomial_quantile_expectation(2 * m + 1, F(1, 2), F(1, 2)) == closed
    report(5, "binomial quantile closed form, m = 1..20", started, 1)


def test_criterion_6_threshold_curve():
    started = time.time()
    rows = threshold_curve(11)
    exact = {
        2: F(1, 4), 3: F(1, 4),
        4: F(5, 16), 5: F(5, 16),
        6: F(11, 32), 7: F(11, 32),
        8: F(93, 256), 9: F(93, 256),
        10: F(193, 512), 11: F(193, 512),
    }
    labels = {2: 0.25, 3: 0.25, 4: 0.3125, 5: 0.3125, 6: 0.34375, 7: 0.34375,
              8: 0.363, 9: 0.363, 10: 0.376953125, 11: 0.376953125}
    assert dict(rows) == exact
    for n, t in rows:
        assert abs(float(t) - labels[n]) <= 0.005
    report(6, "threshold curve matches the printed bars", started, 1)


def test_criterion_7_product_criterion_cross_check():
    started = time.time()
    grid = sorted({F(p, q) for q in range(2, 11) for p in range(1, q)})
    checked = 0
    for a, mu, b in itertools.combinations(grid, 3):
        for n in range(2, 7):
            quick = binary_product_feasible_quantile(n, mu, a, b)
            high = (mu - a) / (b - a)
            marginal = DiscreteMeasure(
                [(Belief.binary(a), 1 - high), (Belief.binary(b), high)]
            )
            law = multinomial_law(SymmetricProduct(marginal, n))
            target = base_law(law, Prior.binary(mu))
            via_lp = isinstance(
                mps_decompose(law, target, route="lp"), SpreadDecomposition
            )
            assert quick == via_lp, f"criterion mismatch at a={a}, mu={mu}, b={b}, n={n}"
            checked += 1
    assert checked == len(grid) * (len(grid) - 1) * (len(grid) - 2) // 6 * 5
    report(7, f"1-D criterion vs LP on {checked} product instances", started, 120)


def test_criterion_8_persuasion():
    started = time.time()
    for n in range(1, 21):
        inst = PersuasionInstance(n, F(3, 10), F(1, 2), SenderUtility.linear(n))
        assert persuasion_value(inst) == F(3, 5)
    two = PersuasionInstance(2, F(3, 10), F(1, 2), SenderUtility.step(2, F(1, 2)))
    assert persuasion_value(two) == F(9, 10)
    # concavification equals the LP maximum on 500 random non-decreasing utilities
    rng = random.Random(271828)
    for _ in range(500):
        n = rng.randint(1, 6)
        values = [F(0)]
        for _ in range(n):
            values.append(values[-1] + F(rng.randint(0, 8), 16))
        utility = SenderUtility(values)
        y = F(rng.randint(0, 48), 48)
        value, witness = grid_concavification(utility, y)
        assert value == grid_lp_maximum(utility.values, y)
        assert witness.mean() == y
    # expanded optimal policies: posteriors exactly tau and 0, and feasibility holds
    for n, mu, tau in ((2, F(3, 10), F(1, 2)), (3, F(1, 5), F(2, 5)), (4, F(2, 5), F(3, 5))):
        inst = PersuasionInstance(n, mu, tau, SenderUtility.step(n, F(1, 2)))
        solution = persuasion_policy(inst)
        structure = expand_scheme(solution.scheme)
        labels = {
            label for agent in range(n) for label in structure.signal_sets[agent]
        }
        assert labels <= {Belief.binary(tau), Belief.binary(0)}
        for agent in range(n):
            for label in structure.signal_sets[agent]:
                assert bayes_posterior(structure, agent, label) == label
        law = induced_population_law(structure)
        assert check_feasible(law, Prior.binary(mu)).feasible
    report(8, "persuasion values, hull oracle, policy checks", started, 60)


def test_criterion_9_monte_carlo():
    started = time.time()
    law = quarter_family(range(10), F(1, 10))
    verdict = check_feasible(law, HALF)
    scheme = synthesize(law, HALF, verdict.decomposition)
    bound = F(1, 50)
    for seed in range(1, 11):
        estimate = simulate(scheme, 100_000, seed=seed)
        support = set(estimate.support()) | set(law.support())
        tv = sum(abs(estimate.mass(e) - law.mass(e)) for e in support) / 2
        assert tv <= bound, f"seed {seed} drifted to TV {float(tv):.4f}"
    single = simulate(scheme, 100_000, seed=1)
    sharded = simulate(scheme, 100_000, seed=1, shards=8)
    assert jsonio.dumps(jsonio.law_to_json(single)) == jsonio.dumps(
        jsonio.law_to_json(sharded)
    )
    report(9, "Monte-Carlo accuracy and shard invariance", started, 60)
