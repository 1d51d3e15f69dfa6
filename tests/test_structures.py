import itertools
import math
import random
import struct
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _lawgen import (
    marginals,
    random_feasible_instance,
    scan_induced_law,
    scan_marginal,
    scan_posterior,
)
from poplaw import (
    Belief,
    EmpiricalDistribution,
    InformationStructure,
    InvariantError,
    PopulationLaw,
    Prior,
    ResourceLimitError,
    SpreadDecomposition,
    SymmetricScheme,
    barycenter,
    bayes_posterior,
    check_feasible,
    enumerate_grid_structures,
    expand_scheme,
    induced_population_law,
    law_expected_measure,
    simulate,
    synthesize,
)
from poplaw import jsonio, structures
from poplaw.rng import substream_draws
from poplaw.structures import (
    SIMULATE_BLOCK,
    _distinct_assignments,
    _guide_table,
    _selection_table,
    capped_multinomial,
)

HALF = Prior.binary(F(1, 2))


def fully_revealing(n=2):
    labels = ("zero", "one")
    kernel = [
        (((labels[0],) * n, F(1)),),
        (((labels[1],) * n, F(1)),),
    ]
    return InformationStructure(n, HALF, [labels] * n, kernel)


def uninformative(n=2, prior=HALF):
    kernel = [((("x",) * n, F(1)),) for _ in range(prior.dimension)]
    return InformationStructure(n, prior, [("x",)] * n, kernel)


def example_three_agents():
    """State revealed to agent 3; agents 1 and 2 signal-correlated."""
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


# --------------------------------------------------------- construction


def test_kernel_must_sum_to_one():
    with pytest.raises(InvariantError):
        InformationStructure(
            1, HALF, [("a", "b")], [((("a",), F(1, 2)),), ((("a",), F(1)),)]
        )


def test_labels_must_belong_to_signal_sets():
    with pytest.raises(InvariantError):
        InformationStructure(1, HALF, [("a",)], [((("b",), F(1)),), ((("a",), F(1)),)])


# --------------------------------------------------------- bayes posteriors


def test_fully_revealing_posteriors():
    g = fully_revealing()
    assert bayes_posterior(g, 0, "zero") == Belief.binary(0)
    assert bayes_posterior(g, 0, "one") == Belief.binary(1)


def test_uninformative_posterior_is_prior():
    prior = Prior.binary(F(2, 7))
    g = uninformative(3, prior)
    assert bayes_posterior(g, 1, "x") == prior.belief


def test_example_posteriors_are_thirds():
    g = example_three_agents()
    assert bayes_posterior(g, 0, "s1") == Belief.binary(F(1, 3))
    assert bayes_posterior(g, 0, "s2") == Belief.binary(F(2, 3))
    assert bayes_posterior(g, 1, "s1") == Belief.binary(F(1, 3))


def test_zero_probability_signal_rejected():
    g = fully_revealing()
    with pytest.raises(InvariantError):
        bayes_posterior(g, 0, "missing")  # not a label at all
    drop = InformationStructure(
        1,
        HALF,
        [("a", "b")],
        [((("a",), F(1)),), ((("a",), F(1)),)],
    )
    with pytest.raises(InvariantError):
        bayes_posterior(drop, 0, "b")


# --------------------------------------------------------- induced laws


def test_example_induced_law():
    g = example_three_agents()
    law = induced_population_law(g)
    b0, b13, b23, b1 = (
        Belief.binary(0),
        Belief.binary(F(1, 3)),
        Belief.binary(F(2, 3)),
        Belief.binary(1),
    )
    expected = PopulationLaw(
        3,
        [
            (EmpiricalDistribution(3, [(b13, 2), (b0, 1)]), F(1, 6)),
            (EmpiricalDistribution(3, [(b13, 1), (b23, 1), (b0, 1)]), F(2, 6)),
            (EmpiricalDistribution(3, [(b13, 1), (b23, 1), (b1, 1)]), F(2, 6)),
            (EmpiricalDistribution(3, [(b23, 2), (b1, 1)]), F(1, 6)),
        ],
    )
    assert law == expected


def test_reveal_to_half_four_agents():
    labels = ("zero", "one")
    kernel = [
        ((("zero", "zero", "x", "x"), F(1)),),
        ((("one", "one", "x", "x"), F(1)),),
    ]
    g = InformationStructure(
        4, HALF, [labels, labels, ("x",), ("x",)], kernel
    )
    law = induced_population_law(g)
    mu = Belief.binary(F(1, 2))
    expected = PopulationLaw(
        4,
        [
            (EmpiricalDistribution(4, [(Belief.binary(1), 2), (mu, 2)]), F(1, 2)),
            (EmpiricalDistribution(4, [(Belief.binary(0), 2), (mu, 2)]), F(1, 2)),
        ],
    )
    assert law == expected


def test_uninformative_induced_law():
    g = uninformative(3)
    assert induced_population_law(g) == PopulationLaw.dirac(
        EmpiricalDistribution.constant(3, HALF.belief)
    )


def three_states_with_a_duplicated_profile():
    """String labels, one profile listed twice, and a label agent 1 never sees."""
    prior = Prior([F(1, 2), F(1, 3), F(1, 6)])
    kernel = [
        [(("a", "x"), F(1, 4)), (("b", "y"), F(1, 2)), (("a", "x"), F(1, 4))],
        [(("a", "y"), F(2, 3)), (("b", "x"), F(1, 3))],
        [(("b", "y"), F(1, 5)), (("a", "y"), F(4, 5))],
    ]
    return InformationStructure(2, prior, [("a", "b"), ("x", "y", "z")], kernel)


def reference_structures():
    """Hand-built structures, none of them a scheme's expansion."""
    text = (Path(__file__).parent / "data" / "three_agent_example.json").read_text()
    yield jsonio.structure_from_json(jsonio.loads(text))
    yield from enumerate_grid_structures(2, Prior.binary(F(2, 5)), 2, 2)
    yield three_states_with_a_duplicated_profile()


def test_oracle_matches_a_plain_fraction_enumeration():
    zero_labels = 0
    for structure in reference_structures():
        assert induced_population_law(structure) == scan_induced_law(structure)
        for agent, labels in enumerate(structure.signal_sets):
            for label in labels:
                expected = scan_posterior(structure, agent, label)
                if expected is not None:
                    assert bayes_posterior(structure, agent, label) == expected
                    continue
                zero_labels += 1
                with pytest.raises(InvariantError) as info:
                    bayes_posterior(structure, agent, label)
                assert str(info.value) == (
                    f"signal {label!r} has zero probability for agent {agent}"
                )
    assert zero_labels > 0


def test_martingale_over_grid_structures():
    for structure in itertools.islice(
        enumerate_grid_structures(2, HALF, 2, 2), 0, None, 7
    ):
        law = induced_population_law(structure)
        assert barycenter(law_expected_measure(law)) == HALF.belief


# --------------------------------------------------------- synthesis


def footnote_law():
    b13, b23 = Belief.binary(F(1, 3)), Belief.binary(F(2, 3))
    h1 = EmpiricalDistribution(3, [(b13, 2), (b23, 1)])
    h2 = EmpiricalDistribution(3, [(b23, 2), (b13, 1)])
    return PopulationLaw(3, [(h1, F(1, 2)), (h2, F(1, 2))]), h1, h2


def test_synthesize_footnote_law():
    law, h1, h2 = footnote_law()
    verdict = check_feasible(law, HALF)
    scheme = synthesize(law, HALF, verdict.decomposition)
    assert scheme.state_laws[0] == PopulationLaw.dirac(h1)
    assert scheme.state_laws[1] == PopulationLaw.dirac(h2)
    assert scheme.law() == law  # prior-weighted state laws mix back to the law
    structure = expand_scheme(scheme)
    # three distinct assignments per state, 1/3 each
    for state in range(2):
        assert len(structure.kernel[state]) == 3
        assert all(p == F(1, 3) for _, p in structure.kernel[state])
    assert induced_population_law(structure) == law


def test_synthesize_no_information_law():
    mu = Prior.binary(F(2, 5))
    law = PopulationLaw.dirac(EmpiricalDistribution.constant(3, mu.belief))
    verdict = check_feasible(law, mu)
    scheme = synthesize(law, mu, verdict.decomposition)
    # both states announce the uninformative empirical distribution
    assert scheme.state_laws == (law, law)
    assert induced_population_law(expand_scheme(scheme)) == law


def test_synthesize_rejects_broken_decomposition():
    law, h1, h2 = footnote_law()
    broken = SpreadDecomposition(
        [(F(1, 2), PopulationLaw.dirac(h1)), (F(1, 2), PopulationLaw.dirac(h1))]
    )
    with pytest.raises(InvariantError):
        synthesize(law, HALF, broken)


def test_expand_single_agent_is_identity_like():
    mu = Prior.binary(F(1, 2))
    b = Belief.binary(F(3, 4))
    c = Belief.binary(F(1, 4))
    scheme = SymmetricScheme(
        mu,
        [
            PopulationLaw(1, [(EmpiricalDistribution.constant(1, c), F(3, 4)),
                              (EmpiricalDistribution.constant(1, b), F(1, 4))]),
            PopulationLaw(1, [(EmpiricalDistribution.constant(1, c), F(1, 4)),
                              (EmpiricalDistribution.constant(1, b), F(3, 4))]),
        ],
    )
    structure = expand_scheme(scheme)
    assert structure.n == 1
    assert induced_population_law(structure).n == 1
    assert bayes_posterior(structure, 0, b) == b
    assert bayes_posterior(structure, 0, c) == c


def test_expand_two_agent_scheme_has_two_assignments():
    x, y = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))
    pair = EmpiricalDistribution(2, [(x, 1), (y, 1)])
    scheme = SymmetricScheme(
        HALF,
        [PopulationLaw.dirac(pair), PopulationLaw.dirac(pair)],
    )
    structure = expand_scheme(scheme)
    for state in range(2):
        assert sorted(structure.kernel[state]) == sorted(
            (((x, y), F(1, 2)), ((y, x), F(1, 2)))
        )


def test_expansion_bound_env(monkeypatch):
    law, _, _ = footnote_law()
    verdict = check_feasible(law, HALF)
    scheme = synthesize(law, HALF, verdict.decomposition)
    # 3 profiles per state, each holding 3 labels: 18 label cells
    for bound in ("2", "17"):
        monkeypatch.setenv("POPLAW_MAX_PROFILES", bound)
        with pytest.raises(ResourceLimitError):
            expand_scheme(scheme)
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "18")
    assert sum(map(len, expand_scheme(scheme).kernel)) == 6


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=12), max_size=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_capped_multinomial_is_exact_up_to_the_cap(counts, cap):
    exact = math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
    value = capped_multinomial(counts, cap)
    if exact <= cap:
        assert value == exact
    else:
        assert value > cap


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=7))
def test_dealer_lists_distinct_permutations_in_order(agents):
    counts = sorted(Counter(agents).items())
    assert list(_distinct_assignments(counts)) == sorted(set(itertools.permutations(agents)))


def test_dealer_handles_more_agents_than_the_recursion_limit():
    profiles = list(_distinct_assignments([("x", 1499), ("y", 1)]))
    assert len(profiles) == 1500
    assert profiles[0] == ("x",) * 1499 + ("y",)
    assert profiles[-1] == ("y",) + ("x",) * 1499


def test_anonymity_of_expansion():
    """Swapping any two agents leaves a synthesized kernel unchanged."""
    law, _, _ = footnote_law()
    verdict = check_feasible(law, HALF)
    structure = expand_scheme(synthesize(law, HALF, verdict.decomposition))
    for i, j in itertools.combinations(range(structure.n), 2):
        for state in range(structure.m):
            swapped = {}
            for profile, prob in structure.kernel[state]:
                p = list(profile)
                p[i], p[j] = p[j], p[i]
                swapped[tuple(p)] = prob
            assert swapped == dict(structure.kernel[state])


def test_bayes_consistency_of_synthesized_labels():
    rng = random.Random(99)
    for _ in range(10):
        law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
        verdict = check_feasible(law, prior)
        assert verdict.feasible
        structure = expand_scheme(synthesize(law, prior, verdict.decomposition))
        for agent in range(structure.n):
            for label in structure.signal_sets[agent]:
                try:
                    posterior = bayes_posterior(structure, agent, label)
                except InvariantError:
                    continue  # label unused by this agent
                assert posterior == label


def test_expansion_deals_the_signal_sets_own_beliefs():
    rng = random.Random(7)
    for _ in range(10):
        law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
        verdict = check_feasible(law, prior)
        scheme = synthesize(law, prior, verdict.decomposition)
        # decoded from JSON, every atom of the scheme holds its own Belief objects
        scheme = jsonio.scheme_from_json(jsonio.loads(jsonio.dumps(jsonio.scheme_to_json(scheme))))
        structure = expand_scheme(scheme)
        own = {id(label) for labels in structure.signal_sets for label in labels}
        for state_profiles in structure.kernel:
            for profile, _ in state_profiles:
                assert all(id(label) in own for label in profile)


# Labels for structures decoded from JSON: each belief has three spellings.
# Signal sets use the first and profiles the other two, so a profile's label is
# equal to its signal set's entry but decoded separately, and equal labels
# within the kernel may be one object or two.
BELIEF_SPELLINGS = [
    (["1/4", "3/4"], ["2/8", "6/8"], ["0.25", "0.75"]),
    (["1/2", "1/2"], ["0.5", "2/4"], ["1/2", "0.50"]),
    (["1", "0"], ["3/3", "0/5"], [1, 0]),
    (["1/3", "2/3"], ["2/6", "4/6"], ["3/9", "6/9"]),
]


@st.composite
def structure_payloads(draw):
    """Two JSON structure payloads sharing signal sets, with string or belief labels."""
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=2, max_value=3))
    beliefs = draw(st.booleans())
    sizes = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    if beliefs:
        choices = [draw(st.permutations(range(len(BELIEF_SPELLINGS))))[:k] for k in sizes]
    else:
        choices = [draw(st.permutations(range(3)))[:k] for k in sizes]

    def spell(index, alternate):
        if beliefs:
            return BELIEF_SPELLINGS[index][alternate]
        return ("s0", "s1", "s2")[index]

    profiles = list(itertools.product(*choices))
    prior = [draw(st.integers(min_value=1, max_value=5)) for _ in range(m)]
    payloads = []
    for _ in range(2):
        kernel = []
        for state in range(m):
            weights = draw(
                st.lists(
                    st.integers(min_value=0, max_value=4),
                    min_size=len(profiles),
                    max_size=len(profiles),
                ).filter(any)
            )
            total = sum(weights)
            kernel.append(
                {
                    "state": state,
                    "profiles": [
                        {
                            "signals": [spell(i, draw(st.integers(1, 2))) for i in profile],
                            "prob": f"{w}/{total}",
                        }
                        for profile, w in zip(profiles, weights)
                        if w
                    ],
                }
            )
        payloads.append(
            {
                "n": n,
                "m": m,
                "mu": [f"{w}/{sum(prior)}" for w in prior],
                "signal_sets": [[spell(i, 0) for i in c] for c in choices],
                "kernel": kernel,
            }
        )
    return payloads


@settings(max_examples=150, deadline=None)
@given(structure_payloads())
def test_marginals_posteriors_and_law_match_a_kernel_scan(payloads):
    structures = [
        jsonio.structure_from_json(jsonio.loads(jsonio.dumps(p))) for p in payloads
    ]
    for structure in structures:
        own = {id(label) for labels in structure.signal_sets for label in labels}
        for state_profiles in structure.kernel:
            for profile, _ in state_profiles:
                assert not any(isinstance(x, Belief) and id(x) in own for x in profile)
        for agent, labels in enumerate(structure.signal_sets):
            for label in labels:
                for state in range(structure.m):
                    assert structure.signal_marginal(agent, label, state) == scan_marginal(
                        structure, agent, label, state
                    )
                expected = scan_posterior(structure, agent, label)
                if expected is None:
                    with pytest.raises(InvariantError):
                        bayes_posterior(structure, agent, label)
                else:
                    assert bayes_posterior(structure, agent, label) == expected
        assert induced_population_law(structure) == scan_induced_law(structure)


# --------------------------------------------------------- simulation


def test_simulate_deterministic_scheme_is_exact():
    x = Belief.binary(F(1, 2))
    point = EmpiricalDistribution.constant(2, x)
    scheme = SymmetricScheme(HALF, [PopulationLaw.dirac(point)] * 2)
    for samples in (1, 7, 100):
        assert simulate(scheme, samples, seed=5) == PopulationLaw.dirac(point)


def test_simulate_same_seed_same_result():
    law, _, _ = footnote_law()
    verdict = check_feasible(law, HALF)
    scheme = synthesize(law, HALF, verdict.decomposition)
    a = simulate(scheme, 2000, seed=11)
    b = simulate(scheme, 2000, seed=11)
    assert a == b
    c = simulate(scheme, 2000, seed=12)
    assert c != a  # different stream with overwhelming probability


@pytest.mark.parametrize("shards", [2, 3, 7])
def test_simulate_sharding_invariance(shards):
    law, _, _ = footnote_law()
    verdict = check_feasible(law, HALF)
    scheme = synthesize(law, HALF, verdict.decomposition)
    single = simulate(scheme, 999, seed=77)
    assert simulate(scheme, 999, seed=77, shards=shards) == single


def test_simulate_more_shards_than_samples():
    law, _, _ = footnote_law()
    verdict = check_feasible(law, HALF)
    scheme = synthesize(law, HALF, verdict.decomposition)
    start = time.perf_counter()
    sharded = simulate(scheme, 3, seed=77, shards=10**6)
    assert time.perf_counter() - start < 0.5
    assert sharded == simulate(scheme, 3, seed=77)


def mix64(z):
    """SplitMix's 64-bit output finalizer, one value at a time: the reference for `rng`."""
    z %= 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


PHI = 0x9E3779B97F4A7C15  # SplitMix64's increment, restated for the references below


def lane_values(lanes):
    """The 64-bit values in `substream_draws`' little-endian lanes; each lane's high half is zero."""
    words = struct.unpack(f"<{len(lanes) // 8}Q", lanes)
    assert not any(words[1::2])
    return words[::2]


def test_splitmix64_reference_outputs():
    # the published SplitMix64 stream for seed 0: state advances by PHI, output is mix64
    state, outputs = 0, []
    for _ in range(3):
        state = (state + PHI) % 2**64
        outputs.append(mix64(state))
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert outputs == published
    # under the seed 2**64 - PHI, index 0's base is mix64(0) = 0, so its draw j is
    # mix64((j + 1) * PHI): the batch function gives the published stream
    draws = substream_draws(2**64 - PHI, 0, 1, 3)
    assert [v for lanes in draws for v in lane_values(lanes)] == published
    assert reference_draws(2**64 - PHI, 0, 1, 3) == [(v,) for v in published]


def reference_draws(seed, start, stop, draws):
    return [
        tuple(mix64(mix64(seed + (i + 1) * PHI) + (j + 1) * PHI) for i in range(start, stop))
        for j in range(draws)
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    start=st.one_of(
        st.just(0),
        st.builds(
            lambda k, d: max(0, k * SIMULATE_BLOCK + d), st.integers(1, 3), st.integers(-3, 3)
        ),
        st.integers(0, 2**70),
    ),
    length=st.one_of(st.integers(0, 40), st.sampled_from([SIMULATE_BLOCK, SIMULATE_BLOCK + 2])),
    draws=st.integers(1, 3),
)
def test_substream_draws_match_the_scalar_rule(seed, start, length, draws):
    stop = start + length
    lanes = substream_draws(seed, start, stop, draws)
    assert [lane_values(d) for d in lanes] == reference_draws(seed, start, stop, draws)


def test_substream_draws_keep_each_block_length_apart():
    """The seed-free lane constants are memoized per block length; none leaks into another."""
    for k, length in enumerate([SIMULATE_BLOCK, 4000, 3, SIMULATE_BLOCK, 4000]):
        seed, start = 2**64 - 1 - k, k * SIMULATE_BLOCK + 5
        stop = start + length
        lanes = substream_draws(seed, start, stop, 2)
        assert [lane_values(d) for d in lanes] == reference_draws(seed, start, stop, 2)


@pytest.mark.parametrize("shards", [1, 8, "samples"])
def test_simulate_calls_the_kernel_once_per_block(monkeypatch, shards):
    """Shards cost nothing: the draws come in the same blocks whatever the shard count."""
    law, _, _ = footnote_law()
    scheme = synthesize(law, HALF, check_feasible(law, HALF).decomposition)
    samples = 3 * SIMULATE_BLOCK + 1
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return substream_draws(*args)

    monkeypatch.setattr(structures, "substream_draws", counted)
    simulate(scheme, samples, seed=9, shards=samples if shards == "samples" else shards)
    block = SIMULATE_BLOCK
    assert calls == [(0, block), (block, 2 * block), (2 * block, 3 * block), (3 * block, samples)]


def two_state_scheme():
    lo, hi = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))
    all_lo = EmpiricalDistribution.constant(2, lo)
    mixed = EmpiricalDistribution(2, [(lo, 1), (hi, 1)])
    all_hi = EmpiricalDistribution.constant(2, hi)
    return SymmetricScheme(
        Prior.binary(F(2, 5)),
        [
            PopulationLaw(2, [(all_lo, F(2, 3)), (mixed, F(1, 3))]),
            PopulationLaw(2, [(mixed, F(1, 7)), (all_hi, F(6, 7))]),
        ],
    )


def three_state_scheme():
    """States 0 and 2 share `shared`; state 1 has one atom, so its cutoffs are just 2**64."""
    a = Belief([F(1, 2), F(1, 4), F(1, 4)])
    b = Belief([0, F(1, 3), F(2, 3)])
    c = Belief([1, 0, 0])
    shared = EmpiricalDistribution(3, [(a, 2), (b, 1)])
    return SymmetricScheme(
        Prior([F(1, 2), F(1, 3), F(1, 6)]),
        [
            PopulationLaw(3, [(shared, F(3, 5)), (EmpiricalDistribution.constant(3, c), F(2, 5))]),
            PopulationLaw.dirac(EmpiricalDistribution(3, [(b, 2), (c, 1)])),
            PopulationLaw(3, [(EmpiricalDistribution.constant(3, a), F(1, 9)), (shared, F(8, 9))]),
        ],
    )


def test_simulate_follows_the_substream_rule():
    """Rebuild simulate's counts from the rule in `rng`'s docstring.

    Each scheme has a distribution that two states share, so simulate merges
    their counts.
    """
    assert_simulate_follows_the_substream_rule(two_state_scheme(), 3)
    assert_simulate_follows_the_substream_rule(three_state_scheme(), 4)


def assert_simulate_follows_the_substream_rule(scheme, distinct):
    seed, samples = 20240917, 400

    def draw(i, j):
        return mix64((mix64((seed + (i + 1) * PHI) % 2**64) + (j + 1) * PHI) % 2**64)

    def pick(atoms, u):
        acc = F(0)
        for item, weight in atoms:
            acc += weight
            if u < math.ceil(acc * 2**64):
                return item

    counts = Counter()
    states = Counter()
    for i in range(samples):
        state = pick(enumerate(scheme.prior.coords), draw(i, 0))
        states[state] += 1
        counts[pick(scheme.state_laws[state].atoms, draw(i, 1))] += 1
    assert len(counts) == distinct
    assert len(states) == scheme.prior.dimension
    expected = PopulationLaw(scheme.n, [(e, F(c, samples)) for e, c in counts.items()])
    assert simulate(scheme, samples, seed) == expected
    assert simulate(scheme, samples, seed, shards=3) == expected


@settings(max_examples=150, deadline=None)
@given(marginals())
def test_selection_cutoffs_are_ceilings_of_cumulative_weights(measure):
    items, cutoffs = _selection_table(measure.atoms)
    assert items == [belief for belief, _ in measure.atoms]
    cumulative = itertools.accumulate(weight for _, weight in measure.atoms)
    assert cutoffs == [math.ceil(w * 2**64) for w in cumulative]


def reference_simulate(scheme, samples, seed):
    """Simulate per sample: draws from `mix64`, each pick a bisect over ceil(w * 2**64)."""

    def cutoffs(weights):
        return [math.ceil(w * 2**64) for w in itertools.accumulate(weights)]

    state_cutoffs = cutoffs(scheme.prior.coords)
    laws = [([e for e, _ in law.atoms], cutoffs(w for _, w in law.atoms)) for law in scheme.state_laws]
    counts = Counter()
    for u_state, u_emp in zip(*reference_draws(seed, 0, samples, 2)):
        items, item_cutoffs = laws[bisect_right(state_cutoffs, u_state)]
        counts[items[bisect_right(item_cutoffs, u_emp)]] += 1
    return PopulationLaw(scheme.n, [(e, F(c, samples)) for e, c in counts.items()])


def two_agent_distributions(dimension):
    """325 distinct two-agent empirical distributions over 25 beliefs of the given dimension."""
    pool = [Belief([1 - F(k, 100), F(k, 100)] + [0] * (dimension - 2)) for k in range(25)]
    pairs = itertools.combinations_with_replacement(pool, 2)
    return [EmpiricalDistribution(2, Counter(pair).items()) for pair in pairs]


@st.composite
def weight_vectors(draw, size):
    """`size` positive weights summing to 1: random integers over their sum, or dyadic."""
    rnd = draw(st.randoms(use_true_random=False))
    bits = draw(st.sampled_from([0, 8, 16, 60]))
    if bits and size <= 2**bits:
        # multiples of 2**-8 put every cutoff on a byte boundary
        cuts = sorted(rnd.sample(range(1, 2**bits), size - 1))
        return [F(b - a, 2**bits) for a, b in zip([0] + cuts, cuts + [2**bits])]
    raw = [rnd.randint(1, 10**6) for _ in range(size)]
    return [F(w, sum(raw)) for w in raw]


ATOM_COUNTS = st.one_of(st.integers(1, 12), st.integers(240, 300))  # the guide holds 254 items


@st.composite
def simulation_schemes(draw):
    """Two to four states, each law with 1 to 12 or 240 to 300 atoms."""
    dimension = draw(st.integers(2, 4))
    dists = two_agent_distributions(dimension)
    laws = []
    for _ in range(dimension):
        size = draw(ATOM_COUNTS)
        offset = draw(st.integers(0, len(dists) - 1))
        chosen = (dists[offset:] + dists[:offset])[:size]
        laws.append(PopulationLaw(2, zip(chosen, draw(weight_vectors(size)))))
    return SymmetricScheme(Prior(draw(weight_vectors(dimension))), laws)


@settings(max_examples=60, deadline=None)
@given(simulation_schemes(), st.integers(1, 3000), st.integers(0, 2**64 - 1))
def test_simulate_matches_the_per_sample_reference(scheme, samples, seed):
    assert simulate(scheme, samples, seed) == reference_simulate(scheme, samples, seed)


def edge_scheme(name):
    dists = two_agent_distributions(2)
    if name == "dyadic":
        # cumulative weights 1/256, 1/4, 3/4, 255/256, 1 and 1/256, 1: every cutoff on a byte boundary
        dyadic = [F(1, 256), F(1, 4) - F(1, 256), F(1, 2), F(255, 256) - F(3, 4), F(1, 256)]
        prior, laws = [F(1, 4), F(3, 4)], [zip(dists, dyadic), zip(dists[5:], [F(1, 256), F(255, 256)])]
    elif name == "300 atoms":
        raw = [k % 7 + 1 for k in range(300)]
        many = [F(w, sum(raw)) for w in raw]
        prior, laws = [F(1, 2), F(1, 2)], [zip(dists, many), [(dists[-1], 1)]]
    else:  # "prior 1/3": the state cutoff ceil(2**64 / 3) lies inside byte 85
        prior, laws = [F(1, 3), F(2, 3)], [zip(dists, [F(1, 3)] * 3), zip(dists[3:], [F(1, 10), F(9, 10)])]
    return SymmetricScheme(Prior(prior), [PopulationLaw(2, atoms) for atoms in laws])


@pytest.mark.parametrize("samples", [1, SIMULATE_BLOCK, SIMULATE_BLOCK + 1])
@pytest.mark.parametrize("name", ["dyadic", "300 atoms", "prior 1/3"])
def test_simulate_matches_the_reference_on_edge_schemes(name, samples):
    scheme = edge_scheme(name)
    seed = 2**64 - 1 - samples
    assert simulate(scheme, samples, seed) == reference_simulate(scheme, samples, seed)


@settings(max_examples=100, deadline=None)
@given(ATOM_COUNTS.flatmap(weight_vectors))
@example([F(1, 4), F(3, 4)])
@example([F(1, 256), F(255, 256)])
@example([F(1, 3), F(2, 3)])
@example([F(1)])
@example([F(1, 300)] * 300)
def test_guide_table_agrees_with_bisect_at_each_bytes_ends(weights):
    """Entry t is 1 + the item of byte t's lowest and highest draw when they agree, else 255."""
    cutoffs = [math.ceil(w * 2**64) for w in itertools.accumulate(weights)]
    guide = _guide_table(cutoffs)
    assert len(guide) == 256
    for t in range(256):
        lowest = bisect_right(cutoffs, t << 56)
        highest = bisect_right(cutoffs, ((t + 1) << 56) - 1)
        assert guide[t] == (lowest + 1 if lowest == highest and lowest < 254 else 255)


def test_simulate_converges_to_law():
    law, _, _ = footnote_law()
    verdict = check_feasible(law, HALF)
    scheme = synthesize(law, HALF, verdict.decomposition)
    estimate = simulate(scheme, 20000, seed=3)
    tv = sum(
        abs(estimate.mass(e) - law.mass(e))
        for e in set(estimate.support()) | set(law.support())
    ) / 2
    assert tv < F(1, 50)
