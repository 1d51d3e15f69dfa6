"""Seeded instance generators for the benchmark workloads.

Modelled on the test suite's law generator but independent of it, so that a
change to the tests never moves the benchmark's inputs. Every generator fixes
the shape mix (how many instances fall in each cell of states, population size,
belief count and component kinds) and lets the seed choose only the values, so
a fresh seed measures the same workload.

Each generator takes the imported ``poplaw`` package as its first argument;
the benchmark re-imports the package for every set-up it times.
"""

import random
from fractions import Fraction as F

# ---------------------------------------------------------------- synth-roundtrip

# (states, n, beliefs) cells of the synthesis round trip, as in acceptance
# criterion 2: two states with n <= 5 and up to four beliefs, three states with
# n <= 4 and up to three beliefs.
SYNTH_CELLS = [(2, n, k) for n in range(1, 6) for k in (2, 3, 4)] + [
    (3, n, k) for n in range(1, 5) for k in (2, 3)
]
# Instances per cell and pass. The two-state laws with n >= 4 and four beliefs
# build decomposition LPs of up to 64 x 112, and their round-trip cost varies
# up to thirtyfold with the values. Drawn from the seed, a few of them would
# decide a run's throughput, so each of these cells takes its values from a
# fixed stream of its own, and every run measures the same LP tail. The seed
# chooses the values of every other cell.
PINNED_CELLS = {(2, 4, 4), (2, 5, 4)}
PINNED_SEED = 2202_01846
PINNED_PER_CELL = 4
SEEDED_PER_CELL = 8
# Component kinds per state, one tuple per instance slot of a cell: "m" is the
# multinomial law of the state's tilt, "p" its public-signal law and "x" a
# mixture of the two.
SYNTH_KINDS = {
    2: [("m", "m"), ("p", "x"), ("x", "p"), ("m", "p")],
    3: [("m", "m", "m"), ("p", "x", "m"), ("x", "p", "p"), ("m", "x", "x")],
}


def _binary_pools(P):
    """Two-state beliefs on the sixths grid: interior ones, then 0 and 1."""
    values = sorted({F(p, q) for q in range(2, 7) for p in range(1, q)})
    return [P.Belief.binary(v) for v in values], [P.Belief.binary(0), P.Belief.binary(1)]


def _ternary_pools(P):
    """Three-state beliefs on the sixths grid: interior ones, then edge ones
    (exactly one zero coordinate)."""
    d = 6
    points = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    beliefs = [P.Belief([F(c, d) for c in point]) for point in points]
    return (
        [b for b in beliefs if all(b.coords)],
        [b for b in beliefs if sum(1 for c in b.coords if c == 0) == 1],
    )


def _positive_composition(rng, total, parts):
    counts = [1] * parts
    for _ in range(total - parts):
        counts[rng.randrange(parts)] += 1
    return counts


def _public_law(P, measure, n):
    return P.PopulationLaw(
        n, [(P.EmpiricalDistribution.constant(n, b), w) for b, w in measure.atoms]
    )


def _component_law(P, rng, kind, tilt, n):
    if kind == "m":
        return P.multinomial_law(P.SymmetricProduct(tilt, n))
    if kind == "p":
        return _public_law(P, tilt, n)
    lam = F(rng.randint(1, 19), 20)
    return P.mix_laws(
        [
            (lam, P.multinomial_law(P.SymmetricProduct(tilt, n))),
            (1 - lam, _public_law(P, tilt, n)),
        ]
    )


def feasible_instance(P, rng, beliefs, states, n, kinds):
    """A (law, prior) pair on the given beliefs that is feasible by construction.

    The seed picks the weights of the expected belief measure and the mixing
    weights; the beliefs and the component kinds fix the law's shape.
    """
    k = len(beliefs)
    denom = rng.randint(k, 20)
    weights = _positive_composition(rng, denom, k)
    expected = P.DiscreteMeasure((b, F(c, denom)) for b, c in zip(beliefs, weights))
    prior = P.Prior(P.barycenter(expected))
    components = []
    for state in range(states):
        tilt = P.conditional_tilt(expected, prior, state)
        components.append(
            (prior.coordinate(state), _component_law(P, rng, kinds[state], tilt, n))
        )
    return P.mix_laws(components), prior


def _pick_beliefs(rng, pools, states, k, slot, count):
    """k beliefs: all interior in the first half of a cell's slots, else one on
    the boundary, with its zero coordinate fixed by the slot. A boundary belief
    drops out of one state's conditional tilt, which changes the law's shape."""
    interior, boundary = pools
    if slot < count // 2:
        return rng.sample(interior, k)
    zero = slot % states
    edge = rng.choice([b for b in boundary if b.coords[zero] == 0])
    return rng.sample(interior, k - 1) + [edge]


def synth_problems(P, seed):
    """Known-feasible problems of every cell, as (cell, law, prior)."""
    seeded = random.Random(seed)
    pools = {2: _binary_pools(P), 3: _ternary_pools(P)}
    out = []
    for cell in SYNTH_CELLS:
        states, n, k = cell
        kinds = SYNTH_KINDS[states]
        if cell in PINNED_CELLS:
            rng, count = random.Random(f"{PINNED_SEED}-{states}-{n}-{k}"), PINNED_PER_CELL
        else:
            rng, count = seeded, SEEDED_PER_CELL
        for slot in range(count):
            beliefs = _pick_beliefs(rng, pools[states], states, k, slot, count)
            law, prior = feasible_instance(P, rng, beliefs, states, n, kinds[slot % len(kinds)])
            out.append((cell, law, prior))
    return out


# ---------------------------------------------------------------- binary-crosscheck

# Per pass: for each n in 1..6, BINARY_LAWS_PER_N two-belief laws (as in
# acceptance criterion 3), of which every fourth has a prior drawn apart from
# the law's mean; for each n in 2..6, PRODUCTS_PER_N binary symmetric products
# (as in acceptance criterion 7).
BINARY_LAW_NS = range(1, 7)
BINARY_LAWS_PER_N = 40
PRODUCT_NS = range(2, 7)
PRODUCTS_PER_N = 48


def two_belief_law(P, rng, n, consistent):
    """A law over two beliefs with grid weights, plus a prior.

    With `consistent` the prior is the law's own mean, otherwise a prior on
    the tenths grid that differs from it.
    """
    grid = sorted({F(p, q) for q in range(2, 7) for p in range(q + 1)})
    while True:
        a, b = sorted(rng.sample(grid, 2))
        denom = rng.randint(1, 12)
        weights = [rng.randint(0, denom) for _ in range(n + 1)]
        if sum(weights) == 0:
            weights[rng.randrange(n + 1)] = 1
        total = sum(weights)
        mean = sum(F(k * w, n * total) for k, w in enumerate(weights))
        mu = a + mean * (b - a)
        if consistent and not 0 < mu < 1:
            continue
        if not consistent:
            mu = F(rng.randint(1, 9), 10)
            if mu == a + mean * (b - a):
                continue
        break
    lo, hi = P.Belief.binary(a), P.Belief.binary(b)
    law = P.PopulationLaw(
        n,
        [
            (P.EmpiricalDistribution(n, [(hi, k), (lo, n - k)]), F(w, total))
            for k, w in enumerate(weights)
            if w
        ],
    )
    return law, P.Prior.binary(mu)


def binary_cases(P, seed):
    """("law", law, prior, consistent) and ("product", n, mu, a, b) cases."""
    rng = random.Random(seed)
    grid = sorted({F(p, q) for q in range(2, 11) for p in range(1, q)})
    out = []
    for n in BINARY_LAW_NS:
        for slot in range(BINARY_LAWS_PER_N):
            consistent = slot % 4 != 3
            law, prior = two_belief_law(P, rng, n, consistent)
            out.append(("law", law, prior, consistent))
    for n in PRODUCT_NS:
        for _ in range(PRODUCTS_PER_N):
            a, mu, b = sorted(rng.sample(grid, 3))
            out.append(("product", n, mu, a, b))
    return out


# ---------------------------------------------------------------- polarization-search

# (n, denominator) cells of the exhaustive two-signal grid search, with the
# number of priors per pass. The counts keep the mean op near 0.15 s and put
# the 90th percentile of op time inside the (2, 5) and (2, 6) cells, away from
# the jump to the slowest cell (3, 3).
POLARIZATION_CELLS = {(2, 4): 12, (2, 5): 6, (2, 6): 6, (3, 2): 12, (3, 3): 2}


def polarization_cases(P, seed):
    """(n, denominator, prior) cases; the seed picks each prior from a grid."""
    rng = random.Random(seed)
    grid = sorted({F(p, q) for q in range(2, 13) for p in range(1, q)})
    return [
        (n, d, P.Prior.binary(rng.choice(grid)))
        for (n, d), count in POLARIZATION_CELLS.items()
        for _ in range(count)
    ]


# ---------------------------------------------------------------- montecarlo

MC_SAMPLES = 4000
MC_SEEDS_PER_SCHEME = 6
TERNARY_SCHEME_SEED = 3


def quarter_family(P):
    """The nine-agent law: k of 9 agents believe 3/4, uniformly over k = 0..9."""
    lo, hi = P.Belief.binary(F(1, 4)), P.Belief.binary(F(3, 4))
    return P.PopulationLaw(
        9,
        [(P.EmpiricalDistribution(9, [(hi, k), (lo, 9 - k)]), F(1, 10)) for k in range(10)],
    )


def mc_schemes(P):
    """The synthesized quarter-family scheme and one fixed ternary scheme, with their laws."""
    half = P.Prior.binary(F(1, 2))
    law, prior = quarter_family(P), half
    rng = random.Random(TERNARY_SCHEME_SEED)
    beliefs = _pick_beliefs(rng, _ternary_pools(P), 3, 3, 0, 1)
    ternary_law, ternary_prior = feasible_instance(P, rng, beliefs, 3, 4, ("m", "x", "p"))
    out = []
    for name, law, prior in (
        ("quarter9", law, prior),
        ("ternary4", ternary_law, ternary_prior),
    ):
        verdict = P.check_feasible(law, prior)
        out.append((name, law, P.synthesize(law, prior, verdict.decomposition)))
    return out


def mc_cases(P, seed):
    """(scheme name, exact law, scheme, sample seed, shards) cases.

    Each sample seed appears twice in a row, unsharded then with eight
    shards, so the two results can be compared byte for byte.
    """
    rng = random.Random(seed)
    out = []
    for name, law, scheme in mc_schemes(P):
        for _ in range(MC_SEEDS_PER_SCHEME):
            sample_seed = rng.getrandbits(63)
            for shards in (1, 8):
                out.append((name, law, scheme, sample_seed, shards))
    return out
