import dataclasses
import gc
import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _lawgen import (
    BINARY_POOL,
    TERNARY_POOL,
    WIDE_PRIOR,
    bounded_decomposition_lp,
    farkas_refutes,
    mixture,
    random_binary_posterior_law,
    random_feasible_instance,
    random_two_component_problem,
    reference_decomposition_lp,
    reference_starting_rows,
    reference_two_point,
    reference_verify_certificate,
    reference_verify_decomposition,
    solve_fraction_rows,
    two_belief_spreads,
    two_point_reading,
    wide_product_problem,
)
from poplaw import (
    Belief,
    BinaryBase,
    DiscreteMeasure,
    EmpiricalDistribution,
    FarkasCertificate,
    InvariantError,
    MeanMismatch,
    PopulationLaw,
    QuantileViolation,
    ScalarMeasure,
    SpreadDecomposition,
    SpreadTarget,
    base_law,
    check_feasible,
    is_mps_binary_base,
    mps_decompose,
    quantile_distribution,
    verify_certificate,
    verify_decomposition,
)
from poplaw import mps
from poplaw.measures import Prior, _trusted, barycenter, law_expected_measure, mix_laws
from poplaw.mps import _bounded_lp, _canonical_lp, _integers, _restrict, decomposition_lp
from poplaw.simplex import _Tableau

UNIFORM10 = ScalarMeasure([(F(k, 9), F(1, 10)) for k in range(10)])
UNIFORM8 = ScalarMeasure([(F(k, 9), F(1, 8)) for k in range(1, 9)])
BASE = BinaryBase(F(1, 4), F(3, 4), F(1, 2))


def binary_law(n, a, b, weights):
    return two_belief_law(n, Belief.binary(a), Belief.binary(b), weights)


def two_belief_law(n, lo, hi, weights):
    """Weight weights[k] on the empirical distribution with k agents at hi."""
    total = sum(weights)
    return PopulationLaw(
        n,
        [
            (EmpiricalDistribution(n, [(hi, k), (lo, n - k)]), F(w, total))
            for k, w in enumerate(weights)
            if w
        ],
    )


def golden_infeasible_law():
    """The law of tests/data/three_beliefs_infeasible.json, infeasible under its mean.

    Each atom, of weight 1/3, holds two agents' beliefs (mass on state 1).
    """
    pairs = [(F(3, 4), F(1, 4)), (F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))]
    return PopulationLaw(
        2,
        [
            (EmpiricalDistribution(2, [(Belief.binary(v), p.count(v)) for v in set(p)]), F(1, 3))
            for p in pairs
        ],
    )


def footnote_instance():
    b13, b23 = Belief.binary(F(1, 3)), Belief.binary(F(2, 3))
    h1 = EmpiricalDistribution(3, [(b13, 2), (b23, 1)])
    h2 = EmpiricalDistribution(3, [(b23, 2), (b13, 1)])
    law = PopulationLaw(3, [(h1, F(1, 2)), (h2, F(1, 2))])
    tilt0 = DiscreteMeasure([(b13, F(2, 3)), (b23, F(1, 3))])
    tilt1 = DiscreteMeasure([(b13, F(1, 3)), (b23, F(2, 3))])
    target = SpreadTarget([(F(1, 2), tilt0), (F(1, 2), tilt1)])
    return law, target, h1, h2


# --------------------------------------------------------- binary-base test


def test_binary_base_invariants():
    with pytest.raises(InvariantError):
        BinaryBase(F(3, 4), F(1, 4), F(1, 2))  # a >= b
    with pytest.raises(InvariantError):
        BinaryBase(F(1, 4), F(3, 4), F(0))  # alpha out of range


def test_uniform10_is_spread_of_quarter_base():
    verdict = is_mps_binary_base(UNIFORM10, BASE)
    assert verdict.is_spread
    assert verdict.quantile_mean == F(2, 9)


def test_uniform8_is_not_a_spread():
    verdict = is_mps_binary_base(UNIFORM8, BASE)
    assert not verdict.is_spread
    cert = verdict.certificate
    assert isinstance(cert, QuantileViolation)
    assert cert.quantile_mean == F(5, 18)
    assert cert.low_atom == F(1, 4)


def test_base_spreads_itself():
    itself = ScalarMeasure([(BASE.a, BASE.alpha), (BASE.b, 1 - BASE.alpha)])
    verdict = is_mps_binary_base(itself, BASE)
    assert verdict.is_spread


def test_mean_mismatch_certificate():
    shifted = ScalarMeasure([(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))])
    verdict = is_mps_binary_base(shifted, BASE)
    assert not verdict.is_spread
    assert isinstance(verdict.certificate, MeanMismatch)
    assert verdict.certificate.left == F(5, 8)
    assert verdict.certificate.right == F(1, 2)


# --------------------------------------------------------- decomposition


def test_footnote_law_decomposes_onto_its_empiricals():
    law, target, h1, h2 = footnote_instance()
    result = mps_decompose(law, target)
    assert isinstance(result, SpreadDecomposition)
    (w0, q0), (w1, q1) = result.components
    assert (w0, w1) == (F(1, 2), F(1, 2))
    assert q0 == PopulationLaw.dirac(h1)
    assert q1 == PopulationLaw.dirac(h2)
    assert verify_decomposition(law, target, result)


def test_no_information_case():
    mu = Belief.binary(F(2, 5))
    law = PopulationLaw.dirac(EmpiricalDistribution.constant(3, mu))
    target = SpreadTarget(
        [(F(3, 5), DiscreteMeasure.dirac(mu)), (F(2, 5), DiscreteMeasure.dirac(mu))]
    )
    result = mps_decompose(law, target)
    assert isinstance(result, SpreadDecomposition)
    assert all(q == law for _, q in result.components)
    assert verify_decomposition(law, target, result)


def test_uniform8_embedded_law_is_refuted_on_both_routes():
    law = binary_law(9, F(1, 4), F(3, 4), [0] + [1] * 8 + [0])
    target = base_law(law, Prior.binary(F(1, 2)))
    quick = mps_decompose(law, target)
    assert isinstance(quick, QuantileViolation)
    assert verify_certificate(law, target, quick)
    via_lp = mps_decompose(law, target, route="lp")
    assert isinstance(via_lp, FarkasCertificate)
    assert verify_certificate(law, target, via_lp)


@pytest.mark.parametrize("route", ["magic", "quantile", "x" * 10**5], ids=["magic", "quantile", "long"])
def test_route_validation(route):
    law, target, _, _ = footnote_instance()
    with pytest.raises(InvariantError, match="unknown route") as info:
        mps_decompose(law, target, route=route)
    assert len(str(info.value)) < 200


def test_quantile_route_requires_two_point_support():
    """A law on three beliefs passes the two-belief shortcut on to the LPs."""
    mu = Belief.binary(F(1, 2))
    law = PopulationLaw(
        2,
        [
            (EmpiricalDistribution.constant(2, Belief.binary(0)), F(1, 4)),
            (EmpiricalDistribution.constant(2, Belief.binary(1)), F(1, 4)),
            (EmpiricalDistribution.constant(2, mu), F(1, 2)),
        ],
    )
    target = base_law(law, Prior.binary(F(1, 2)))
    assert mps_decompose(law, target) == mps_decompose(law, target, route="lp")
    assert isinstance(mps_decompose(law, target, route="lp"), SpreadDecomposition)


# --------------------------------------------------------- verifiers


def test_verify_decomposition_rejects_perturbation():
    law, target, h1, h2 = footnote_instance()
    good = mps_decompose(law, target)
    assert verify_decomposition(law, target, good)
    eps = F(1, 1000)
    (w0, q0), (w1, q1) = good.components
    bad = SpreadDecomposition([(w0 + eps, q0), (w1 - eps, q1)])
    assert not verify_decomposition(law, target, bad)
    # tampering with a component law is also caught
    swapped = SpreadDecomposition([(w0, q1), (w1, q0)])
    assert not verify_decomposition(law, target, swapped)
    # so is a decomposition with a different number of components
    assert not verify_decomposition(law, target, SpreadDecomposition([(w0, q0)]))


def test_verify_decomposition_rejects_negative_weights():
    """The golden infeasible law has an unbounded-LP 'decomposition' with one weight below 0."""
    law = golden_infeasible_law()
    target = base_law(law, Prior.binary(F(11, 24)))
    (e0, _), (e1, _), (e2, _) = law.atoms
    parts = [
        (F(13, 24), [(e0, F(2, 13)), (e1, F(10, 13)), (e2, F(1, 13))]),
        (F(11, 24), [(e0, F(6, 11)), (e1, F(-2, 11)), (e2, F(7, 11))]),
    ]
    forged = SpreadDecomposition(
        (w, _trusted(PopulationLaw, n=2, atoms=tuple(atoms))) for w, atoms in parts
    )
    assert mix_laws(forged.components) == law
    for (_, q), (_, measure) in zip(forged.components, target.components):
        assert law_expected_measure(q) == measure
    assert not verify_decomposition(law, target, forged)


def tampered_decompositions(law, target, decomposition, rng):
    """Name -> ((law, target, decomposition), whether it is genuine), from a genuine one.

    One component and one of its atoms, (e, w), are picked at random. Only
    splitting that atom into two halves keeps the decomposition genuine; every
    other entry is a forgery.
    """
    comps = list(decomposition.components)
    c = rng.randrange(len(comps))
    atoms = list(comps[c][1].atoms)
    i = rng.randrange(len(atoms))
    e, w = atoms[i]
    before, after = atoms[:i], atoms[i + 1 :]

    def component(new_atoms, n=law.n, genuine=False):
        forged = comps.copy()
        forged[c] = (comps[c][0], _trusted(PopulationLaw, n=n, atoms=tuple(new_atoms)))
        return (law, target, SpreadDecomposition(forged)), genuine

    pool = BINARY_POOL if law.dimension == 2 else TERNARY_POOL
    outside = next(
        empirical
        for empirical in (EmpiricalDistribution.constant(law.n, b) for b in pool)
        if empirical not in law.support()
    )
    lifted = SpreadTarget(
        (weight, DiscreteMeasure((Belief((*b.coords, 0)), v) for b, v in measure.atoms))
        for weight, measure in target.components
    )
    halves = [*before, (e, w / 2), (e, w / 2), *after]
    not_laws = {"junk": "junk", "a measure": target.components[c][1]}
    cases = {
        "split an atom in halves": component(halves, genuine=True),
        "drop an atom": component(before + after),
        "atom off the support": component([*before, (e, w / 2), (outside, w / 2), *after]),
        "another n": component(atoms, n=law.n + 1),
        "duplicated atom": component(atoms + [(e, w)]),
        "zero weight": component(atoms + [(e, F(0))]),
        "negative weight": component(atoms + [(e, -w), (e, w)]),
        "another state space": ((law, lifted, decomposition), False),
    }
    for name, part in not_laws.items():
        forged = comps.copy()
        forged[c] = (comps[c][0], part)
        cases[f"{name} for a component law"] = ((law, target, SpreadDecomposition(forged)), False)
    if len(atoms) > 1:
        k = rng.choice([k for k in range(len(atoms)) if k != i])
        shifted = atoms.copy()
        shifted[i], shifted[k] = (e, w / 2), (atoms[k][0], atoms[k][1] + w / 2)
        cases["shifted weight"] = component(shifted)
    unlike = [
        (a, b)
        for a, b in itertools.combinations(range(len(comps)), 2)
        if target.components[a] != target.components[b]
    ]
    if unlike:
        a, b = rng.choice(unlike)
        swapped = comps.copy()
        swapped[a], swapped[b] = comps[b], comps[a]
        cases["swapped components"] = ((law, target, SpreadDecomposition(swapped)), False)
    if len(law.atoms) > 1:
        # the same atoms reweighted: every moment row still holds, a mass row does not
        (e0, p0), (e1, p1), *rest = law.atoms
        reweighted = PopulationLaw(law.n, [(e0, p0 / 2), (e1, p1 + p0 / 2), *rest])
        cases["another law on the same atoms"] = ((reweighted, target, decomposition), False)
    return cases


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_verify_decomposition_agrees_with_the_fraction_reference(seed):
    """Both verifiers accept genuine decompositions on both routes and refuse every forgery."""
    rng = random.Random(seed)
    law, prior = random_feasible_instance(rng)
    target = base_law(law, prior)
    for route in ("auto", "lp"):
        genuine = mps_decompose(law, target, route=route)
        assert verify_decomposition(law, target, genuine) is True
        assert reference_verify_decomposition(law, target, genuine) is True
        for name, (args, expected) in tampered_decompositions(law, target, genuine, rng).items():
            assert verify_decomposition(*args) is expected, name
            assert reference_verify_decomposition(*args) is expected, name


def test_verify_certificate_rejects_fabrications():
    law = binary_law(9, F(1, 4), F(3, 4), [0] + [1] * 8 + [0])
    target = base_law(law, Prior.binary(F(1, 2)))
    assert not verify_certificate(
        law, target, MeanMismatch(F(1, 2), F(1, 2))
    )  # equal means refute nothing
    rows = 9 + 2 * 2  # mass rows plus per-component moment rows
    assert not verify_certificate(
        law, target, FarkasCertificate(tuple([F(0)] * rows))
    )
    # a correct-looking violation with the wrong numbers fails
    assert not verify_certificate(
        law, target, QuantileViolation(F(1, 2), F(1, 4), F(1, 4))
    )
    # anything but a certificate refutes nothing
    assert not verify_certificate(law, target, None)
    # a quantile violation needs two target positions
    single = SpreadTarget([(F(1), law_expected_measure(law))])
    assert not verify_certificate(law, single, QuantileViolation(F(1), F(1, 2), F(1, 2)))
    # the quantile criterion's certificates refute only laws and targets on two beliefs
    wide = golden_infeasible_law()
    wide_target = base_law(wide, Prior.binary(F(11, 24)))
    mean = barycenter(law_expected_measure(wide)).coordinate(1)
    assert not verify_certificate(wide, wide_target, MeanMismatch(mean, F(1, 2)))
    assert not verify_certificate(wide, wide_target, QuantileViolation(F(13, 24), F(1, 2), F(1, 4)))
    # malformed evidence gets False, never an exception
    assert not verify_certificate(law, target, FarkasCertificate(None))
    assert not verify_decomposition(law, target, None)
    for part in ("junk", target.components[0][1]):
        forged = SpreadDecomposition((w, part) for w, _ in target.components)
        assert not verify_decomposition(law, target, forged)


def test_verify_certificate_accepts_a_quantile_violation_whose_means_differ():
    """The quantile check alone refutes: the means (3/4 and 3/8) need not agree."""
    lo, hi = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))
    counts = ([(lo, 2)], [(lo, 1), (hi, 1)])
    law = PopulationLaw(2, [(EmpiricalDistribution(2, c), F(1, 2)) for c in counts])
    target = SpreadTarget(
        (F(1, 2), DiscreteMeasure([(lo, m), (hi, 1 - m)])) for m in (F(1, 4), F(1, 2))
    )
    assert verify_certificate(law, target, QuantileViolation(F(1, 2), F(1, 2), F(1, 4)))


@pytest.mark.parametrize("entry", [float, str, bool])
def test_farkas_vector_with_inexact_entries_refutes_nothing(entry):
    """The golden refutation with its zero entries retyped: False, not a `TypeError`."""
    law = golden_infeasible_law()
    verdict = check_feasible(law, Prior.binary(F(11, 24)))
    y = verdict.certificate.y
    assert verify_certificate(law, verdict.base, verdict.certificate)
    retyped = FarkasCertificate(tuple(entry(v) if v == 0 else v for v in y))
    assert not verify_certificate(law, verdict.base, retyped)


# --------------------------------------------------------- oracle agreement


def test_exhaustive_agreement_small_grid():
    """Shortcut and LP verdicts coincide on every small binary-posterior law."""
    from poplaw import barycenter, law_expected_measure

    a, b = F(1, 4), F(3, 4)
    checked = 0
    for n in (1, 2, 3):
        for denom in (1, 2, 3):
            for weights in itertools.product(range(denom + 1), repeat=n + 1):
                if sum(weights) != denom:
                    continue
                law = binary_law(n, a, b, list(weights))
                mu = barycenter(law_expected_measure(law)).coordinate(1)
                if not 0 < mu < 1:
                    continue
                target = base_law(law, Prior.binary(mu))
                quick = mps_decompose(law, target)
                via_lp = mps_decompose(law, target, route="lp")
                assert isinstance(quick, SpreadDecomposition) == isinstance(
                    via_lp, SpreadDecomposition
                )
                checked += 1
    assert checked > 50


def test_randomized_soundness():
    """Whatever mps_decompose returns must pass its verifier, on both routes."""
    rng = random.Random(20240811)
    for _ in range(300):
        law, prior, a, b, _ = random_binary_posterior_law(rng, max_n=5, max_denominator=10)
        from poplaw import check_feasible

        verdict = check_feasible(law, prior)
        if not verdict.prior_consistent:
            continue
        target = verdict.base
        for route in ("auto", "lp"):
            result = mps_decompose(law, target, route=route)
            if isinstance(result, SpreadDecomposition):
                assert verify_decomposition(law, target, result)
            else:
                assert verify_certificate(law, target, result)


# --------------------------------------------------------- hand-built two-belief targets

TWO_BELIEF_POOL = [Belief.binary(x) for x in (0, F(1, 4), F(1, 2), F(2, 3), 1)]
POSITION_GRID = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]


@st.composite
def two_belief_instances(draw):
    """A law on two beliefs and a target of 1-4 components on the same two.

    Positions (mass at `hi`) come from a small grid and may repeat. Three
    modes: free weights (mostly mean mismatches), weights solved so the
    target mean equals the law's, and a law centred on the one position.
    """
    lo, hi = draw(st.lists(st.sampled_from(TWO_BELIEF_POOL), min_size=2, max_size=2, unique=True))
    n = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["free", "matched", "centred"]))
    count = draw(st.integers(1, 4))
    if mode == "centred":
        k = draw(st.integers(0, n))
        law_weights = [0] * (n + 1)
        law_weights[k] = draw(st.integers(1, 3))
        for d in range(1, min(k, n - k) + 1):
            pair = draw(st.integers(0, 2))
            law_weights[k - d] += pair
            law_weights[k + d] += pair
        positions = [F(k, n)] * count
    else:
        law_weights = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
        if not any(law_weights):
            law_weights[draw(st.integers(0, n))] = 1
        positions = draw(st.lists(st.sampled_from(POSITION_GRID), min_size=count, max_size=count))
    raw = [F(w) for w in draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))]
    law = two_belief_law(n, lo, hi, law_weights)
    mean = sum(F(k, n) * F(w, sum(law_weights)) for k, w in enumerate(law_weights))
    if mode == "matched":
        if mean < min(positions):
            positions[0] = F(0)
        elif mean > max(positions):
            positions[0] = F(1)
        total = sum(raw)
        moment = sum(r * p for r, p in zip(raw, positions))
        if moment != mean * total:
            # raise the weight of one position on the far side of the mean
            side = 1 if moment < mean * total else -1
            far = [j for j, p in enumerate(positions) if (p - mean) * side > 0]
            if far:
                j = far[0]
                raw[j] += (mean * total - moment) / (positions[j] - mean)
    total = sum(raw)
    target = SpreadTarget(
        (r / total, DiscreteMeasure([(lo, 1 - p), (hi, p)])) for r, p in zip(raw, positions)
    )
    return law, target


def _perturbed(certificate):
    for field in dataclasses.fields(certificate):
        value = getattr(certificate, field.name)
        yield dataclasses.replace(certificate, **{field.name: value + F(1, 7)})


@settings(max_examples=300, deadline=None)
@given(two_belief_instances())
def test_two_belief_route_on_hand_built_targets(instance):
    """The quantile route agrees with the LP and its evidence verifies."""
    law, target = instance
    quick = mps_decompose(law, target)
    via_lp = mps_decompose(law, target, route="lp")
    assert isinstance(quick, SpreadDecomposition) == isinstance(via_lp, SpreadDecomposition)
    for result in (quick, via_lp):
        if isinstance(result, SpreadDecomposition):
            assert verify_decomposition(law, target, result)
        else:
            assert verify_certificate(law, target, result)
    if isinstance(quick, (MeanMismatch, QuantileViolation)):
        for forged in _perturbed(quick):
            assert not verify_certificate(law, target, forged)


# --------------------------------------------------------- the shortcut in integers
# route "auto" decides two-belief targets in integers; the plain `Fraction`
# shortcut in `_lawgen` pins its evidence, and the LP whatever it passes on


def forged_certificates(law, target, result):
    """(`verify_certificate`'s arguments, its answer or None) from an `mps_decompose` result.

    A certificate refutes. On two beliefs, the scalar law's mean and the
    target's make a mean mismatch, and for two positions the low one, its
    weight and the lower slice's mean a quantile violation; each refutes iff
    its numbers break the criterion, so after a decomposition neither does. A
    shortcut certificate with one field nudged by 1/7, or a mean mismatch with
    its sides swapped, refutes nothing; a quantile violation still refutes once
    the high position moves, though the means then differ. A Farkas vector
    forged by `_forged_farkas` may go either way (None).
    """
    if not isinstance(result, SpreadDecomposition):
        yield (law, target, result), True
    if isinstance(result, FarkasCertificate):
        for y in _forged_farkas(result.y):
            yield (law, target, FarkasCertificate(y)), None
    reading = two_point_reading(law, target)
    if reading is None:
        return
    (low, high), scalar_law, grouped = reading
    mean, base_mean = scalar_law.mean(), sum(p * w for p, w in grouped.items())
    yield (law, target, MeanMismatch(mean, base_mean)), mean != base_mean
    if len(grouped) == 2:
        (low_pos, alpha), (high_pos, _) = sorted(grouped.items())
        qmean = quantile_distribution(scalar_law, alpha).mean()
        yield (law, target, QuantileViolation(alpha, qmean, low_pos)), qmean > low_pos
    if isinstance(result, (MeanMismatch, QuantileViolation)):
        for forged in _perturbed(result):
            yield (law, target, forged), False
    if isinstance(result, MeanMismatch):
        yield (law, target, MeanMismatch(result.right, result.left)), False
    elif isinstance(result, QuantileViolation):
        moved = (high_pos + 1) / 2 if high_pos < 1 else (low_pos + 1) / 2
        moved_part = DiscreteMeasure([(low, 1 - moved), (high, moved)])
        moved_target = SpreadTarget(
            (w, moved_part if m.mass(high) == high_pos else m) for w, m in target.components
        )
        yield (law, moved_target, result), True


def assert_shortcut_matches_the_reference(law, target):
    """The same decomposition or certificate, with the same number types; returns it.

    `verify_certificate` and `reference_verify_certificate` give one answer on
    each of the result's `forged_certificates`.
    """
    expected = reference_two_point(law, target)
    if expected is None:
        expected = mps_decompose(law, target, route="lp")
    result = mps_decompose(law, target)
    assert result == expected
    assert repr(result) == repr(expected)
    for args, answer in forged_certificates(law, target, result):
        assert verify_certificate(*args) is reference_verify_certificate(*args)
        assert answer is None or verify_certificate(*args) is answer
    return result


@st.composite
def binary_base_instances(draw):
    """A law of `random_binary_posterior_law` and its base law, at the prior its mean sets."""
    law = random_binary_posterior_law(random.Random(draw(st.integers(0, 2**32))))[0]
    center = barycenter(law_expected_measure(law))
    assume(0 not in center.coords)
    return law, base_law(law, Prior(center))


@settings(max_examples=400, deadline=None)
@given(st.one_of(two_belief_instances(), binary_base_instances(), two_belief_spreads()))
def test_integer_shortcut_matches_the_fraction_shortcut(instance):
    assert_shortcut_matches_the_reference(*instance)


LO, HI = Belief.binary(F(1, 4)), Belief.binary(F(2, 3))


def positions_target(*pairs):
    """Components (weight, position), a position being the mass at HI."""
    return SpreadTarget((w, DiscreteMeasure([(LO, 1 - p), (HI, p)])) for w, p in pairs)


DECOMPOSED, REFUTED, MISMATCHED = SpreadDecomposition, QuantileViolation, MeanMismatch
HALF = F(1, 2)
# law weights by agents at HI, target components (weight, position), and the evidence kind
SHORTCUT_CASES = {
    # the alpha = 1/2 slice takes the k = 0 and k = 1 atoms whole
    "slice-at-atom-boundary": ([1, 1, 2], [(HALF, F(1, 3)), (HALF, F(11, 12))], DECOMPOSED),
    # the slice's mean is the low position, so lam = 0
    "criterion-equality": ([1, 1, 2], [(HALF, F(1, 4)), (HALF, 1)], DECOMPOSED),
    "one-atom-carries-the-slice": ([3, 1, 1], [(HALF, F(1, 10)), (HALF, HALF)], DECOMPOSED),
    "positions-0-and-1-refuted": ([2, 1, 1, 2], [(HALF, 0), (HALF, 1)], REFUTED),
    "positions-0-and-1-spread": ([2, 0, 0, 1], [(F(2, 3), 0), (F(1, 3), 1)], DECOMPOSED),
    # the low position (in the beliefs' order) weighs alpha = 3/5, a numerator other than 1
    "refuted-at-alpha-three-fifths": ([1, 1, 1], [(F(2, 5), 0), (F(3, 5), F(5, 6))], REFUTED),
    # one agent: every target with the law's mean is spread, down to the criterion's equality
    "n1-extremes": ([1, 2], [(F(1, 3), 0), (F(2, 3), 1)], DECOMPOSED),
    "n1-interior": ([1, 1], [(HALF, F(1, 4)), (HALF, F(3, 4))], DECOMPOSED),
    "n1-criterion-equality": ([1, 1], [(F(3, 4), F(1, 3)), (F(1, 4), 1)], DECOMPOSED),
    "n1-one-position": ([1, 1], [(1, HALF)], DECOMPOSED),
    "two-positions-mean-mismatch": ([1, 1], [(HALF, F(1, 4)), (HALF, 1)], MISMATCHED),
    "one-position-mean-match": ([1, 0, 1], [(1, HALF)], DECOMPOSED),
    "one-position-twice": ([1, 2, 1], [(F(1, 3), HALF), (F(2, 3), HALF)], DECOMPOSED),
    "one-position-mean-mismatch": ([1, 0, 1], [(1, F(1, 3))], MISMATCHED),
}


@pytest.mark.parametrize("weights,components,kind", SHORTCUT_CASES.values(), ids=SHORTCUT_CASES)
def test_integer_shortcut_hand_cases(weights, components, kind):
    law = two_belief_law(len(weights) - 1, LO, HI, weights)
    target = positions_target(*components)
    result = assert_shortcut_matches_the_reference(law, target)
    assert isinstance(result, kind)
    if kind is SpreadDecomposition:
        assert verify_decomposition(law, target, result)
    else:
        assert verify_certificate(law, target, result)


# --------------------------------------------------------- bounded two-component LP


def _forged_farkas(y):
    """Each entry plus 1/7, negated and zeroed; y cut by one entry; y extended by a zero."""
    for i, v in enumerate(y):
        for forged in (v + F(1, 7), -v, F(0)):
            yield (*y[:i], forged, *y[i + 1 :])
    yield y[:-1]
    yield (*y, F(0))


def assert_bounded_lp_agrees_with_the_canonical_lp(law, target):
    """Same verdict as the canonical LP, and evidence that verifies.

    Each Farkas vector, and every forgery of it, gets the same answer from
    `verify_certificate` as from the dense reference check.
    """
    result = mps_decompose(law, target, route="lp")
    canonical = solve_fraction_rows(*decomposition_lp(law, target))
    assert isinstance(result, SpreadDecomposition) == canonical.feasible
    if law_expected_measure(law) != mixture(target):
        # only the canonical LP decides a target that misses the law's mean
        assert result == FarkasCertificate(canonical.farkas)
    if isinstance(result, SpreadDecomposition):
        assert verify_decomposition(law, target, result)
        for _, part in result.components:
            assert all(w > 0 for _, w in part.atoms)
            assert sum(w for _, w in part.atoms) == 1
    else:
        assert isinstance(result, FarkasCertificate)
        assert verify_certificate(law, target, result)
        rows, rhs = reference_decomposition_lp(law, target)
        for y in (result.y, *_forged_farkas(result.y)):
            expected = farkas_refutes(rows, rhs, y)
            assert verify_certificate(law, target, FarkasCertificate(y)) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_bounded_lp_agrees_with_the_canonical_lp(seed):
    """Two-component targets: same verdict as the canonical LP, and evidence that verifies."""
    assert_bounded_lp_agrees_with_the_canonical_lp(*random_two_component_problem(random.Random(seed)))


@pytest.mark.parametrize("n", range(1, 9))
def test_bounded_lp_agrees_with_the_canonical_lp_on_wide_products(n):
    assert_bounded_lp_agrees_with_the_canonical_lp(*wide_product_problem(n))


def test_wide_refutation_verifies_in_time():
    """The n = 40 refutation (861 atoms) verifies in under half a second."""
    law, target = wide_product_problem(40)
    verdict = check_feasible(law, WIDE_PRIOR)
    assert verdict.base == target and isinstance(verdict.certificate, FarkasCertificate)
    start = time.perf_counter()
    assert verify_certificate(law, target, verdict.certificate)
    assert time.perf_counter() - start < 0.5


def test_wide_refutation_at_n80_verifies_in_a_tenth_of_a_second():
    """The n = 80 refutation (3,321 atoms) verifies, in integers, in under 0.1 s."""
    law, target = wide_product_problem(80)
    verdict = check_feasible(law, WIDE_PRIOR)
    assert verdict.base == target and isinstance(verdict.certificate, FarkasCertificate)
    gc.collect()  # else a full collection over the session's objects may land in the timed call
    start = time.perf_counter()
    assert verify_certificate(law, target, verdict.certificate)
    assert time.perf_counter() - start < 0.1


def test_target_missing_the_law_mean_gets_a_farkas_vector():
    law, target, _, _ = footnote_instance()
    (w0, m0), (w1, _) = target.components
    missed = SpreadTarget([(w0, m0), (w1, m0)])
    result = mps_decompose(law, missed, route="lp")
    assert result == FarkasCertificate(solve_fraction_rows(*decomposition_lp(law, missed)).farkas)
    assert verify_certificate(law, missed, result)


def mean_missing_targets():
    """Targets whose mixture misses the footnote law's expected measure.

    The two-belief shortcut decides neither: the first puts a component on a
    belief outside the law's support, the second has three positions.
    """
    law, target, _, _ = footnote_instance()
    (_, tilt0), (_, tilt1) = target.components
    outside = DiscreteMeasure.dirac(Belief.binary(F(1, 2)))
    middle = DiscreteMeasure([(Belief.binary(F(1, 3)), F(1, 2)), (Belief.binary(F(2, 3)), F(1, 2))])
    return law, {
        "outside": SpreadTarget([(F(1, 2), tilt0), (F(1, 2), outside)]),
        "three": SpreadTarget([(F(1, 2), tilt0), (F(1, 4), tilt1), (F(1, 4), middle)]),
    }


@pytest.mark.parametrize("route", ["auto", "lp"])
@pytest.mark.parametrize("which", ["outside", "three"])
def test_mean_missing_targets_get_the_canonical_farkas_vector(which, route):
    law, targets = mean_missing_targets()
    target = targets[which]
    assert law_expected_measure(law) != mixture(target)
    result = mps_decompose(law, target, route=route)
    assert result == FarkasCertificate(solve_fraction_rows(*decomposition_lp(law, target)).farkas)
    assert verify_certificate(law, target, result)


def test_bounded_farkas_vector_prices_the_bounds():
    """The golden infeasible law: nonzero mass-row prices, nothing on component 1's rows."""
    law = golden_infeasible_law()
    target = base_law(law, Prior.binary(F(11, 24)))
    result = mps_decompose(law, target)
    assert isinstance(result, FarkasCertificate)
    assert result.y == (0, -6, 0, F(-13, 2), 0, F(13, 2), 0, 0, 0)
    assert verify_certificate(law, target, result)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_three_components_keep_the_canonical_lp(seed):
    rng = random.Random(seed)
    law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
    while prior.dimension != 3:
        law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
    target = base_law(law, prior)
    outcome = solve_fraction_rows(*decomposition_lp(law, target))
    J = len(law.atoms)
    expected = SpreadDecomposition(
        (w, _restrict(law, enumerate(outcome.solution[c * J : (c + 1) * J])))
        for c, (w, _) in enumerate(target.components)
    )
    assert mps_decompose(law, target, route="lp") == expected


def test_every_lp_step_solves_through_solve_equalities(monkeypatch):
    """Each LP step calls `solve_equalities` as `mps` binds it; the shortcut calls none.

    Tools that time the simplex wrap that name wherever a module binds it.
    """
    solved = []
    solve = mps.solve_equalities

    def counting(*args, **kwargs):
        solved.append(kwargs.get("bounded", False))
        return solve(*args, **kwargs)

    monkeypatch.setattr(mps, "solve_equalities", counting)
    rng = random.Random(3)
    law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
    while prior.dimension != 3:
        law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
    assert isinstance(mps_decompose(law, base_law(law, prior)), SpreadDecomposition)
    assert solved and not any(solved)  # the canonical LP
    solved.clear()
    law = golden_infeasible_law()
    assert isinstance(mps_decompose(law, base_law(law, Prior.binary(F(11, 24)))), FarkasCertificate)
    assert solved and all(solved)  # the bounded LP
    solved.clear()
    law, target, _, _ = footnote_instance()
    assert isinstance(mps_decompose(law, target), SpreadDecomposition)
    assert solved == []


# --------------------------------------------------------- integer rows from counts
# mps_decompose solves the integer columns of `_canonical_lp` and `_bounded_lp`;
# the tableau's starting rows equal the reference integerization of the
# Fraction systems, so they pivot as those would.


def assert_integer_rows_match(law, target):
    """Both systems' starting rows against `reference_integerize`; returns the canonical tableau."""
    stated = _integers(law, target)
    canonical = _Tableau(*_canonical_lp(law, stated))
    assert decomposition_lp(law, target) == reference_decomposition_lp(law, target)
    expected = reference_starting_rows(*decomposition_lp(law, target))
    assert (canonical.rows[:-1], canonical.scales) == expected
    if len(target.components) == 2:
        bounded = _bounded_lp(law, stated)
        if law_expected_measure(law) != mixture(target):
            assert bounded is None
        else:
            rows, rhs, upper = bounded_decomposition_lp(law, target)
            scaled = [[v * u for v, u in zip(row, upper)] for row in rows]
            tableau = _Tableau(*bounded, bounded=True)
            assert (tableau.rows[:-1], tableau.scales) == reference_starting_rows(scaled, rhs)
    return canonical


def test_integer_rows_of_base_laws_match_integerize():
    rng = random.Random(11)
    states = set()
    for _ in range(150):
        law, prior = random_feasible_instance(rng)
        assert_integer_rows_match(law, base_law(law, prior))
        states.add(law.dimension)
    assert states == {2, 3}


def test_integer_rows_of_two_component_targets_match_integerize():
    rng = random.Random(12)
    kinds = set()
    for _ in range(300):
        law, target = random_two_component_problem(rng)
        assert_integer_rows_match(law, target)
        kinds.add((law.dimension, law_expected_measure(law) == mixture(target)))
    # two and three states, each with targets that match and that miss the law's mean
    assert kinds == {(2, True), (2, False), (3, True), (3, False)}


def test_zero_moment_row_keeps_scale_one():
    """A target belief outside the law's support with no mass in component 0."""
    law, targets = mean_missing_targets()
    target = targets["outside"]
    tableau = assert_integer_rows_match(law, target)
    # an all-zero row holds only its artificial
    zero = [i for i, row in enumerate(tableau.rows[:-1]) if row.keys() == {tableau.n + i}]
    assert zero and all(tableau.scales[i] == 1 for i in zero)
    assert law.n == 3  # the row times n would have scale 3


# --------------------------------------------------------- boundary exactness


def test_boundary_flip():
    """At the quantile boundary the verdict is feasible; any push past it flips."""
    base = BinaryBase(F(1, 4), F(3, 4), F(1, 2))
    at_boundary = ScalarMeasure([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
    assert is_mps_binary_base(at_boundary, base).is_spread
    for eps_denom in (10, 1000, 10**6):
        eps = F(1, eps_denom)
        pushed = ScalarMeasure(
            [(F(1, 4) + eps, F(1, 2)), (F(3, 4) - eps, F(1, 2))]
        )
        verdict = is_mps_binary_base(pushed, base)
        assert not verdict.is_spread
        assert isinstance(verdict.certificate, QuantileViolation)
        assert verdict.certificate.quantile_mean == F(1, 4) + eps
