import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lawgen import (
    marginals,
    reference_binomial_quantile_expectation,
    reference_multinomial_law,
)
from poplaw import (
    Belief,
    DiscreteMeasure,
    EmpiricalDistribution,
    InvariantError,
    Prior,
    ResourceLimitError,
    SpreadDecomposition,
    SymmetricProduct,
    barycenter,
    base_law,
    binary_product_feasible_quantile,
    binomial_quantile_expectation,
    law_expected_measure,
    mps_decompose,
    multinomial_law,
    product_feasible,
    symmetric_threshold,
    threshold_curve,
)
from poplaw import product
from poplaw.product import threshold_denominator

HALF = Prior.binary(F(1, 2))


def binary_marginal(a, b, mu):
    high = (mu - a) / (b - a)
    return DiscreteMeasure(
        [(Belief.binary(a), 1 - high), (Belief.binary(b), high)]
    )


def symmetric_marginal(a):
    return binary_marginal(a, 1 - a, F(1, 2))


# ----------------------------------------------------------- multinomial law


def test_multinomial_two_agents():
    q = symmetric_marginal(F(1, 4))
    law = multinomial_law(SymmetricProduct(q, 2))
    lo, hi = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))
    assert law.mass(EmpiricalDistribution(2, [(lo, 2)])) == F(1, 4)
    assert law.mass(EmpiricalDistribution(2, [(lo, 1), (hi, 1)])) == F(1, 2)
    assert law.mass(EmpiricalDistribution(2, [(hi, 2)])) == F(1, 4)


def test_multinomial_single_agent_is_marginal():
    q = symmetric_marginal(F(1, 3))
    law = multinomial_law(SymmetricProduct(q, 1))
    assert law_expected_measure(law) == q
    assert all(e.n == 1 for e, _ in law.atoms)


def test_multinomial_binomial_weights():
    q = symmetric_marginal(F(1, 4))
    law = multinomial_law(SymmetricProduct(q, 4))
    hi = Belief.binary(F(3, 4))
    weights = sorted(w for _, w in law.atoms)
    assert weights == sorted([F(1, 16), F(4, 16), F(6, 16), F(4, 16), F(1, 16)])
    # the all-high empirical carries 1/16
    assert law.mass(EmpiricalDistribution(4, [(hi, 4)])) == F(1, 16)


def test_multinomial_marginal_recovered():
    q = binary_marginal(F(1, 5), F(7, 10), F(1, 2))
    law = multinomial_law(SymmetricProduct(q, 5))
    assert law_expected_measure(law) == q


@settings(max_examples=150, deadline=None)
@given(marginals(), st.integers(min_value=1, max_value=6))
def test_multinomial_law_equals_the_fraction_formula(marginal, n):
    product = SymmetricProduct(marginal, n)
    law = multinomial_law(product)
    reference = reference_multinomial_law(product)
    assert law == reference  # compares the atoms tuples, so their order too
    assert all(type(w) is F for _, w in law.atoms)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.fractions(min_value=F(1, 30), max_value=F(29, 30), max_denominator=30),
    st.fractions(min_value=F(1, 30), max_value=1, max_denominator=30),
)
def test_binomial_quantile_expectation_equals_the_fraction_formula(n, p, alpha):
    value = binomial_quantile_expectation(n, p, alpha)
    assert value == reference_binomial_quantile_expectation(n, p, alpha)
    assert type(value) is F


@pytest.mark.parametrize(
    "n,p,alpha",
    [
        (3, 0, F(1, 2)),
        (3, 1, F(1, 2)),
        (0, F(1, 2), F(1, 2)),
        (3, F(1, 2), 0),
        (3, F(1, 2), F(3, 2)),
    ],
)
def test_binomial_quantile_expectation_refuses_bad_arguments(n, p, alpha):
    with pytest.raises(InvariantError):
        binomial_quantile_expectation(n, p, alpha)


def test_multinomial_resource_bound(monkeypatch):
    atoms = [(Belief.binary(F(i, 20)), F(1, 10)) for i in range(1, 11)]
    wide = DiscreteMeasure(atoms)
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "1000")
    with pytest.raises(ResourceLimitError):
        multinomial_law(SymmetricProduct(wide, 30))
    # 4 draws over 10 atoms: C(13, 9) = 715 count vectors
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "714")
    with pytest.raises(ResourceLimitError, match="more than 714 atoms"):
        multinomial_law(SymmetricProduct(wide, 4))
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "715")
    assert len(multinomial_law(SymmetricProduct(wide, 4)).atoms) == 715


def test_binomial_quantile_grid_is_bounded(monkeypatch):
    # n + 1 grid points, as many as the two-atom multinomial law's atoms
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "10")
    marginal = product.binary_marginal(F(1, 2), F(3, 10), F(7, 10))
    assert binary_product_feasible_quantile(9, F(1, 2), F(3, 10), F(7, 10)) is False
    assert not product_feasible(SymmetricProduct(marginal, 9), HALF).feasible
    with pytest.raises(ResourceLimitError) as info:
        binary_product_feasible_quantile(10, F(1, 2), F(3, 10), F(7, 10))
    assert str(info.value) == (
        "binomial quantile slice needs more than 10 grid points; raise the bound or shrink n"
    )
    with pytest.raises(ResourceLimitError):
        product_feasible(SymmetricProduct(marginal, 10), HALF)
    with pytest.raises(ResourceLimitError):
        binomial_quantile_expectation(10**6, F(1, 2), F(1, 2))


# ----------------------------------------------------------- feasibility


def test_figure_one_bar_at_four_agents():
    infeasible = product_feasible(SymmetricProduct(symmetric_marginal(F(3, 10)), 4), HALF)
    assert not infeasible.feasible
    feasible = product_feasible(SymmetricProduct(symmetric_marginal(F(7, 20)), 4), HALF)
    assert feasible.feasible


def test_single_agent_always_feasible():
    for q in (symmetric_marginal(F(1, 8)), binary_marginal(F(1, 5), F(3, 5), F(2, 5))):
        prior = Prior(barycenter(q))
        assert product_feasible(SymmetricProduct(q, 1), prior).feasible


def test_inconsistent_marginal_reported():
    verdict = product_feasible(SymmetricProduct(symmetric_marginal(F(1, 4)), 3), Prior.binary(F(2, 5)))
    assert not verdict.feasible
    assert not verdict.prior_consistent


def test_boundary_marginal_is_feasible():
    # the symmetric family at exactly the threshold stays feasible (non-strict test)
    for n in (2, 3, 4, 5, 6):
        a = symmetric_threshold(n)
        verdict = product_feasible(SymmetricProduct(symmetric_marginal(a), n), HALF)
        assert verdict.feasible


def test_just_below_threshold_is_infeasible():
    for n in (2, 4, 6):
        a = symmetric_threshold(n) - F(1, 1000)
        verdict = product_feasible(SymmetricProduct(symmetric_marginal(a), n), HALF)
        assert not verdict.feasible


# ----------------------------------------------------------- quantile values


def test_binomial_quantile_small_cases():
    assert binomial_quantile_expectation(2, F(1, 2), F(1, 2)) == F(1, 4)
    assert binomial_quantile_expectation(5, F(1, 2), F(1, 2)) == F(5, 16)


def test_binomial_quantile_full_level_is_mean():
    for n, p in ((1, F(1, 3)), (4, F(2, 7)), (9, F(5, 6))):
        assert binomial_quantile_expectation(n, p, 1) == p


def test_closed_form_small_m():
    for m in range(1, 9):
        closed = F(1, 2) - F(math.comb(2 * m, m), 2 ** (2 * m + 1))
        assert binomial_quantile_expectation(2 * m, F(1, 2), F(1, 2)) == closed
        assert binomial_quantile_expectation(2 * m + 1, F(1, 2), F(1, 2)) == closed


# ----------------------------------------------------------- thresholds


def test_threshold_examples():
    assert symmetric_threshold(2) == symmetric_threshold(3) == F(1, 4)
    assert symmetric_threshold(4) == symmetric_threshold(5) == F(5, 16)
    assert symmetric_threshold(10) == symmetric_threshold(11) == F(193, 512)
    assert float(symmetric_threshold(10)) == 0.376953125


def test_threshold_denominator_from_the_binary_digit_sum():
    # Kummer: C(2m, m) holds m.bit_count() factors 2
    for n in range(2, 401):
        assert threshold_denominator(n) == symmetric_threshold(n).denominator


def test_threshold_requires_two_agents():
    with pytest.raises(InvariantError):
        symmetric_threshold(1)


def test_threshold_curve_rows_are_bounded(monkeypatch):
    # n_max - 1 rows
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "10")
    assert len(threshold_curve(11)) == 10
    with pytest.raises(ResourceLimitError) as info:
        threshold_curve(12)
    assert str(info.value) == "threshold curve needs more than 10 rows; raise the bound"


def test_threshold_curve_rows():
    rows = threshold_curve(11)
    assert rows[0] == (2, F(1, 4))
    assert rows[-1] == (11, F(193, 512))
    assert len(rows) == 10
    # consecutive even/odd pairs share the value; the value climbs with m
    for n, t in rows:
        if n % 2 == 0 and n + 1 <= 11:
            assert t == dict(rows)[n + 1]
    evens = [t for n, t in rows if n % 2 == 0]
    assert all(a < b for a, b in zip(evens, evens[1:]))


def test_threshold_curve_carries_the_closed_form():
    # the curve carries C(2m, m) from row to row; symmetric_threshold rebuilds it
    rows = threshold_curve(600)
    assert [n for n, _ in rows] == list(range(2, 601))
    assert all(t == symmetric_threshold(n) for n, t in rows)


def test_threshold_asymptotic_envelope():
    for m in range(10, 41, 5):
        t = float(symmetric_threshold(2 * m))
        assert 0.5 - 1 / math.sqrt(2 * math.pi * m) - 0.01 <= t < 0.5


# ----------------------------------------------------------- LP cross-check


def farey(limit):
    vals = set()
    for q in range(2, limit + 1):
        for p in range(1, q):
            vals.add(F(p, q))
    return sorted(vals)


def test_quantile_criterion_matches_lp_small_grid():
    # a = 0 and b = 1 are in the bracket every product entry point shares
    grid = [F(0), *farey(5), F(1)]
    for a, mu, b in itertools.combinations(grid, 3):
        for n in (1, 2, 3, 4):
            q = binary_marginal(a, b, mu)
            law = multinomial_law(SymmetricProduct(q, n))
            target = base_law(law, Prior.binary(mu))
            via_lp = isinstance(
                mps_decompose(law, target, route="lp"), SpreadDecomposition
            )
            assert binary_product_feasible_quantile(n, mu, a, b) == via_lp
            assert product_feasible(SymmetricProduct(q, n), Prior.binary(mu)).feasible == via_lp
