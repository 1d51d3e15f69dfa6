import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lawgen import (
    bounded_as_canonical,
    bounded_decomposition_lp,
    bounded_farkas_as_canonical,
    farkas_refutes,
    fraction_columns,
    mixture,
    random_binary_posterior_law,
    random_feasible_instance,
    random_two_component_problem,
    reference_bounded_phase1,
    reference_phase1,
    reference_starting_rows,
    solve_fraction_rows,
    wide_product_problem,
)
from poplaw import base_law, law_expected_measure
from poplaw.mps import decomposition_lp
from poplaw.simplex import _Tableau


def test_feasible_system_solution_is_exact():
    # x1 + x2 = 1, x1 - x2 = 1/3  ->  x = (2/3, 1/3)
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    rhs = [F(1), F(1, 3)]
    out = solve_fraction_rows(rows, rhs)
    assert out.feasible
    x = out.solution
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(r * v for r, v in zip(row, x)) == b


def test_infeasible_system_gets_verifiable_farkas():
    rows = [[F(1)], [F(1)]]
    rhs = [F(1), F(2)]
    out = solve_fraction_rows(rows, rhs)
    assert not out.feasible
    assert farkas_refutes(rows, rhs, out.farkas)


def test_negativity_requirement_detected():
    # x1 - x2 = -1 with x >= 0 is feasible (x2 = 1); x1 + x2 = -1 is not
    assert solve_fraction_rows([[F(1), F(-1)]], [F(-1)]).feasible
    out = solve_fraction_rows([[F(1), F(1)]], [F(-1)])
    assert not out.feasible
    assert farkas_refutes([[F(1), F(1)]], [F(-1)], out.farkas)


def test_redundant_rows_are_tolerated():
    # second row is the double of the first
    rows = [[F(1), F(2)], [F(2), F(4)], [F(1), F(0)]]
    rhs = [F(1), F(2), F(1, 2)]
    out = solve_fraction_rows(rows, rhs)
    assert out.feasible
    x = out.solution
    assert x[0] == F(1, 2) and x[1] == F(1, 4)


def test_farkas_vector_of_zeros_refutes_nothing():
    rows = [[F(1)]]
    rhs = [F(1)]
    assert not farkas_refutes(rows, rhs, [F(0)])


def test_determinism_of_solutions():
    rows = [[F(1), F(1), F(1)], [F(0), F(1, 2), F(1)]]
    rhs = [F(1), F(1, 2)]
    first = solve_fraction_rows(rows, rhs).solution
    for _ in range(5):
        assert solve_fraction_rows(rows, rhs).solution == first


def test_big_denominators_stay_exact():
    rows = [[F(1, 7), F(3, 11)], [F(5, 13), F(2, 9)]]
    x_true = (F(22, 7), F(11, 3))
    rhs = [sum(r * v for r, v in zip(row, x_true)) for row in rows]
    out = solve_fraction_rows(rows, rhs)
    assert out.feasible
    for row, b in zip(rows, rhs):
        assert sum(r * v for r, v in zip(row, out.solution)) == b


# ------------------------------------------- pivot path against the reference
# Equal solutions and Farkas vectors mean the same Bland pivots: both solvers
# start from the same integer rows, and the rational tableau after each pivot
# depends only on the pivots taken so far.

SMALL = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(3, 2)])


@st.composite
def small_systems(draw):
    """Few small values, many zeros: ratio ties at zero and between equal rows."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    rows = [[draw(SMALL) for _ in range(n)] for _ in range(m)]
    rhs = [draw(SMALL) for _ in range(m)]
    if draw(st.booleans()):  # a redundant row: a multiple of another
        i = draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        rows.append([k * v for v in rows[i]])
        rhs.append(k * rhs[i])
    if draw(st.booleans()):  # a zero row, consistent or not
        rows.append([F(0)] * n)
        rhs.append(draw(st.sampled_from([F(0), F(1)])))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [rhs[i] for i in order]


def assert_matches_reference(rows, rhs):
    tableau = _Tableau(*fraction_columns(rows, rhs))
    assert (tableau.rows[:-1], tableau.scales) == reference_starting_rows(rows, rhs)
    out = solve_fraction_rows(rows, rhs)
    assert out == reference_phase1(rows, rhs)
    if not out.feasible:
        assert farkas_refutes(rows, rhs, out.farkas)


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_small_systems_follow_reference_pivots(system):
    assert_matches_reference(*system)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_decomposition_lps_follow_reference_pivots(seed):
    rng = random.Random(seed)
    law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
    assert_matches_reference(*decomposition_lp(law, base_law(law, prior))[:2])
    consistent = False
    while not consistent:  # the base law needs the prior to be the law's mean
        law, prior, _, _, consistent = random_binary_posterior_law(rng, max_n=5, max_denominator=8)
    assert_matches_reference(*decomposition_lp(law, base_law(law, prior))[:2])


# ------------------------------------------------- bounded columns against the reference
# The bounded tableau keeps columns at their upper bound complemented; the
# reference keeps a bound status per column instead. Equal solutions and
# Farkas vectors mean the same pivots and the same bound flips.

BOUNDS = st.sampled_from([F(1), F(1, 2), F(2), F(3, 4)])
DENSE = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(3, 2)])


@st.composite
def bounded_systems(draw):
    """`small_systems`, or denser ones where basic variables often reach their bounds."""
    if draw(st.booleans()):
        rows, rhs = draw(small_systems())
    else:
        n = draw(st.integers(1, 5))
        m = draw(st.integers(1, 4))
        rows = [[draw(DENSE) for _ in range(n)] for _ in range(m)]
        rhs = [draw(DENSE) for _ in range(m)]
    return rows, rhs, [draw(BOUNDS) for _ in rows[0]]


def assert_bounded_matches_reference(rows, rhs, upper):
    out = solve_fraction_rows(rows, rhs, upper)
    assert out == reference_bounded_phase1(rows, rhs, upper)
    if out.feasible:
        x = out.solution
        assert all(0 <= v <= u for v, u in zip(x, upper))
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b
    else:
        canonical = bounded_as_canonical(rows, rhs, upper)
        assert farkas_refutes(*canonical, bounded_farkas_as_canonical(rows, out.farkas))
    return out


@settings(max_examples=300, deadline=None)
@given(bounded_systems())
def test_small_bounded_systems_follow_reference_pivots(system):
    assert_bounded_matches_reference(*system)


def test_bound_flips_reach_the_upper_corner():
    # x1 + x2 + x3 = 3 with every x_j <= 1 holds only at the all-ones corner
    rows = [[F(1), F(1), F(1)]]
    out = assert_bounded_matches_reference(rows, [F(3)], [F(1)] * 3)
    assert out.solution == (F(1), F(1), F(1))
    out = solve_fraction_rows([[F(1), F(2)]], [F(5, 2)], [F(1, 2), F(1)])
    assert out.solution == (F(1, 2), F(1))


def test_basic_variables_leave_at_their_bounds():
    # x1 flips up and back; x3, then x2, enter basic and leave at their bound
    rows = [[F(0), F(1), F(1)], [F(2), F(-1), F(2)]]
    out = assert_bounded_matches_reference(rows, [F(2), F(2)], [F(1)] * 3)
    assert out.solution == (F(1, 2), F(1), F(1))


def test_bounds_alone_can_refute():
    rows = [[F(1), F(1)]]
    out = assert_bounded_matches_reference(rows, [F(3)], [F(1), F(3, 2)])
    assert not out.feasible
    # without the bounds the same row is feasible
    assert solve_fraction_rows(rows, [F(3)]).feasible


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_bounded_decomposition_lps_follow_reference_pivots(seed):
    rng = random.Random(seed)
    law, target = random_two_component_problem(rng)
    if law_expected_measure(law) == mixture(target):
        assert_bounded_matches_reference(*bounded_decomposition_lp(law, target))


@pytest.mark.parametrize("n, pivots, complements", [(8, 21, 36), (12, 44, 105)])
def test_wide_decomposition_lps_follow_reference_pivots(monkeypatch, n, pivots, complements):
    """Many bound flips, each resuming Bland's scan past the flipped column."""
    counts = {"_pivot": 0, "_complement": 0}
    for name in counts:

        def counted(self, *args, _name=name, _method=getattr(_Tableau, name)):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(_Tableau, name, counted)
    out = assert_bounded_matches_reference(*bounded_decomposition_lp(*wide_product_problem(n)))
    assert not out.feasible
    assert counts == {"_pivot": pivots, "_complement": complements}
