from fractions import Fraction as F

from poplaw.simplex import farkas_refutes, solve_equalities


def test_feasible_system_solution_is_exact():
    # x1 + x2 = 1, x1 - x2 = 1/3  ->  x = (2/3, 1/3)
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    rhs = [F(1), F(1, 3)]
    out = solve_equalities(rows, rhs)
    assert out.feasible
    x = out.solution
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(r * v for r, v in zip(row, x)) == b


def test_infeasible_system_gets_verifiable_farkas():
    rows = [[F(1)], [F(1)]]
    rhs = [F(1), F(2)]
    out = solve_equalities(rows, rhs)
    assert not out.feasible
    assert farkas_refutes(rows, rhs, out.farkas)


def test_negativity_requirement_detected():
    # x1 - x2 = -1 with x >= 0 is feasible (x2 = 1); x1 + x2 = -1 is not
    assert solve_equalities([[F(1), F(-1)]], [F(-1)]).feasible
    out = solve_equalities([[F(1), F(1)]], [F(-1)])
    assert not out.feasible
    assert farkas_refutes([[F(1), F(1)]], [F(-1)], out.farkas)


def test_redundant_rows_are_tolerated():
    # second row is the double of the first
    rows = [[F(1), F(2)], [F(2), F(4)], [F(1), F(0)]]
    rhs = [F(1), F(2), F(1, 2)]
    out = solve_equalities(rows, rhs)
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
    first = solve_equalities(rows, rhs).solution
    for _ in range(5):
        assert solve_equalities(rows, rhs).solution == first


def test_big_denominators_stay_exact():
    rows = [[F(1, 7), F(3, 11)], [F(5, 13), F(2, 9)]]
    x_true = (F(22, 7), F(11, 3))
    rhs = [sum(r * v for r, v in zip(row, x_true)) for row in rows]
    out = solve_equalities(rows, rhs)
    assert out.feasible
    for row, b in zip(rows, rhs):
        assert sum(r * v for r, v in zip(row, out.solution)) == b
