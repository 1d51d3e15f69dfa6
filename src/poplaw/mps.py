"""Mean-preserving-spread tests with certificates in both directions.

`mps_decompose` decides whether a population law spreads a target mixture of
belief measures by one chain; each step decides the target or passes it on:

* the two-belief shortcut, for a law and target on exactly two beliefs and
  at most two target positions: the quantile criterion (equal means plus a
  lower-quantile bound), with a decomposition that interpolates between the
  lower and upper quantile slices, all in integers over one denominator;
* the bounded LP, for two components whose mixture is the law's expected
  measure (every two-state base law): x_j = w0 * q0[j] with 0 <= x_j <= p_j,
  one row per belief of the law, as the bound stands in for the mass rows
  and the law's mean for component 1's rows;
* the canonical LP, which decides everything left.

`_integers` states a problem once, in integers: the beliefs, each law atom's
agent counts, and the weights and masses over their least common denominators.
Every step and both verifiers read it: `verify_decomposition` checks A x = b
for a decomposition x > 0 on `_canonical_lp`'s integer columns A and rhs b,
and `verify_certificate` y.b > 0 and y.A <= 0 for a Farkas vector y, and the
shortcut's certificates on the same integers and lower slice (`_slices`).
`simplex.solve_equalities` takes those same columns, rhs and row multipliers,
and `_bounded_lp` states its LP in that form too, so pivots, solutions and
Farkas vectors are those of the `Fraction` systems (the canonical one is
`decomposition_lp`), every Farkas vector over the canonical rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from .errors import InvariantError
from .measures import (
    Belief,
    DiscreteMeasure,
    PopulationLaw,
    ScalarMeasure,
    _trusted,
    quantile_distribution,
)
from .rationals import over_common_denominator, parse_rational, shown
from .simplex import solve_equalities

ZERO = Fraction(0)


@dataclass(frozen=True)
class BinaryBase:
    """A two-atom scalar distribution: weight alpha on a, 1 - alpha on b, a < b."""

    a: Fraction
    b: Fraction
    alpha: Fraction

    def __init__(self, a, b, alpha) -> None:
        a, b, alpha = parse_rational(a), parse_rational(b), parse_rational(alpha)
        if not 0 <= a < b <= 1:
            raise InvariantError(f"need 0 <= a < b <= 1, got a={shown(a, str)}, b={shown(b, str)}")
        if not 0 < alpha < 1:
            raise InvariantError(f"need 0 < alpha < 1, got {shown(alpha, str)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)

    def mean(self) -> Fraction:
        return self.alpha * self.a + (1 - self.alpha) * self.b


@dataclass(frozen=True)
class SpreadTarget:
    """A weighted list of belief measures whose mixture a law must spread."""

    components: tuple[tuple[Fraction, DiscreteMeasure], ...]

    def __init__(self, components: Iterable) -> None:
        components = tuple((parse_rational(w), m) for w, m in components)
        if not components:
            raise InvariantError("spread target needs at least one component")
        if any(w <= 0 for w, _ in components):
            raise InvariantError("spread target weights must be positive")
        if sum(w for w, _ in components) != 1:
            raise InvariantError("spread target weights must sum to 1")
        dims = {m.dimension for _, m in components}
        if len(dims) != 1:
            raise InvariantError("spread target components must share one state space")
        object.__setattr__(self, "components", components)

    @property
    def dimension(self) -> int:
        return self.components[0][1].dimension


@dataclass(frozen=True)
class SpreadDecomposition:
    """Per-component laws q_c with prescribed expected measures, mixing back to the law."""

    components: tuple[tuple[Fraction, PopulationLaw], ...]

    def __init__(self, components: Iterable) -> None:
        components = tuple((parse_rational(w), law) for w, law in components)
        if not components:
            raise InvariantError("decomposition needs at least one component")
        object.__setattr__(self, "components", components)


@dataclass(frozen=True)
class MeanMismatch:
    """The two sides of a failed mean comparison (scalars or beliefs)."""

    left: object
    right: object

    kind = "mean_mismatch"


@dataclass(frozen=True)
class QuantileViolation:
    """The lower-quantile expectation exceeded the low atom of the base."""

    alpha: Fraction
    quantile_mean: Fraction
    low_atom: Fraction

    kind = "quantile_violation"


@dataclass(frozen=True)
class FarkasCertificate:
    """Dual vector over the decomposition LP rows proving infeasibility."""

    y: tuple[Fraction, ...]

    kind = "farkas"


InfeasibilityCertificate = Union[MeanMismatch, QuantileViolation, FarkasCertificate]


@dataclass(frozen=True)
class MpsVerdict:
    """Outcome of the one-dimensional test: a bool plus evidence either way."""

    is_spread: bool
    certificate: InfeasibilityCertificate | None = None
    quantile_mean: Fraction | None = None


def is_mps_binary_base(measure: ScalarMeasure, base: BinaryBase) -> MpsVerdict:
    """Quantile test: spread iff means agree and E[lower alpha-slice] <= base.a."""
    mean = measure.mean()
    base_mean = base.mean()
    if mean != base_mean:
        return MpsVerdict(False, certificate=MeanMismatch(mean, base_mean))
    qmean = quantile_distribution(measure, base.alpha).mean()
    if qmean > base.a:
        return MpsVerdict(
            False,
            certificate=QuantileViolation(base.alpha, qmean, base.a),
            quantile_mean=qmean,
        )
    return MpsVerdict(True, quantile_mean=qmean)


class _Statement(NamedTuple):
    """(law, target) in integers: `table[i][j]` is atom j's count at `beliefs[i]`, the
    law's weights are P_j / D, the target's W_c / DW, component c's masses A_c / B_c."""

    beliefs: list[Belief]
    table: list[list[int]]
    P: list[int]
    D: int
    W: list[int]
    DW: int
    masses: list[tuple[list[int], int]]


def _integers(law: PopulationLaw, target: SpreadTarget) -> _Statement:
    """The one statement of a problem that every step and `verify_certificate` read."""
    beliefs = sorted(
        {belief for empirical, _ in law.atoms for belief, _ in empirical.counts}
        | {belief for _, measure in target.components for belief, _ in measure.atoms}
    )
    index = {belief: i for i, belief in enumerate(beliefs)}
    table = [[0] * len(law.atoms) for _ in beliefs]
    for j, (empirical, _) in enumerate(law.atoms):
        for belief, count in empirical.counts:
            table[index[belief]][j] = count
    masses = []
    for _, measure in target.components:
        mass = dict(measure.atoms)
        masses.append(over_common_denominator([mass.get(x, ZERO) for x in beliefs]))
    P, D = over_common_denominator([p for _, p in law.atoms])
    W, DW = over_common_denominator([w for w, _ in target.components])
    return _Statement(beliefs, table, P, D, W, DW, masses)


def _positions(target: SpreadTarget, stated: _Statement):
    """Each component's mass at the high belief, and the target's weight at each distinct one."""
    positions = [Fraction(A[1], B) for A, B in stated.masses]
    grouped: dict[Fraction, Fraction] = {}
    for (weight, _), pos in zip(target.components, positions):
        grouped[pos] = grouped.get(pos, ZERO) + weight
    return positions, grouped


def _slices(P: list[int], K: list[int], A: int, B: int, D: int):
    """The lower and upper alpha-slices, alpha = A / B, of weights P_j / D in units of 1 / (B * D):
    A * D units each, up to P_j * B per atom j, by K_j ascending (lower) or descending (upper)."""
    order = sorted(range(len(P)), key=K.__getitem__)
    slices = [[0] * len(P), [0] * len(P)]
    for part, atoms in zip(slices, (order, order[::-1])):
        left = A * D
        for j in atoms:
            part[j] = min(P[j] * B, left)
            left -= part[j]
    return slices


def _two_belief_shortcut(law: PopulationLaw, target: SpreadTarget, stated: _Statement):
    """The two-belief shortcut in integers; None passes the target on to the LPs.

    With k_j atom j's count at the high belief and the low position a of
    weight alpha = A / B, `_slices` gives the lower alpha-slice t and the upper
    one u. The law spreads the target iff the means agree and the lower slice's
    mean S_L / (n * D * A), S_L = sum k_j * t_j, is at most a; the low part
    then mixes the slices by lam = N / M, and the high part is the rest.
    """
    if len(stated.beliefs) != 2:
        return None
    positions, grouped = _positions(target, stated)
    if len(grouped) > 2:
        return None
    P, D, K = stated.P, stated.D, stated.table[1]
    nD = law.n * D
    total = sum(map(operator.mul, P, K))  # n * D times the law's mean
    (a, alpha), *rest = sorted(grouped.items())
    if not rest:
        if total * a.denominator != a.numerator * nD:
            return MeanMismatch(Fraction(total, nD), a)
        part_for = {a: law}
    else:
        ((b, _),) = rest
        A, B, a_num, a_den = alpha.numerator, alpha.denominator, a.numerator, a.denominator
        # alpha * a + (1 - alpha) * b over B * a_den * b_den
        base = A * a_num * b.denominator + (B - A) * b.numerator * a_den
        base_den = B * a_den * b.denominator
        if total * base_den != base * nD:
            return MeanMismatch(Fraction(total, nD), Fraction(base, base_den))
        t, u = _slices(P, K, A, B, D)
        s_low = sum(map(operator.mul, K, t))
        if s_low * a_den > a_num * nD * A:
            return QuantileViolation(alpha, Fraction(s_low, nD * A), a)
        # the low slice's mean <= a < the law's mean <= the upper slice's, so M > 0
        M = a_den * (sum(map(operator.mul, K, u)) - s_low)
        N = a_num * nD * A - s_low * a_den
        low = [(M - N) * tj + N * uj for tj, uj in zip(t, u)]
        high = [p * M * B - v for p, v in zip(P, low)]
        # 0 <= N < M and t_j, u_j <= P_j * B, so no weight is negative; the
        # slices are probability measures, and the leftover of the law after
        # alpha times the low part has mass 1 - alpha, so each part sums to 1
        part_for = {
            pos: _restrict(law, ((j, Fraction(v, den)) for j, v in enumerate(nums) if v))
            for pos, nums, den in ((a, low, M * D * A), (b, high, M * D * (B - A)))
        }
    return SpreadDecomposition(
        [(weight, part_for[pos]) for (weight, _), pos in zip(target.components, positions)]
    )


def _canonical_lp(law: PopulationLaw, stated: _Statement):
    """The canonical LP in integers: columns, rhs and row multipliers.

    Column c*J + j is q_c[j] >= 0, for component c and law atom j. Rows: mass
    row j, sum_c w_c * q_c[j] = p_j, then moment row (c, x) per belief x,
    sum_j count_j(x) / n * q_c[j] = m_c(x). Over the statement's denominators,
    row i times mults[i] is integers: D * DW on a mass row, n * B_c on a
    moment row. Returns each column's nonzero (row, integer) pairs, the
    integer rhs and `mults`.
    """
    n, P, D, DW = law.n, stated.P, stated.D, stated.DW
    J, R = len(P), len(stated.beliefs)
    rhs, mults = [p * DW for p in P], [D * DW] * J
    for A, B in stated.masses:
        rhs.extend(n * a for a in A)
        mults.extend([n * B] * R)
    # atom j's nonzero counts, on component 0's moment rows
    counts = [[(J + i, k) for i, k in enumerate(column) if k] for column in zip(*stated.table)]
    columns = [
        [(j, w * D), *((row + c * R, k * B) for row, k in counts[j])]
        for c, (w, (_, B)) in enumerate(zip(stated.W, stated.masses))
        for j in range(J)
    ]
    return columns, rhs, mults


def decomposition_lp(law: PopulationLaw, target: SpreadTarget):
    """The canonical LP as dense `Fraction` rows and rhs: each integer row over its multiplier.

    No library caller: `bench/tracer.py` wraps it by name; CI's traced bench-smoke fails without it.
    """
    columns, rhs, mults = _canonical_lp(law, _integers(law, target))
    rows = [[ZERO] * len(columns) for _ in rhs]
    for col, column in enumerate(columns):
        for i, value in column:
            rows[i][col] = Fraction(value, mults[i])
    return rows, [Fraction(b, mult) for b, mult in zip(rhs, mults)]


def mps_decompose(law: PopulationLaw, target: SpreadTarget, route: str = "auto"):
    """Decompose the law along the target, or certify that no decomposition exists.

    Returns a `SpreadDecomposition` or an `InfeasibilityCertificate`. The
    chain runs in order, each step deciding the target or passing it on: the
    two-belief shortcut, the bounded LP for two components, and the canonical
    LP for whatever is left. `route` is "auto" for the whole chain or "lp",
    which skips the two-belief shortcut to cross-check it.
    """
    if route not in ("auto", "lp"):
        raise InvariantError(f"unknown route {shown(route)}")
    if target.dimension != law.dimension:
        raise InvariantError("law and target live on different state spaces")
    stated = _integers(law, target)
    if route == "auto":
        result = _two_belief_shortcut(law, target, stated)
        if result is not None:
            return result
    if len(target.components) == 2:
        system = _bounded_lp(law, stated)
        if system is not None:
            return _decompose_two_components(law, target, stated, system)
    outcome = solve_equalities(*_canonical_lp(law, stated))
    if not outcome.feasible:
        return FarkasCertificate(outcome.farkas)
    J = len(law.atoms)
    # component c's moment rows sum to its mass, 1, over every belief of the law
    return SpreadDecomposition(
        (weight, _restrict(law, enumerate(outcome.solution[c * J : (c + 1) * J])))
        for c, (weight, _) in enumerate(target.components)
    )


def _decompose_two_components(law: PopulationLaw, target: SpreadTarget, stated, system):
    """The bounded LP step, on `_bounded_lp`'s system: columns, rhs and row multipliers.

    The system is over x_j = w0 * q0[j] with 0 <= x_j <= p_j, the law's weight
    on atom j: one row per belief x of the law, sum_j count_j(x) / n * x_j =
    w0 * m0(x). The bound is atom j's mass row, as q1[j] = (p_j - x_j) / w1;
    component 1's moment rows follow, as the target's mixture is the law's
    expected measure. The tableau solves for t_j = x_j / p_j in [0, 1].

    A Farkas vector y becomes one over the canonical rows: -z_j on mass row
    j, with z_j = max(0, y.A_j) over the column A_j of shares count_j(x) / n,
    w0 * y on component 0's moment rows and 0 on component 1's. Each column's
    sum is w0 * (y.A_j - z_j) or -w1 * z_j, never positive, and the rhs gets
    y.rhs - z.p > 0.
    """
    (w0, _), (w1, _) = target.components
    outcome = solve_equalities(*system, bounded=True)
    if not outcome.feasible:
        y = outcome.farkas
        # y.A_j is sum_x Y(x) * count_j(x) / (L * n), Y over y's common denominator L
        Y, L = over_common_denominator(y)
        z = []
        for counts in zip(*stated.table):
            total = sum(map(operator.mul, Y, counts))
            z.append(Fraction(total, L * law.n) if total > 0 else ZERO)
        return FarkasCertificate((*(-v for v in z), *(w0 * v for v in y), *([ZERO] * len(y))))
    P, D, (W0, W1), DW = stated.P, stated.D, stated.W, stated.DW
    # q0[j] = t_j * p_j / w0 and q1[j] = (1 - t_j) * p_j / w1; both parts sum
    # to 1, as x sums to w0 over the moment rows and p - x to 1 - w0
    low, high = [], []
    for j, (t, p) in enumerate(zip(outcome.solution, P)):
        num, den = t.numerator * p * DW, t.denominator * D
        low.append((j, Fraction(num, den * W0)))
        high.append((j, Fraction(t.denominator * p * DW - num, den * W1)))
    return SpreadDecomposition([(w0, _restrict(law, low)), (w1, _restrict(law, high))])


def _bounded_lp(law: PopulationLaw, stated: _Statement):
    """The bounded LP in `_canonical_lp`'s form, or None if it cannot stand in.

    The rows are `_decompose_two_components`'s system, column j times its
    bound p_j, scaled to integers by the statement's denominators: row x,
    sum_j count_j(x) / n * p_j * t_j = w0 * m0(x), times n * D * k with k =
    DW * B0. So column j holds count_j(x) * P_j * k at each belief x that
    atom j counts, row x's rhs is n * D * W0 * A0(x), and every row's
    multiplier is n * D * k. It stands in for the canonical LP only when the
    target, of two components, mixes to the law's expected measure; otherwise
    the target has a belief outside the law's support, or the two differ at
    one of the law's beliefs.
    """
    n, P, D, DW = law.n, stated.P, stated.D, stated.DW
    (W0, W1), ((A0, B0), (A1, B1)) = stated.W, stated.masses
    rhs = []
    for counts, a0, a1 in zip(stated.table, A0, A1):
        # n * D times the expected measure at x, against n * D times the
        # mixture (W0 * A0(x) / B0 + W1 * A1(x) / B1) / DW
        weighted = sum(map(operator.mul, counts, P))
        if weighted * DW * B0 * B1 != n * D * (W0 * a0 * B1 + W1 * a1 * B0):
            return None
        rhs.append(n * D * W0 * a0)
    k = DW * B0
    columns = [
        [(x, count * p * k) for x, count in enumerate(column) if count]
        for column, p in zip(zip(*stated.table), P)
    ]
    return columns, rhs, [n * D * k] * len(rhs)


def _restrict(law: PopulationLaw, weights) -> PopulationLaw:
    """The law's atoms, in order, reweighted by (atom index, weight) pairs ascending by index.

    Zero weights are dropped; the caller proves that the rest sum to 1.
    """
    atoms = law.atoms
    return _trusted(
        PopulationLaw, n=law.n, atoms=tuple((atoms[j][0], w) for j, w in weights if w)
    )


def verify_decomposition(law: PopulationLaw, target: SpreadTarget, decomposition) -> bool:
    """True iff `decomposition` is a `SpreadDecomposition` whose x > 0 solves `_canonical_lp`.

    x[c*J + j] is component c's weight on law atom j, refused off the law's support, <= 0,
    or in a component that is no law of the same n; the moment rows make each total 1.
    """
    if not isinstance(decomposition, SpreadDecomposition):
        return False
    if [w for w, _ in decomposition.components] != [w for w, _ in target.components]:
        return False
    J, index = len(law.atoms), {empirical: j for j, empirical in enumerate(law.support())}
    x = [ZERO] * (len(target.components) * J)
    for c, (_, q) in enumerate(decomposition.components):
        if not isinstance(q, PopulationLaw) or q.n != law.n:
            return False
        for empirical, w in q.atoms:
            if empirical not in index or w <= 0:
                return False
            x[c * J + index[empirical]] += w
    X, den = over_common_denominator(x)
    columns, rhs, _ = _canonical_lp(law, _integers(law, target))
    lhs = [0] * len(rhs)
    for value, column in zip(X, columns):
        for i, v in column:
            lhs[i] += v * value
    return lhs == [b * den for b in rhs]


def verify_certificate(law: PopulationLaw, target: SpreadTarget, certificate) -> bool:
    """True iff a certificate refutes, checked on `_integers`' statement; malformed ones get False.

    A Farkas vector of exact entries must price `_canonical_lp`'s columns. On two beliefs, a
    `MeanMismatch` must restate unequal means, and a `QuantileViolation` (two positions) the low
    one, its weight alpha and the lower alpha-slice's mean (`_slices`) above it.
    """
    stated = _integers(law, target)
    if isinstance(certificate, FarkasCertificate):
        # only a sequence of exact entries prices the rows
        y = certificate.y if isinstance(certificate.y, (tuple, list)) else ()
        if not all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in y):
            return False
        columns, rhs, mults = _canonical_lp(law, stated)
        # y_i / mults[i] prices integer row i: y.b > 0 and y.A <= 0, over one denominator
        Y, _ = over_common_denominator([Fraction(v, m) for v, m in zip(y, mults)])
        return len(y) == len(rhs) and sum(map(operator.mul, Y, rhs)) > 0 and all(
            sum(Y[i] * v for i, v in column) <= 0 for column in columns
        )
    if len(stated.beliefs) != 2:
        return False
    P, K, nD = stated.P, stated.table[1], law.n * stated.D
    mean, grouped = Fraction(sum(map(operator.mul, P, K)), nD), _positions(target, stated)[1]
    if isinstance(certificate, MeanMismatch):
        base_mean = sum((pos * w for pos, w in grouped.items()), ZERO)
        return certificate == MeanMismatch(mean, base_mean) and mean != base_mean
    if isinstance(certificate, QuantileViolation) and len(grouped) == 2:
        (low, alpha), _ = sorted(grouped.items())
        t, _ = _slices(P, K, alpha.numerator, alpha.denominator, stated.D)
        qmean = Fraction(sum(map(operator.mul, K, t)), nD * alpha.numerator)
        return certificate == QuantileViolation(alpha, qmean, low) and qmean > low
    return False
