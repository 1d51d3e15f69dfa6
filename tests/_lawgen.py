"""Random known-feasible instances for round-trip tests, plus reference oracles.

Each law is assembled from an explicit per-state decomposition (multinomial,
public-signal, or a mixture of the two around prescribed conditional belief
measures), so feasibility holds by construction and the checker has no excuse.
The oracles are seven for LPs (the integerization, the tableau's starting
rows it gives, canonical and bounded phase 1, the canonical and the bounded
two-component systems as dense `Fraction` rows, and the dense Farkas check),
with `fraction_columns` and `solve_fraction_rows` to put `Fraction` rows
through the solver, a brute-force kernel scan for information structures, the
full pair scan of the polarization grid search over its margin groups, the
Jensen bound that prunes its pairs, per structure and per pair of margin
groups, the two-belief shortcut and both verifiers in `Fraction`s (the
shortcut and `reference_verify_certificate` read a two-belief problem as
scalars through `two_point_reading`), and the plain `Fraction` formulas for
the multinomial law and the binomial quantile mean. `wide_product_problem` is
the family of wide, short LPs. `belief_key` and `empirical_key` read the value
types' order in `Fraction` coordinates, and `beliefs_by_routes` builds each
belief by every public route that reaches it.
"""

import math
import random
from fractions import Fraction
from operator import mul

from hypothesis import assume
from hypothesis import strategies as st

from poplaw import (
    Belief,
    BinaryBase,
    DiscreteMeasure,
    EmpiricalDistribution,
    FarkasCertificate,
    MeanMismatch,
    PopulationLaw,
    Prior,
    QuantileViolation,
    ScalarMeasure,
    SpreadDecomposition,
    SpreadTarget,
    SymmetricProduct,
    barycenter,
    base_law,
    bayes_posterior,
    conditional_tilt,
    is_mps_binary_base,
    law_expected_measure,
    mix_laws,
    multinomial_law,
    quantile_distribution,
    upper_quantile_distribution,
)
from poplaw.mps import _restrict
from poplaw.rationals import format_decimal, over_common_denominator
from poplaw.simplex import FeasibilityResult, solve_equalities
from poplaw.structures import InformationStructure, compositions, grid_kernel, weight_grid


def _binary_belief_pool():
    vals = set()
    for q in (2, 3, 4, 5, 6):
        for p in range(q + 1):
            vals.add(Fraction(p, q))
    return [Belief.binary(v) for v in sorted(vals)]


def _ternary_belief_pool():
    out = []
    d = 4
    for i in range(d + 1):
        for j in range(d + 1 - i):
            out.append(Belief([Fraction(i, d), Fraction(j, d), Fraction(d - i - j, d)]))
    return out


BINARY_POOL = _binary_belief_pool()
TERNARY_POOL = _ternary_belief_pool()


def _positive_composition(rng, total, parts):
    counts = [1] * parts
    for _ in range(total - parts):
        counts[rng.randrange(parts)] += 1
    return counts


def _public_law(measure, n):
    return PopulationLaw(
        n, [(EmpiricalDistribution.constant(n, b), w) for b, w in measure.atoms]
    )


def _component_law(rng, tilt, n):
    kind = rng.choice(("multinomial", "public", "mixture"))
    if kind == "multinomial":
        return multinomial_law(SymmetricProduct(tilt, n))
    if kind == "public":
        return _public_law(tilt, n)
    lam = Fraction(rng.randint(1, 19), 20)
    return mix_laws(
        [
            (lam, multinomial_law(SymmetricProduct(tilt, n))),
            (1 - lam, _public_law(tilt, n)),
        ]
    )


def random_feasible_instance(rng: random.Random, max_n: int = 5, max_atoms: int = 4):
    """A (law, prior) pair that is feasible by construction."""
    while True:
        states = rng.choice((2, 2, 2, 3))
        if states == 2:
            n = rng.randint(1, max_n)
            k = rng.randint(2, max_atoms)
            pool = BINARY_POOL
        else:
            n = rng.randint(1, min(4, max_n))
            k = rng.randint(2, min(3, max_atoms))
            pool = TERNARY_POOL
        beliefs = rng.sample(pool, k)
        denom = rng.randint(k, 20)
        weights = _positive_composition(rng, denom, k)
        expected = DiscreteMeasure(
            (b, Fraction(c, denom)) for b, c in zip(beliefs, weights)
        )
        center = barycenter(expected)
        if any(c == 0 for c in center.coords):
            continue
        prior = Prior(center)
        components = []
        for state in range(states):
            tilt = conditional_tilt(expected, prior, state)
            components.append((prior.coordinate(state), _component_law(rng, tilt, n)))
        return mix_laws(components), prior


def random_two_component_problem(rng: random.Random):
    """A law and a two-component target: feasible, infeasible, or missing the law's mean.

    The law is a known-feasible one, reweighted atom by atom half the time.
    The target is its two-state base law, a random split of its expected
    measure E into w0 * m0 + w1 * m1 (any state count), or such a split with
    m1 replaced by a point mass, which mostly misses E.
    """
    while True:
        law, _ = random_feasible_instance(rng, max_n=4, max_atoms=4)
        if rng.random() < 0.5:
            raw = [w * rng.randint(1, 5) for _, w in law.atoms]
            law = PopulationLaw(law.n, [(e, w / sum(raw)) for (e, _), w in zip(law.atoms, raw)])
        expected = law_expected_measure(law)
        kind = rng.choice(("base", "split", "missed"))
        if kind == "base":
            center = barycenter(expected)
            if law.dimension != 2 or 0 in center.coords:
                continue
            return law, base_law(law, Prior(center))
        share = [Fraction(rng.randint(0, 4), 4) for _ in expected.atoms]
        w0 = sum((lam * e for lam, (_, e) in zip(share, expected.atoms)), Fraction(0))
        if not 0 < w0 < 1:
            continue
        m0 = DiscreteMeasure((b, lam * e / w0) for lam, (b, e) in zip(share, expected.atoms) if lam)
        m1 = DiscreteMeasure(
            (b, (1 - lam) * e / (1 - w0)) for lam, (b, e) in zip(share, expected.atoms) if lam != 1
        )
        if kind == "missed":
            m1 = DiscreteMeasure.dirac(rng.choice(expected.support()))
        return law, SpreadTarget([(w0, m0), (1 - w0, m1)])


def mixture(target):
    """The measure sum over components of weight times measure."""
    return DiscreteMeasure((b, w * v) for w, measure in target.components for b, v in measure.atoms)


@st.composite
def marginals(draw):
    """A measure on one to four pool beliefs, two or three states, with unlike denominators."""
    pool = draw(st.sampled_from((BINARY_POOL, TERNARY_POOL)))
    beliefs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    raw = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 12), max_value=1, max_denominator=12),
            min_size=len(beliefs),
            max_size=len(beliefs),
        )
    )
    total = sum(raw)
    return DiscreteMeasure((b, w / total) for b, w in zip(beliefs, raw))


@st.composite
def scalar_measures(draw):
    """A measure on one to five distinct values in [0, 1] with denominators up to 12."""
    k = draw(st.integers(min_value=1, max_value=5))
    values = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=12),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k))
    total = sum(weights)
    return ScalarMeasure([(v, Fraction(w, total)) for v, w in zip(values, weights)])


@st.composite
def two_belief_spreads(draw):
    """A law on the beliefs (1, 0) and (0, 1) and a two-position target that it spreads.

    The law's values (the share of agents at (0, 1)) and weights come from
    `scalar_measures`, for n the least common denominator of the values. The
    low position, of weight alpha, sits at fraction t < 1 of the way from the
    lower alpha-slice's mean to the law's mean; the high one matches the means.
    """
    measure = draw(scalar_measures())
    tenths = st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10)
    alpha = draw(tenths.filter(bool))
    t = draw(tenths)
    low_mean, mean = quantile_distribution(measure, alpha).mean(), measure.mean()
    assume(low_mean != mean)
    low = low_mean + t * (mean - low_mean)
    high = (mean - alpha * low) / (1 - alpha)
    n = math.lcm(*(v.denominator for v in measure.support()))
    lo, hi = Belief((1, 0)), Belief((0, 1))
    law = PopulationLaw(
        n,
        (
            (EmpiricalDistribution(n, [(lo, n - int(v * n)), (hi, int(v * n))]), w)
            for v, w in measure.atoms
        ),
    )
    target = SpreadTarget(
        (w, DiscreteMeasure([(lo, 1 - p), (hi, p)])) for w, p in ((alpha, low), (1 - alpha, high))
    )
    return law, target


def belief_key(belief):
    """The reference reading of a belief's equality and order: its `Fraction` coordinates."""
    return belief.coords


def empirical_key(empirical):
    """The reference order of empirical distributions: (n, counts), each belief as its coordinates."""
    return empirical.n, tuple((belief.coords, count) for belief, count in empirical.counts)


def _decimal(value):
    """`value` as an exact decimal string, or None when its expansion does not end within 6 places."""
    text = format_decimal(value, 6)
    return text if Fraction(text) == value else None


def _routes(coords, prior):
    """The belief `coords` built by every public route that can reach it."""
    yield Belief(coords)
    yield Belief([f"{3 * c.numerator}/{3 * c.denominator}" for c in coords])
    decimals = [_decimal(c) for c in coords]
    if None not in decimals:
        yield Belief(decimals)
    if len(coords) == 2:
        yield Belief.binary(coords[1])
    # two beliefs that move t between the two largest coordinates, either way, average to coords
    i, j = sorted(range(len(coords)), key=coords.__getitem__)[-2:]
    t = min(coords[i], coords[j]) / 3
    apart = [list(coords), list(coords)]
    for side, sign in zip(apart, (1, -1)):
        side[i] -= sign * t
        side[j] += sign * t
    yield barycenter(DiscreteMeasure([(Belief(a), Fraction(1, 2)) for a in apart]))
    # one agent whose signal "x" has likelihood proportional to coords / prior: posterior coords
    ratios = [c / p for c, p in zip(coords, prior)]
    top = max(ratios)
    kernel = [[(("x",), r / top), (("y",), 1 - r / top)] for r in ratios]
    structure = InformationStructure(1, Prior(prior), [("x", "y")], kernel)
    yield bayes_posterior(structure, 0, "x")


@st.composite
def beliefs_by_routes(draw):
    """Beliefs on two to four states with unlike denominators, each built by every route of
    `_routes`, so that equal values built apart occur in every draw."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        m = draw(st.integers(min_value=2, max_value=4))
        nums = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=m, max_size=m).filter(any))
        prior = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=m, max_size=m))
        coords = [Fraction(c, sum(nums)) for c in nums]
        out.extend(_routes(coords, [Fraction(c, sum(prior)) for c in prior]))
    return draw(st.permutations(out))


def random_binary_posterior_law(rng: random.Random, max_n: int = 6, max_denominator: int = 12):
    """A law over two beliefs with arbitrary grid weights, plus a matching prior.

    Returns (law, prior, a, b, consistent): `consistent` says whether the prior
    was derived from the law's mean (martingale holds) or drawn independently.
    """
    n = rng.randint(1, max_n)
    grid = [Fraction(p, q) for q in (2, 3, 4, 5, 6) for p in range(q + 1)]
    a, b = sorted(rng.sample(sorted(set(grid)), 2))
    lo, hi = Belief.binary(a), Belief.binary(b)
    denom = rng.randint(1, max_denominator)
    weights = [rng.randint(0, denom) for _ in range(n + 1)]
    if sum(weights) == 0:
        weights[rng.randrange(n + 1)] = 1
    total = sum(weights)
    atoms = [
        (EmpiricalDistribution(n, [(hi, k), (lo, n - k)]), Fraction(w, total))
        for k, w in enumerate(weights)
        if w
    ]
    law = PopulationLaw(n, atoms)
    mean = sum(Fraction(k, n) * Fraction(w, total) for k, w in enumerate(weights))
    consistent = rng.random() < 0.5
    if consistent:
        mu = a + mean * (b - a)
        if not 0 < mu < 1:
            consistent = False
    if not consistent:
        mu = Fraction(rng.randint(1, 9), 10)
    return law, Prior.binary(mu), a, b, consistent


def grid_lp_maximum(values, y):
    """max sum(q_i u_i) over distributions q on the grid {i/n} with mean y.

    The LP has two equality rows, so its optimum sits at a basic solution
    supported on one grid point equal to y or on two points bracketing y.
    Enumerating those is exact and shares no code with the hull routine.
    """
    n = len(values) - 1
    best = None
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            lo, hi = Fraction(i, n), Fraction(j, n)
            if lo <= y <= hi:
                lam = (y - lo) / (hi - lo)
                value = (1 - lam) * values[i] + lam * values[j]
                best = value if best is None else max(best, value)
    return best


def reference_integerize(rows, rhs):
    """Each row with its rhs appended, scaled to coprime integers with rhs >= 0.

    Returns the integer rows and, per row, the factor that maps the original
    row to its integer row. Plain `Fraction` arithmetic, one cell at a time.
    """
    int_rows, scales = [], []
    for row, b in zip(rows, rhs):
        ext = [Fraction(v) for v in row] + [Fraction(b)]
        denlcm = 1
        for v in ext:
            denlcm = denlcm * v.denominator // math.gcd(denlcm, v.denominator)
        ints = [int(v * denlcm) for v in ext]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        g = g or 1
        sign = -1 if ints[-1] < 0 else 1
        int_rows.append([sign * v // g for v in ints])
        scales.append(Fraction(sign * denlcm, g))
    return int_rows, scales


def reference_starting_rows(rows, rhs):
    """The tableau's starting constraint rows and scales for `Fraction` rows.

    Row i of `reference_integerize` as a map from column to its nonzero
    entries, the nonzero rhs at column n + m and the artificial's 1 at column
    n + i, for n columns and m rows.
    """
    int_rows, scales = reference_integerize(rows, rhs)
    m, n = len(int_rows), len(int_rows[0]) - 1
    maps = [{j: v for j, v in enumerate(r) if v} for r in int_rows]
    for i, row in enumerate(maps):
        if n in row:
            row[n + m] = row.pop(n)
        row[n + i] = 1
    return maps, scales


def fraction_columns(rows, rhs):
    """`Fraction` rows in `solve_equalities`'s form: integer columns, rhs and row multipliers.

    Row i times the lcm of its denominators and its rhs's is integers.
    """
    ints, mults = zip(*(over_common_denominator([*row, b]) for row, b in zip(rows, rhs)))
    columns = [[(i, v) for i, v in enumerate(column) if v] for column in zip(*ints)]
    return columns[:-1], [row[-1] for row in ints], list(mults)


def solve_fraction_rows(rows, rhs, upper=None):
    """`solve_equalities` on `Fraction` rows, with optional bounds 0 <= x <= upper.

    Column j is scaled by upper[j], so its variable lies in [0, 1]; the rows
    go in as `fraction_columns` and the solution is scaled back. The Farkas
    vector is the bounded system's, over the rows as given.
    """
    if upper is not None:
        rows = [[Fraction(v) * u for v, u in zip(row, upper)] for row in rows]
    out = solve_equalities(*fraction_columns(rows, rhs), bounded=upper is not None)
    if upper is None or not out.feasible:
        return out
    return FeasibilityResult(solution=tuple(t * u for t, u in zip(out.solution, upper)), farkas=None)


def reference_phase1(rows, rhs):
    """Textbook phase 1 on a dense `Fraction` tableau, as a `FeasibilityResult`.

    One artificial per integerized row, cost 1 on each. Bland's rule: the
    entering column is the smallest structural index with a negative reduced
    cost, and the leaving row has the smallest ratio rhs / entry over positive
    entries, ties going to the smallest basic variable index. At an infeasible
    optimum the Farkas vector is the phase-1 dual, mapped back through the
    row scales.
    """
    if not rows:
        return FeasibilityResult(solution=(), farkas=None)
    int_rows, scales = reference_integerize(rows, rhs)
    m, n = len(int_rows), len(int_rows[0]) - 1
    tableau = [
        [Fraction(v) for v in r[:-1]]
        + [Fraction(int(k == i)) for k in range(m)]
        + [Fraction(r[-1])]
        for i, r in enumerate(int_rows)
    ]
    cost = [-sum(col) for col in zip(*tableau)]
    for i in range(m):
        cost[n + i] = Fraction(0)
    basis = list(range(n, n + m))
    while cost[-1] != 0:
        c = next((j for j in range(n) if cost[j] < 0), None)
        if c is None:
            dual = [1 - cost[n + i] for i in range(m)]
            return FeasibilityResult(
                solution=None, farkas=tuple(s * y for s, y in zip(scales, dual))
            )
        r = min(
            (i for i in range(m) if tableau[i][c] > 0),
            key=lambda i: (tableau[i][-1] / tableau[i][c], basis[i]),
        )
        pivot = [v / tableau[r][c] for v in tableau[r]]
        tableau[r] = pivot
        for row in tableau[:r] + tableau[r + 1 :] + [cost]:
            f = row[c]
            row[:] = [a - f * b for a, b in zip(row, pivot)]
        basis[r] = c
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return FeasibilityResult(solution=tuple(x), farkas=None)


def reference_bounded_phase1(rows, rhs, upper):
    """Textbook bounded-variable phase 1 on a dense `Fraction` tableau.

    Column j is scaled by its bound upper[j], so its variable lies in [0, 1].
    Each nonbasic variable sits at its lower or its upper bound, and the
    basic values are kept apart from the tableau. Bland's rule: the entering
    column is the smallest structural index whose reduced cost lets it move
    off its bound; the step is the smallest of the basic variables' distances
    to a bound and the entering variable's own range 1, ties going to the
    smallest variable index. A step of the entering variable's own range
    flips it to its other bound.
    """
    if not rows:
        return FeasibilityResult(solution=(), farkas=None)
    scaled = [[Fraction(v) * u for v, u in zip(row, upper)] for row in rows]
    int_rows, scales = reference_integerize(scaled, rhs)
    m, n = len(int_rows), len(int_rows[0]) - 1
    tableau = [
        [Fraction(v) for v in r[:-1]] + [Fraction(int(k == i)) for k in range(m)]
        for i, r in enumerate(int_rows)
    ]
    value = [Fraction(r[-1]) for r in int_rows]
    cost = [-sum(col) for col in zip(*tableau)]
    for i in range(m):
        cost[n + i] = Fraction(0)
    at_upper = [False] * n
    basis = list(range(n, n + m))
    while any(value[i] for i in range(m) if basis[i] >= n):
        c = next(
            (
                j
                for j in range(n)
                if j not in basis and (cost[j] > 0 if at_upper[j] else cost[j] < 0)
            ),
            None,
        )
        if c is None:
            dual = [1 - cost[n + i] for i in range(m)]
            return FeasibilityResult(
                solution=None, farkas=tuple(s * y for s, y in zip(scales, dual))
            )
        step = -1 if at_upper[c] else 1
        # (length, variable index, row or None for the flip, leaves at its upper bound)
        moves = [(Fraction(1), c, None, None)]
        for i in range(m):
            rate = -step * tableau[i][c]  # how fast basic variable i moves
            if rate < 0:
                moves.append((value[i] / -rate, basis[i], i, False))
            elif rate > 0 and basis[i] < n:  # artificials have no upper bound
                moves.append(((1 - value[i]) / rate, basis[i], i, True))
        length, _, r, leaves_upper = min(moves, key=lambda move: move[:2])
        for i in range(m):
            value[i] -= step * tableau[i][c] * length
        if r is None:
            at_upper[c] = not at_upper[c]
            continue
        entering_value = (1 if at_upper[c] else 0) + step * length
        pivot = [v / tableau[r][c] for v in tableau[r]]
        tableau[r] = pivot
        for row in tableau[:r] + tableau[r + 1 :] + [cost]:
            f = row[c]
            row[:] = [a - f * b for a, b in zip(row, pivot)]
        if basis[r] < n:
            at_upper[basis[r]] = leaves_upper
        basis[r] = c
        value[r] = entering_value
        at_upper[c] = False
    t = [Fraction(int(at_upper[j])) for j in range(n)]
    for i, var in enumerate(basis):
        if var < n:
            t[var] = value[i]
    x = tuple(v * u for v, u in zip(t, upper))
    return FeasibilityResult(solution=x, farkas=None)


def reference_decomposition_lp(law, target):
    """The canonical LP system (rows, rhs) as dense `Fraction` rows.

    Variables: q[c][j] >= 0 for component c and law atom j (column c*J + j).
    Rows, in order: one mass-balance row per law atom j, then one moment row
    per (component c, belief x) over the sorted union of all supports, with
    count_j(x) / n in column c*J + j. The reference for `decomposition_lp`,
    and with `farkas_refutes` for `verify_certificate`.
    """
    comps = target.components
    beliefs = sorted(
        {belief for empirical, _ in law.atoms for belief in empirical.support()}
        | {belief for _, measure in comps for belief in measure.support()}
    )
    n = law.n
    J = len(law.atoms)
    ncols = len(comps) * J
    rows = []
    for j in range(J):
        row = [Fraction(0)] * ncols
        for c, (c_weight, _) in enumerate(comps):
            row[c * J + j] = c_weight
        rows.append(row)
    for c in range(len(comps)):
        for belief in beliefs:
            row = [Fraction(0)] * ncols
            row[c * J : (c + 1) * J] = [
                Fraction(dict(empirical.counts).get(belief, 0), n) for empirical, _ in law.atoms
            ]
            rows.append(row)
    rhs = [p for _, p in law.atoms]
    rhs.extend(measure.mass(belief) for _, measure in comps for belief in beliefs)
    return rows, rhs


def farkas_refutes(rows, rhs, y):
    """Check y.rows <= 0 componentwise and y.rhs > 0, exactly, reading every cell.

    Zero cells add nothing and are skipped.
    """
    if len(y) != len(rows) or not rows:
        return False
    for column in zip(*rows):
        if sum((yi * v for yi, v in zip(y, column) if v), Fraction(0)) > 0:
            return False
    return sum((yi * b for yi, b in zip(y, rhs)), Fraction(0)) > 0


def bounded_decomposition_lp(law, target):
    """The two-component LP system (rows, rhs, upper) over x_j = w0 * q0[j].

    One row per belief x of the law, sum_j count_j(x) / n * x_j = w0 *
    m0(x), with 0 <= x_j <= p_j, the law's weight on atom j. It decides the
    target when the law's expected measure equals the target's mixture.
    Plain `Fraction` rows, the reference for the integer rows that
    `mps_decompose` builds straight from the counts.
    """
    (w0, m0), _ = target.components
    beliefs = sorted({belief for empirical, _ in law.atoms for belief in empirical.support()})
    rows = [
        [Fraction(dict(empirical.counts).get(belief, 0), law.n) for empirical, _ in law.atoms]
        for belief in beliefs
    ]
    rhs = [w0 * m0.mass(belief) for belief in beliefs]
    return rows, rhs, [p for _, p in law.atoms]


def bounded_as_canonical(rows, rhs, upper):
    """The canonical system of `rows x = rhs, 0 <= x <= upper`, with one slack per column.

    Rows: the original rows padded with zero slack columns, then x_j + s_j =
    upper_j for each column j.
    """
    n = len(rows[0])
    unit = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    out = [list(row) + [Fraction(0)] * n for row in rows] + [e + e for e in unit]
    return out, list(rhs) + list(upper)


def bounded_farkas_as_canonical(rows, y):
    """A bounded-system Farkas vector y extended over `bounded_as_canonical`'s rows.

    Bound row j gets -z_j with z_j = max(0, y.A_j).
    """
    z = [
        max(Fraction(0), sum((yi * v for yi, v in zip(y, column)), Fraction(0)))
        for column in zip(*rows)
    ]
    return list(y) + [-v for v in z]


def scan_marginal(structure, agent, label, state):
    """P(agent sees label | state): a scan of that state's kernel, label by `==`."""
    return sum(
        (prob for profile, prob in structure.kernel[state] if profile[agent] == label),
        Fraction(0),
    )


def scan_posterior(structure, agent, label):
    """Bayes' rule on scanned marginals; None for a zero-probability label."""
    weighted = [
        mu * scan_marginal(structure, agent, label, state)
        for state, mu in enumerate(structure.prior.coords)
    ]
    total = sum(weighted)
    if total == 0:
        return None
    return Belief(w / total for w in weighted)


def scan_induced_law(structure):
    """The induced law by definition: every profile of every state, one at a time.

    Each profile's posteriors are scanned afresh. Equal beliefs and equal
    empirical distributions are merged by sorting and `==`, never by hash.
    """
    atoms = []
    for state, mu in enumerate(structure.prior.coords):
        for profile, prob in structure.kernel[state]:
            posteriors = (
                (scan_posterior(structure, agent, label), 1) for agent, label in enumerate(profile)
            )
            empirical = EmpiricalDistribution(structure.n, _merge_equal(posteriors))
            atoms.append((empirical, mu * prob))
    return PopulationLaw(structure.n, _merge_equal(atoms))


def _merge_equal(pairs):
    """Sort (item, amount) pairs by item and add up the amounts of equal items."""
    out = []
    for item, amount in sorted(pairs, key=lambda pair: pair[0]):
        if out and out[-1][0] == item:
            out[-1] = (item, out[-1][1] + amount)
        else:
            out.append((item, amount))
    return out


def reference_polarization_bound(structure):
    """Jensen's upper bound on a two-state structure's expected polarization, in `Fraction`s.

    (1/n) * sum over (agent, signal) slots of P(slot) * posterior^2, minus
    sum over states s of mu_s * E[average posterior | s]^2: given the state,
    the mean of the squared average posterior is at least its mean squared.
    Slots and posteriors come from scans of the kernel.
    """
    n, mus = structure.n, structure.prior.coords
    squares, means = Fraction(0), [Fraction(0)] * len(mus)
    for agent, labels in enumerate(structure.signal_sets):
        for label in labels:
            posterior = scan_posterior(structure, agent, label)
            if posterior is None:
                continue
            post = posterior.coordinate(1)
            for state, mu in enumerate(mus):
                prob = scan_marginal(structure, agent, label, state)
                squares += mu * prob * post * post / n
                means[state] += prob * post / n
    return squares - sum((mu * m * m for mu, m in zip(mus, means)), Fraction(0))


def margin_groups(n, signals_per_agent, denominator):
    """The grid's weight vectors grouped by margin: (signal set, profiles, vectors, columns, groups).

    A margin is a vector's total weight on each (agent, signal) slot; the
    groups map each margin to its vectors' indices, in order of first member.
    """
    signal_set, profiles, vectors = weight_grid(n, signals_per_agent, denominator)
    columns = [
        [agent * signals_per_agent + profile[agent] for profile in profiles]
        for agent in range(n)
    ]
    groups = {}
    for i, vec in enumerate(vectors):
        margin = [0] * (n * signals_per_agent)
        for column in columns:
            for slot, w in zip(column, vec):
                margin[slot] += w
        groups.setdefault(tuple(margin), []).append(i)
    return signal_set, profiles, vectors, columns, groups


def reference_pair_bound(margin0, margin1, weights, n, denominator):
    """Jensen's bound on one pair of margin groups, per pair, as a `Fraction` of num / L^2.

    With A = w0*m0, B = w1*m1, T = A + B on each slot, L the lcm of the
    pair's nonzero T and X = B*(L/T): (denominator*n*L*sum(B*X)
    - w0*sum(m0*X)^2 - w1*sum(m1*X)^2) / (denominator*L^2).
    """
    w0, w1 = weights
    a_slots, b_slots = [w0 * m for m in margin0], [w1 * m for m in margin1]
    totals = [a + b or 1 for a, b in zip(a_slots, b_slots)]
    lcm = math.lcm(*totals)
    xs = [b * (lcm // t) for b, t in zip(b_slots, totals)]
    s0, s1 = sum(map(mul, margin0, xs)), sum(map(mul, margin1, xs))
    num = denominator * n * lcm * sum(map(mul, b_slots, xs)) - w0 * s0 * s0 - w1 * s1 * s1
    return Fraction(num, denominator * lcm * lcm)


def reference_search_max_polarization(n, prior, signals_per_agent=2, denominator=4):
    """The grid search as a full scan of every pair of margin groups.

    The same integer score as `search_max_polarization`, over all state-0
    groups rather than one per relabeling orbit; ties go to the earlier
    (i0, i1), so the result is the first maximizer in enumeration order.
    """
    signal_set, profiles, vectors, columns, groups = margin_groups(
        n, signals_per_agent, denominator
    )
    (w0, w1), q = over_common_denominator(prior.coords)
    sides = [
        [
            ([w * m for m in margin], [([w * x for x in vectors[i]], i) for i in members])
            for margin, members in groups.items()
        ]
        for w in (w0, w1)
    ]
    best_num, best_scale, best_pair = -1, 1, None
    for a_slots, members0 in sides[0]:
        for b_slots, members1 in sides[1]:
            totals = [a + b or 1 for a, b in zip(a_slots, b_slots)]
            lcm = math.lcm(*totals)
            xs = [b * (lcm // t) for b, t in zip(b_slots, totals)]
            sums = list(map(sum, zip(*[map(xs.__getitem__, c) for c in columns])))
            squares = list(map(mul, sums, sums))
            cost0, i0 = min((sum(map(mul, mass, squares)), i) for mass, i in members0)
            cost1, i1 = min((sum(map(mul, mass, squares)), i) for mass, i in members1)
            num = n * lcm * sum(map(mul, b_slots, xs)) - cost0 - cost1
            scale = lcm * lcm
            lhs, rhs = num * best_scale, best_num * scale
            if lhs > rhs or lhs == rhs and (i0, i1) < best_pair:
                best_num, best_scale, best_pair = num, scale, (i0, i1)
    best = Fraction(best_num, q * denominator * n * n * best_scale)
    kernel = [grid_kernel(signal_set, profiles, vectors[i], denominator) for i in best_pair]
    return best, InformationStructure(n, prior, [signal_set] * n, kernel)


def reference_multinomial_law(product):
    """The multinomial law atom by atom: n! times prod(a_k ** c_k / c_k!) in `Fraction`s.

    Every value goes through the public constructors, which merge and sort.
    """
    atoms = product.marginal.atoms
    n = product.n
    law_atoms = []
    for counts in compositions(n, len(atoms)):
        weight = Fraction(math.factorial(n))
        for c, (_, prob) in zip(counts, atoms):
            weight = weight / math.factorial(c) * prob**c
        empirical = EmpiricalDistribution(
            n, [(belief, c) for c, (belief, _) in zip(counts, atoms) if c]
        )
        law_atoms.append((empirical, weight))
    return PopulationLaw(n, law_atoms)


def reference_binomial_quantile_expectation(n, p, alpha):
    """Binomial(n, p) on the 1/n grid as a `ScalarMeasure`, then its lower alpha-slice's mean."""
    binomial = ScalarMeasure(
        (Fraction(i, n), Fraction(math.comb(n, i)) * p**i * (1 - p) ** (n - i))
        for i in range(n + 1)
    )
    return ScalarMeasure(quantile_distribution(binomial, alpha).atoms).mean()


def two_point_reading(law, target):
    """A law and target on exactly two beliefs, read as scalars: the share at the high belief.

    None on any other support; otherwise the two beliefs, ascending, the scalar
    law (each atom's share of agents at the high belief) and the target's weight
    at each distinct position (a component's mass at the high belief), in
    `Fraction`s.
    """
    beliefs = sorted(
        {belief for empirical, _ in law.atoms for belief in empirical.support()}
        | {belief for _, measure in target.components for belief in measure.support()}
    )
    if len(beliefs) != 2:
        return None
    high = beliefs[1]
    scalar_law = ScalarMeasure(
        (Fraction(dict(empirical.counts).get(high, 0), law.n), w) for empirical, w in law.atoms
    )
    grouped = {}
    for weight, measure in target.components:
        pos = measure.mass(high)
        grouped[pos] = grouped.get(pos, Fraction(0)) + weight
    return beliefs, scalar_law, grouped


def reference_two_point(law, target):
    """The two-belief shortcut in `Fraction`s, the reference for route "auto"'s first step.

    None where the shortcut passes the target on: a support other than two
    beliefs, or more than two distinct positions (mass at the high belief).
    Otherwise a `MeanMismatch`, a `QuantileViolation` from `is_mps_binary_base`,
    or the decomposition that `_reference_scalar_split` gives.
    """
    reading = two_point_reading(law, target)
    if reading is None:
        return None
    (_, high), scalar_law, grouped = reading
    index_of = {
        Fraction(dict(empirical.counts).get(high, 0), law.n): j
        for j, (empirical, _) in enumerate(law.atoms)
    }
    positions = [measure.mass(high) for _, measure in target.components]
    if len(grouped) == 1:
        (pos,) = grouped
        if scalar_law.mean() != pos:
            return MeanMismatch(scalar_law.mean(), pos)
        part_for = {pos: law}
    elif len(grouped) == 2:
        (low_pos, low_w), (high_pos, _) = sorted(grouped.items())
        base = BinaryBase(low_pos, high_pos, low_w)
        verdict = is_mps_binary_base(scalar_law, base)
        if not verdict.is_spread:
            return verdict.certificate
        part_for = {
            pos: _restrict(law, sorted((index_of[v], w) for v, w in part.atoms))
            for pos, part in zip((low_pos, high_pos), _reference_scalar_split(scalar_law, base))
        }
    else:
        return None
    return SpreadDecomposition(
        [(weight, part_for[pos]) for (weight, _), pos in zip(target.components, positions)]
    )


def reference_verify_certificate(law, target, certificate):
    """`verify_certificate` in `Fraction` value types, the reference for its integer checks.

    A Farkas vector of exact entries must refute `reference_decomposition_lp`'s
    dense rows (`farkas_refutes`). The shortcut's certificates need a law and
    target on two beliefs, read as scalars: a mean mismatch must restate the
    scalar law's mean and the target's, which differ; a quantile violation, for
    two positions, the low one's weight alpha, the mean of the scalar law's
    lower alpha-slice (`quantile_distribution`) and the low position, which
    that mean exceeds. Anything else refutes nothing.
    """
    if isinstance(certificate, FarkasCertificate):
        y = certificate.y
        exact = isinstance(y, (tuple, list)) and all(
            isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in y
        )
        return exact and farkas_refutes(*reference_decomposition_lp(law, target), y)
    reading = two_point_reading(law, target)
    if reading is None:
        return False
    _, scalar_law, grouped = reading
    if isinstance(certificate, MeanMismatch):
        mean, base_mean = scalar_law.mean(), sum(pos * w for pos, w in grouped.items())
        return certificate == MeanMismatch(mean, base_mean) and mean != base_mean
    if isinstance(certificate, QuantileViolation) and len(grouped) == 2:
        (low, alpha), _ = sorted(grouped.items())
        qmean = quantile_distribution(scalar_law, alpha).mean()
        return certificate == QuantileViolation(alpha, qmean, low) and qmean > low
    return False


def reference_verify_decomposition(law, target, decomposition):
    """`verify_decomposition` in `Fraction` value types, the reference for its integer check.

    Each component must be a law that carries the target's weight, the law's n
    and positive weights on the law's support, and have the target's measure as
    its expected measure; the components must mix back to the law.
    """
    comps = decomposition.components
    if len(comps) != len(target.components):
        return False
    support = set(law.support())
    for (weight, q), (t_weight, measure) in zip(comps, target.components):
        if weight != t_weight or not isinstance(q, PopulationLaw) or q.n != law.n:
            return False
        if not set(q.support()) <= support or any(w <= 0 for _, w in q.atoms):
            return False
        if law_expected_measure(q) != measure:
            return False
    return mix_laws(comps) == law


def _reference_scalar_split(measure, base):
    """Split a spread of a binary base into parts with means base.a and base.b.

    Mixes the lower and upper alpha-quantile slices so the low part hits mean
    base.a exactly; the high part is the leftover, which then has mean base.b.
    """
    alpha = base.alpha
    lower = quantile_distribution(measure, alpha)
    upper = upper_quantile_distribution(measure, alpha)
    e_low = lower.mean()
    lam = (base.a - e_low) / (upper.mean() - e_low)
    low_atoms = {}
    for value, weight in lower.atoms:
        low_atoms[value] = low_atoms.get(value, Fraction(0)) + (1 - lam) * weight
    for value, weight in upper.atoms:
        low_atoms[value] = low_atoms.get(value, Fraction(0)) + lam * weight
    high_atoms = []
    for value, weight in measure.atoms:
        leftover = weight - alpha * low_atoms.get(value, Fraction(0))
        if leftover:
            high_atoms.append((value, leftover / (1 - alpha)))
    low = tuple(sorted((v, w) for v, w in low_atoms.items() if w))
    return ScalarMeasure(low), ScalarMeasure(high_atoms)


WIDE_PRIOR = Prior.binary(Fraction(1, 3))


def wide_product_problem(n):
    """Three equally weighted beliefs 1/6, 1/3 and 1/2 for n agents, and the base law at prior 1/3.

    The target is feasible up to n = 7 and refuted from n = 8 on.
    """
    third = Fraction(1, 3)
    marginal = DiscreteMeasure([(Belief.binary(Fraction(k, 6)), third) for k in (1, 2, 3)])
    law = multinomial_law(SymmetricProduct(marginal, n))
    return law, base_law(law, WIDE_PRIOR)
