"""Core value types for beliefs and distributions over them.

Everything is exact: coordinates, weights and counts are `Fraction`s or ints,
and no operation in this module ever rounds. The types are

* `Belief`: a point of the probability simplex over m states,
* `Prior`: a full-support belief shared by the whole population,
* `DiscreteMeasure`: a finitely supported probability measure over beliefs,
* `ScalarMeasure`: a finitely supported probability measure over rationals
  (one-dimensional projections of belief measures live here),
* `EmpiricalDistribution`: the anonymous multiset of the n agents' beliefs,
* `PopulationLaw`: a finitely supported distribution over empirical
  distributions.

All types are immutable values with structural equality; measures and laws
canonicalize their atoms (merge duplicates, drop zero weights, sort) so that
equal distributions compare equal. `Belief` and `EmpiricalDistribution`, the
dict keys of every enumeration, keep their hash after its first use.

The public constructors check everything, and every value built from outside
input (JSON, CLI arguments, callers of the library) goes through them. Values
the library derives from canonical values may instead go through `_trusted`,
which sets the fields and checks nothing. Use it only where the code at hand
proves the fields canonical: atoms merged, weights (or counts) positive, atoms
sorted ascending, weights summing to exactly 1 (counts to n), one state space
and, for laws, one n. Never pass it outside input. It is used, each time with
a one-line comment saying why the fields are canonical, by `barycenter`,
`law_expected_measure` and the quantile slices here; by `feasibility.base_law`
for its tilts and its target, `product.multinomial_law`, and in `mps` by
`_restrict`; by the structure builders `expand_scheme`, `bayes_posterior` and
`induced_population_law`; and by `structures.simulate`.
`tests/test_trusted.py` rebuilds every such value through the public
constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantError
from .rationals import over_common_denominator, parse_quantile_level, parse_rational, require_int, shown

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, order=True)
class Belief:
    """A probability vector over the m >= 2 states."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable) -> None:
        coords = tuple(parse_rational(c) for c in coords)
        if len(coords) < 2:
            raise InvariantError("a belief needs at least two states")
        if any(c < 0 or c > 1 for c in coords):
            raise InvariantError(f"belief coordinates must lie in [0, 1]: {shown(coords)}")
        if sum(coords) != 1:
            raise InvariantError(f"belief coordinates must sum to 1: {shown(coords)}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def binary(cls, high) -> "Belief":
        """Two-state belief from the probability of state 1."""
        high = parse_rational(high)
        return cls((1 - high, high))

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def coordinate(self, state: int) -> Fraction:
        return self.coords[state]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __hash__(self) -> int:
        # the dataclass hash, kept after first use: each Fraction hash is a modular pow
        try:
            return self._hash
        except AttributeError:
            value = hash((self.coords,))
            object.__setattr__(self, "_hash", value)
            return value


@dataclass(frozen=True)
class Prior:
    """A common prior. Every state must have strictly positive mass."""

    belief: Belief

    def __init__(self, belief) -> None:
        if not isinstance(belief, Belief):
            belief = Belief(belief)
        if any(c == 0 for c in belief.coords):
            raise InvariantError(f"prior must have full support: {shown(belief, str)}")
        object.__setattr__(self, "belief", belief)

    @classmethod
    def binary(cls, high) -> "Prior":
        return cls(Belief.binary(high))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return self.belief.coords

    @property
    def dimension(self) -> int:
        return self.belief.dimension

    def coordinate(self, state: int) -> Fraction:
        return self.belief.coords[state]

    def __str__(self) -> str:
        return str(self.belief)


def _trusted(cls, **fields):
    """An instance of `cls` with the given, already canonical fields and no checks."""
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value


def _merge_atoms(pairs, kind: str):
    merged: dict = {}
    for point, weight in pairs:
        weight = parse_rational(weight)
        if weight < 0:
            raise InvariantError(f"negative weight {shown(weight, str)} in {kind}")
        if weight == 0:
            continue
        merged[point] = merged.get(point, ZERO) + weight
    if not merged:
        raise InvariantError(f"{kind} needs at least one atom with positive weight")
    if sum(merged.values()) != 1:
        raise InvariantError(f"{kind} weights must sum to exactly 1")
    return tuple(sorted(merged.items()))


@dataclass(frozen=True, order=True)
class DiscreteMeasure:
    """A finitely supported probability measure over beliefs."""

    atoms: tuple[tuple[Belief, Fraction], ...]

    def __init__(self, atoms: Iterable) -> None:
        atoms = _merge_atoms(atoms, "measure")
        dims = {belief.dimension for belief, _ in atoms}
        if len(dims) != 1:
            raise InvariantError("all beliefs in a measure must share one state space")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def dirac(cls, belief: Belief) -> "DiscreteMeasure":
        return cls([(belief, ONE)])

    @property
    def dimension(self) -> int:
        return self.atoms[0][0].dimension

    def support(self) -> tuple[Belief, ...]:
        return tuple(belief for belief, _ in self.atoms)

    def mass(self, belief: Belief) -> Fraction:
        for point, weight in self.atoms:
            if point == belief:
                return weight
        return ZERO


@dataclass(frozen=True, order=True)
class ScalarMeasure:
    """A finitely supported probability measure over rationals, atoms ascending."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, atoms: Iterable) -> None:
        pairs = [(parse_rational(v), w) for v, w in atoms]
        object.__setattr__(self, "atoms", _merge_atoms(pairs, "scalar measure"))

    @classmethod
    def dirac(cls, value) -> "ScalarMeasure":
        return cls([(value, ONE)])

    def support(self) -> tuple[Fraction, ...]:
        return tuple(value for value, _ in self.atoms)

    def mean(self) -> Fraction:
        return sum((value * weight for value, weight in self.atoms), ZERO)


@dataclass(frozen=True, order=True)
class EmpiricalDistribution:
    """The multiset of the n agents' beliefs, as (belief, count) pairs."""

    n: int
    counts: tuple[tuple[Belief, int], ...]

    def __init__(self, n: int, counts: Iterable) -> None:
        require_int(n, "population size")
        merged: dict = {}
        for belief, count in counts:
            if require_int(count, "count", low=0) == 0:
                continue
            merged[belief] = merged.get(belief, 0) + count
        if sum(merged.values()) != n:
            raise InvariantError(f"counts must sum to n={n}: {shown(sorted(merged.items()))}")
        dims = {belief.dimension for belief in merged}
        if len(dims) != 1:
            raise InvariantError("all beliefs in an empirical distribution must share one state space")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", tuple(sorted(merged.items())))

    @classmethod
    def constant(cls, n: int, belief: Belief) -> "EmpiricalDistribution":
        return cls(n, [(belief, n)])

    @property
    def dimension(self) -> int:
        return self.counts[0][0].dimension

    def support(self) -> tuple[Belief, ...]:
        return tuple(belief for belief, _ in self.counts)

    def __hash__(self) -> int:
        # the dataclass hash, kept after first use
        try:
            return self._hash
        except AttributeError:
            value = hash((self.n, self.counts))
            object.__setattr__(self, "_hash", value)
            return value


@dataclass(frozen=True, order=True)
class PopulationLaw:
    """A finitely supported distribution over empirical distributions of size n."""

    n: int
    atoms: tuple[tuple[EmpiricalDistribution, Fraction], ...]

    def __init__(self, n: int, atoms: Iterable) -> None:
        require_int(n, "population size")
        atoms = _merge_atoms(atoms, "population law")
        if any(emp.n != n for emp, _ in atoms):
            raise InvariantError("all empirical distributions in a law must have the same n")
        if len({emp.dimension for emp, _ in atoms}) != 1:
            raise InvariantError("all empirical distributions in a law must share one state space")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def dirac(cls, empirical: EmpiricalDistribution) -> "PopulationLaw":
        return cls(empirical.n, [(empirical, ONE)])

    @property
    def dimension(self) -> int:
        return self.atoms[0][0].dimension

    def support(self) -> tuple[EmpiricalDistribution, ...]:
        return tuple(emp for emp, _ in self.atoms)

    def mass(self, empirical: EmpiricalDistribution) -> Fraction:
        for emp, weight in self.atoms:
            if emp == empirical:
                return weight
        return ZERO


def barycenter(measure: DiscreteMeasure) -> Belief:
    """The mean belief of a measure over beliefs, coordinate by coordinate."""
    # summed in integers over the common denominators of the weights and of the
    # coordinates; a convex combination of beliefs is a belief
    atoms = measure.atoms
    m = measure.dimension
    weights, weight_den = over_common_denominator([w for _, w in atoms])
    coords, coord_den = over_common_denominator([c for belief, _ in atoms for c in belief.coords])
    totals = [0] * m
    for k, scaled in enumerate(weights):
        for i, c in enumerate(coords[k * m : (k + 1) * m]):
            totals[i] += scaled * c
    den = weight_den * coord_den
    return _trusted(Belief, coords=tuple(Fraction(t, den) for t in totals))


def empirical_to_measure(empirical: EmpiricalDistribution) -> DiscreteMeasure:
    """View an empirical distribution as the measure assigning count/n to each belief."""
    n = empirical.n
    return DiscreteMeasure([(belief, Fraction(count, n)) for belief, count in empirical.counts])


def law_expected_measure(law: PopulationLaw) -> DiscreteMeasure:
    """The expected belief measure of a population law (a random agent's belief distribution)."""
    # law weight times count, summed in integers over the weights' common
    # denominator times n; positive, and the law's weights summing to 1 with
    # counts summing to n make the total 1
    weights, common = over_common_denominator([w for _, w in law.atoms])
    totals: dict[Belief, int] = {}
    for (empirical, _), scaled in zip(law.atoms, weights):
        for belief, count in empirical.counts:
            totals[belief] = totals.get(belief, 0) + scaled * count
    den = common * law.n
    return _trusted(
        DiscreteMeasure, atoms=tuple(sorted((b, Fraction(t, den)) for b, t in totals.items()))
    )


def mix_laws(components: Sequence[tuple[Fraction, PopulationLaw]]) -> PopulationLaw:
    """The mixture law of weighted population laws sharing one n."""
    if not components:
        raise InvariantError("mixture needs at least one component")
    n = components[0][1].n
    atoms: dict[EmpiricalDistribution, Fraction] = {}
    for weight, law in components:
        weight = parse_rational(weight)
        for empirical, w in law.atoms:
            atoms[empirical] = atoms.get(empirical, ZERO) + weight * w
    return PopulationLaw(n, atoms.items())


def project(measure: DiscreteMeasure, state: int) -> ScalarMeasure:
    """Project a belief measure onto one coordinate; `ScalarMeasure` merges collisions."""
    return ScalarMeasure((belief.coordinate(state), weight) for belief, weight in measure.atoms)


def quantile_distribution(measure: ScalarMeasure, alpha) -> ScalarMeasure:
    """The lower alpha-quantile slice of a one-dimensional measure, renormalized.

    Atoms strictly below the cut keep weight p/alpha, the cut atom keeps the
    leftover mass (alpha minus everything below) over alpha, and a leftover of
    zero is dropped. alpha = 1 returns the measure unchanged.
    """
    alpha = parse_quantile_level(alpha)
    if alpha == 1:
        return measure
    return _trusted(ScalarMeasure, atoms=_lower_slice(measure.atoms, alpha))


def upper_quantile_distribution(measure: ScalarMeasure, alpha) -> ScalarMeasure:
    """The upper alpha-quantile slice, i.e. the lower slice of the reversed order."""
    alpha = parse_quantile_level(alpha)
    if alpha == 1:
        return measure
    return _trusted(ScalarMeasure, atoms=_lower_slice(measure.atoms[::-1], alpha)[::-1])


def _lower_slice(atoms, alpha: Fraction) -> tuple:
    """The slice's atoms in the order given, canonical when that order is ascending.

    Every kept weight is positive (the cut atom's leftover is alpha minus a
    total still below alpha) and they sum to exactly 1.
    """
    out = []
    cum = ZERO
    for value, weight in atoms:
        if cum + weight <= alpha:
            out.append((value, weight / alpha))
            cum += weight
            if cum == alpha:
                break
        else:
            out.append((value, (alpha - cum) / alpha))
            break
    return tuple(out)
