"""Finite information structures: Bayes posteriors, induced laws, synthesis.

An `InformationStructure` is the explicit object: per-agent signal sets plus,
for each state, a joint distribution over signal profiles. Enumerating it
exactly (`induced_population_law`) is the brute-force oracle everything else
is checked against. Each structure builds, on first use, one integer table
(`_table`): the numerators of each state's kernel and of each (agent, label)'s
per-state marginals over one denominator, the lcm of the states' common
denominators, and the prior's over theirs. `signal_marginal`, `bayes_posterior`
and `induced_population_law` read it, look labels up by hash, and sum in integers.

The three builders of the oracle (`expand_scheme`, `bayes_posterior` and
`induced_population_law`) and `simulate` set their values' fields through
`measures._trusted`, without the public constructors' checks: their own
construction proves the fields canonical, as a comment at each use says.
Outside input, such as a structure decoded from JSON, still goes through the
public `InformationStructure` constructor, which sorts each state's profiles
by the same `str` key as `expand_scheme`.

A `SymmetricScheme` is the compact anonymous form produced by synthesis: per
state, a population law over empirical distributions whose beliefs double as
signal labels. Expanding a scheme averages over all assignments of each
multiset to the agents (uniformly random permutation), collapsed by multiset
type so the kernel stays small. `simulate` is the Monte-Carlo fallback when
expansion would explode.
"""

from __future__ import annotations

import os
import re
import struct
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, product
from math import isqrt, lcm
from typing import Hashable, Iterable, NamedTuple

from .errors import InvariantError, ResourceLimitError
from .feasibility import base_law
from .measures import (
    Belief,
    EmpiricalDistribution,
    PopulationLaw,
    Prior,
    _trusted,
    mix_laws,
)
from .mps import SpreadDecomposition, verify_decomposition
from .rationals import over_common_denominator, parse_rational, require_int, shown
from .rng import LANE_BYTES, TWO64, substream_draws

ZERO = Fraction(0)

MAX_PROFILES_ENV = "POPLAW_MAX_PROFILES"
DEFAULT_MAX_PROFILES = 10**6

SignalLabel = Hashable


def max_profiles_bound() -> int:
    raw = os.environ.get(MAX_PROFILES_ENV)
    if raw is None:
        return DEFAULT_MAX_PROFILES
    try:
        bound = int(raw)
    except ValueError as exc:
        raise InvariantError(f"{MAX_PROFILES_ENV} must be an integer: {shown(raw)}") from exc
    return require_int(bound, MAX_PROFILES_ENV)


def require_within_bound(count: int, what: str, unit: str, remedy: str = "") -> None:
    """The size policy: refuse a count past the bound (a capped count stands for all above it)."""
    bound = max_profiles_bound()
    if count > bound:
        raise ResourceLimitError(f"{what} needs more than {bound} {unit}; raise the bound{remedy}")


def capped_multinomial(counts: Iterable[int], cap: int) -> int:
    """(sum c)! / prod(c!) exactly when that is at most `cap`, else some value above `cap`.

    Built one binomial factor C(t, k) at a time; every partial product is an
    integer no larger than the result, so the count stops once one passes `cap`.
    """
    value, total = 1, 0
    for count in counts:
        total += count
        k = min(count, total - count)
        for i in range(1, k + 1):
            value = value * (total - k + i) // i
            if value > cap:
                return value
    return value


@dataclass(frozen=True)
class InformationStructure:
    """n agents, a prior over m states, per-agent signal sets, per-state kernels.

    `kernel[state]` lists (profile, probability) pairs over signal profiles
    (one label per agent); each state's probabilities sum to 1.
    """

    n: int
    prior: Prior
    signal_sets: tuple[tuple[SignalLabel, ...], ...]
    kernel: tuple[tuple[tuple[tuple[SignalLabel, ...], Fraction], ...], ...]

    def __init__(self, n: int, prior: Prior, signal_sets: Iterable, kernel: Iterable) -> None:
        require_int(n, "agent count")
        signal_sets = tuple(tuple(s) for s in signal_sets)
        if len(signal_sets) != n:
            raise InvariantError("need one signal set per agent")
        allowed = [frozenset(s) for s in signal_sets]
        if any(len(a) != len(s) or not s for a, s in zip(allowed, signal_sets)):
            raise InvariantError("signal sets must be non-empty without duplicates")
        by_label_str = _by_label_str(signal_sets)
        cleaned = []
        kernel = tuple(kernel)
        if len(kernel) != prior.dimension:
            raise InvariantError("need one kernel per state")
        for state_profiles in kernel:
            merged: dict[tuple, Fraction] = {}
            for profile, prob in state_profiles:
                profile = tuple(profile)
                if len(profile) != n:
                    raise InvariantError(f"profile length {len(profile)} != n={n}")
                for agent, label in enumerate(profile):
                    if label not in allowed[agent]:
                        raise InvariantError(
                            f"label {shown(label)} not in agent {agent}'s signal set"
                        )
                prob = parse_rational(prob)
                if prob < 0:
                    raise InvariantError(f"negative kernel probability {shown(prob, str)}")
                if prob == 0:
                    continue
                merged[profile] = merged.get(profile, ZERO) + prob
            if sum(merged.values()) != 1:
                raise InvariantError("each state's kernel must sum to exactly 1")
            cleaned.append(tuple(sorted(merged.items(), key=by_label_str)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "signal_sets", signal_sets)
        object.__setattr__(self, "kernel", tuple(cleaned))

    @property
    def m(self) -> int:
        return self.prior.dimension

    def signal_marginal(self, agent: int, label: SignalLabel, state: int) -> Fraction:
        """Probability that the agent sees the label, conditional on the state."""
        table = self._table
        row = table.marginals.get((agent, label))
        return ZERO if row is None else Fraction(row[state], table.den)

    @cached_property
    def _table(self) -> _KernelTable:
        """Each state's probabilities over their common denominator, scaled to `den`."""
        marginals: dict[tuple[int, SignalLabel], list[int]] = {}
        states = [over_common_denominator([prob for _, prob in ps]) for ps in self.kernel]
        den = lcm(*[common for _, common in states])
        kernel = [[weight * (den // common) for weight in weights] for weights, common in states]
        for state, (state_profiles, weights) in enumerate(zip(self.kernel, kernel)):
            for (profile, _), weight in zip(state_profiles, weights):
                for key in enumerate(profile):
                    row = marginals.get(key)
                    if row is None:
                        row = marginals[key] = [0] * self.m
                    row[state] += weight
        return _KernelTable(marginals, kernel, den, *over_common_denominator(self.prior.coords))


class _KernelTable(NamedTuple):
    """A structure's kernel and marginals as numerators over `den`, its prior over `prior_den`."""

    marginals: dict[tuple[int, SignalLabel], list[int]]
    kernel: list[list[int]]
    den: int
    prior: list[int]
    prior_den: int


def _by_label_str(signal_sets):
    """Sort key of a (profile, probability) pair: its labels' str, built once per distinct label."""
    text = {label: str(label) for s in signal_sets for label in s}
    return lambda pair: tuple(map(text.__getitem__, pair[0]))


def bayes_posterior(structure: InformationStructure, agent: int, label: SignalLabel) -> Belief:
    """The posterior belief of an agent after seeing one signal label.

    The prior's numerators times the label's marginal numerators, over their
    total. Only labels of positive-probability profiles have a table row.
    """
    table = structure._table
    row = table.marginals.get((agent, label))
    if row is None:
        raise InvariantError(f"signal {shown(label)} has zero probability for agent {agent}")
    weighted = [mu * w for mu, w in zip(table.prior, row)]
    total = sum(weighted)
    # nonnegative integers over their positive sum: coordinates in [0, 1] summing to 1
    return _trusted(Belief, coords=tuple([Fraction(w, total) for w in weighted]))


def induced_population_law(structure: InformationStructure) -> PopulationLaw:
    """Exact enumeration of the law over empirical posterior distributions.

    Each profile adds mu_s * prob to its multiset of posteriors, as integers
    over the prior's common denominator times the marginal table's.
    """
    # number the distinct posteriors in ascending order; every (agent, label)
    # in the marginal table occurs in a positive-probability profile
    table = structure._table
    posterior = {key: bayes_posterior(structure, *key) for key in table.marginals}
    beliefs = sorted(set(posterior.values()))
    number = {belief: k for k, belief in enumerate(beliefs)}
    slot = {key: number[belief] for key, belief in posterior.items()}
    masses: dict[tuple[int, ...], int] = {}
    for mu, state_profiles, weights in zip(table.prior, structure.kernel, table.kernel):
        for (profile, _), weight in zip(state_profiles, weights):
            multiset = tuple(sorted(map(slot.__getitem__, enumerate(profile))))
            masses[multiset] = masses.get(multiset, 0) + mu * weight
    # (slot, count) pairs in slot order compare as the (belief, count) pairs would
    counted = sorted((tuple(Counter(multiset).items()), mass) for multiset, mass in masses.items())
    n = structure.n
    total = table.prior_den * table.den
    atoms = []
    for counts, mass in counted:
        # distinct posteriors in ascending order, positive counts summing to n
        empirical = _trusted(
            EmpiricalDistribution, n=n, counts=tuple([(beliefs[k], c) for k, c in counts])
        )
        atoms.append((empirical, Fraction(mass, total)))
    # distinct ascending atoms, positive masses summing to sum_s mu_s = 1
    return _trusted(PopulationLaw, n=n, atoms=tuple(atoms))


@dataclass(frozen=True)
class SymmetricScheme:
    """Per-state laws over empirical distributions; signals are the beliefs themselves."""

    prior: Prior
    state_laws: tuple[PopulationLaw, ...]

    def __init__(self, prior: Prior, state_laws: Iterable) -> None:
        state_laws = tuple(state_laws)
        if len(state_laws) != prior.dimension:
            raise InvariantError("need one state law per state")
        if len({law.n for law in state_laws}) != 1:
            raise InvariantError("state laws must share one population size")
        if any(law.dimension != prior.dimension for law in state_laws):
            raise InvariantError("state laws and prior live on different state spaces")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "state_laws", state_laws)

    @property
    def n(self) -> int:
        return self.state_laws[0].n

    def law(self) -> PopulationLaw:
        """The unconditional law the scheme induces."""
        return mix_laws(
            [
                (self.prior.coordinate(state), state_law)
                for state, state_law in enumerate(self.state_laws)
            ]
        )


def synthesize(
    law: PopulationLaw, prior: Prior, decomposition: SpreadDecomposition
) -> SymmetricScheme:
    """Package a verified decomposition as an implementing scheme.

    In each state the scheme draws an empirical distribution from that state's
    component law and deals its beliefs to the agents in uniformly random
    order; the beliefs themselves are the signals.
    """
    if not verify_decomposition(law, base_law(law, prior), decomposition):
        raise InvariantError("decomposition does not verify against the law's base")
    return SymmetricScheme(prior, [q for _, q in decomposition.components])


def _distinct_assignments(counts: list[tuple[Belief, int]]):
    """All distinct ways to deal the multiset to the agents, without the n! blowup.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) steps through the sequences of
    positions into `counts` in lexicographic order, without recursion.
    """
    labels = [label for label, _ in counts]
    seq = [position for position, (_, count) in enumerate(counts) for _ in range(count)]
    while True:
        yield tuple(map(labels.__getitem__, seq))
        j = len(seq) - 2
        while j >= 0 and seq[j] >= seq[j + 1]:
            j -= 1
        if j < 0:
            return
        # the non-increasing tail, reversed, is sorted: swap in its least entry above seq[j]
        seq[j + 1 :] = seq[:j:-1]
        k = bisect_right(seq, seq[j], j + 1)
        seq[j], seq[k] = seq[k], seq[j]


def expand_scheme(scheme: SymmetricScheme) -> InformationStructure:
    """The explicit structure a scheme describes, collapsed by multiset type.

    Each distinct assignment of an empirical distribution's beliefs to the
    agents appears as one profile with the multinomial share of the weight.
    The profiles hold the signal set's own `Belief` objects, so equal labels
    are one object throughout. Raises `ResourceLimitError`, before dealing,
    when profiles x agents would exceed the bound.
    """
    cap = max_profiles_bound() // scheme.n
    labels: dict[Belief, Belief] = {}
    sizes = []  # each atom's profile count, capped at cap
    deals = []  # per state, the (share, counts) of each atom
    for state_law in scheme.state_laws:
        deals.append([])
        for empirical, weight in state_law.atoms:
            sizes.append(capped_multinomial([c for _, c in empirical.counts], cap))
            counts = [(labels.setdefault(b, b), c) for b, c in empirical.counts]
            deals[-1].append((weight / sizes[-1], counts))
    # the sizes are exact if they sum to at most cap, else n * sum >= n * (cap + 1) > bound
    require_within_bound(scheme.n * sum(sizes), "expansion", "profile labels", " or simulate")
    signal_set = tuple(sorted(labels))
    by_label_str = _by_label_str([signal_set])
    kernel = []
    for atoms in deals:
        profiles = [(p, share) for share, counts in atoms for p in _distinct_assignments(counts)]
        kernel.append(tuple(sorted(profiles, key=by_label_str)))
    # signal-set labels, disjoint profiles per atom, positive shares summing to 1 per state
    return _trusted(
        InformationStructure,
        n=scheme.n,
        prior=scheme.prior,
        signal_sets=(signal_set,) * scheme.n,
        kernel=tuple(kernel),
    )


SIMULATE_BLOCK = 1 << 14  # sample indices drawn per `substream_draws` call
GUIDE_SHIFT = 56  # a 64-bit draw's top byte, the index into a guide table
GUIDED = 254  # items 0 to 253 have guide values 1 to 254; 0 is left for "another state"
MARKER = 255  # a guide value that the draw's full 64 bits must resolve
_MARKED = re.compile(bytes([MARKER]))
_LANE = struct.Struct("<Q")  # a lane's low 8 bytes, its draw


def simulate(
    scheme: SymmetricScheme, samples: int, seed: int, shards: int = 1
) -> PopulationLaw:
    """Monte-Carlo frequency estimate of the scheme's law.

    Per sample: draw the state from the prior, then an empirical distribution
    from that state's law, each from the sample's own substream (see `rng`).
    The draws of sample index i depend only on (seed, i), so the result
    depends only on (samples, seed). `shards` is validated for compatibility
    but changes neither the draws nor the work: the indices are drawn in
    blocks of SIMULATE_BLOCK, whatever the shard count. The seed must lie in
    [0, 2**64).

    Each pick is the rule's "first item with u < cutoff", made per block
    from the draws' top bytes, one byte per draw (`lanes[7::16]`, see
    `rng`). The prior's guide table (`_guide_table`) translates every state
    draw's top byte into 1 + its state, or MARKER. For each state, its own
    guide translates the distribution draws' top bytes into 1 + their item,
    an AND with the samples whose state byte is 1 + that state zeroes the
    others, and `bytes.count` tallies each item. Why this is exact: the
    draws with top byte t are the u in [t * 2**56, (t + 1) * 2**56), and if
    no cutoff lies strictly inside that range they all pick one item, the
    one the guide holds. Every other byte, and every item or state past
    index GUIDED - 1 (whose 1 + index would not fit below MARKER), reads
    MARKER, and only those draws are resolved by `bisect_right` on their
    full 64 bits. Guide values 1 to 254 never collide with MARKER or with
    the 0 of another state, so every count is the rule's, for any number of
    atoms or states.
    """
    require_int(samples, "sample count")
    require_int(shards, "shard count")
    require_int(seed, "seed", low=0, high=TWO64)
    _, state_cutoffs = _selection_table(list(enumerate(scheme.prior.coords)))
    state_guide = _guide_table(state_cutoffs)
    empiricals = []  # per state, its items
    cutoffs_of = []
    guided = []  # (state, guide, state-byte mask, guided items) of each state in the prior's guide
    for s, law in enumerate(scheme.state_laws):
        items, cutoffs = _selection_table(law.atoms)
        empiricals.append(items)
        cutoffs_of.append(cutoffs)
        if s < GUIDED and s + 1 in state_guide:
            guide = _guide_table(cutoffs)
            mask = bytearray(256)
            mask[s + 1] = 0xFF  # translate: 0xFF where a sample's state byte is s + 1, else 0
            counted = [k for k in range(min(len(items), GUIDED)) if k + 1 in guide]
            guided.append((s, guide, bytes(mask), counted))
    tallies: list[Counter[int]] = [Counter() for _ in cutoffs_of]
    for start in range(0, samples, SIMULATE_BLOCK):
        count = min(SIMULATE_BLOCK, samples - start)
        u_state, u_emp = substream_draws(seed, start, start + count, 2)
        # byte 7 of each little-endian lane is its draw's top byte
        states = u_state[7::LANE_BYTES].translate(state_guide)
        emp_top = u_emp[7::LANE_BYTES]
        for s, guide, mask, counted in guided:
            in_state = int.from_bytes(states.translate(mask), "little")
            own = int.from_bytes(emp_top.translate(guide), "little") & in_state
            picks = own.to_bytes(count, "little")
            tally = tallies[s]
            for k in counted:
                tally[k] += picks.count(k + 1)
            tally.update(map(partial(bisect_right, cutoffs_of[s]), _marked_draws(picks, u_emp)))
        # samples whose state byte is MARKER: both picks by bisect
        for u_s, u_e in zip(_marked_draws(states, u_state), _marked_draws(states, u_emp)):
            s = bisect_right(state_cutoffs, u_s)
            tallies[s][bisect_right(cutoffs_of[s], u_e)] += 1
    counts: Counter[EmpiricalDistribution] = Counter()
    for items, tally in zip(empiricals, tallies):
        for k, c in tally.items():
            if c:
                counts[items[k]] += c  # states may share a distribution
    # distinct distributions in ascending order of one scheme's n and state
    # space, positive counts summing to samples
    return _trusted(
        PopulationLaw,
        n=scheme.n,
        atoms=tuple([(e, Fraction(c, samples)) for e, c in sorted(counts.items())]),
    )


def _marked_draws(picks: bytes, lanes: bytes) -> list[int]:
    """The 64-bit draws in `substream_draws`' lanes of the samples whose pick is MARKER."""
    return [_LANE.unpack_from(lanes, LANE_BYTES * m.start())[0] for m in _MARKED.finditer(picks)]


def _selection_table(atoms):
    """Items plus integer cutoffs: a draw u picks the first item with u < cutoff.

    The cutoff for cumulative weight w is ceil(w * 2**64), which agrees exactly
    with the comparison u / 2**64 < w for integer u; with w = acc / den over
    the weights' common denominator, it is -(-(acc << 64) // den).
    """
    weights, den = over_common_denominator([weight for _, weight in atoms])
    items = []
    cutoffs = []
    acc = 0
    for (item, _), weight in zip(atoms, weights):
        acc += weight
        items.append(item)
        cutoffs.append(-(-(acc << 64) // den))
    return items, cutoffs


def _guide_table(cutoffs) -> bytes:
    """A selection's 256-byte guide table, indexed by a draw's top byte t.

    Entry t is 1 + the item that every draw in [t * 2**56, (t + 1) * 2**56)
    picks when no cutoff lies strictly inside that range, and MARKER otherwise
    or when that item's index is GUIDED or more. The cutoffs ascend to 2**64,
    so each item fills, in one extend, the bytes below its cutoff's byte that
    earlier items left; a cutoff strictly inside its byte then marks that byte.
    """
    guide = bytearray()
    for k, cutoff in enumerate(cutoffs[:GUIDED]):
        top = cutoff >> GUIDE_SHIFT
        guide += bytes([k + 1]) * (top - len(guide))
        if len(guide) == top and top << GUIDE_SHIFT < cutoff:
            guide.append(MARKER)
    # the bytes still open belong to items past the cap, or straddle a cutoff
    return bytes(guide.ljust(256, bytes([MARKER])))


def enumerate_grid_structures(
    n: int,
    prior: Prior,
    signals_per_agent: int = 2,
    denominator: int = 2,
):
    """Yield every structure whose kernels put multiples of 1/denominator on profiles.

    Exhaustive over both states independently, so the count is the square of
    the number of weight vectors; `weight_grid` refuses grids past the bound.
    """
    if prior.dimension != 2:
        raise InvariantError("grid enumeration is implemented for two states")
    signal_set, profiles, vectors = weight_grid(n, signals_per_agent, denominator)
    kernels = [grid_kernel(signal_set, profiles, vec, denominator) for vec in vectors]
    for kernel0 in kernels:
        for kernel1 in kernels:
            yield InformationStructure(
                n, prior, [signal_set] * n, [kernel0, kernel1]
            )


def weight_grid(n: int, signals_per_agent: int, denominator: int):
    """Signal labels, profiles (tuples of label indices) and all weight vectors.

    A weight vector gives each profile a multiple of 1/denominator. Raises
    `ResourceLimitError`, before enumerating anything, when the number of
    kernel pairs C(d + s**n - 1, s**n - 1)**2 exceeds the profile bound.
    """
    require_int(n, "agent count")
    require_int(signals_per_agent, "signals per agent")
    require_int(denominator, "grid denominator")
    cap = isqrt(max_profiles_bound())
    # d >= 1 gives at least s**n vectors, and s**n > cap for s >= 2 from n = cap.bit_length() on
    parts = signals_per_agent ** min(n, cap.bit_length())
    # kernel pairs = vectors**2 > bound exactly when vectors > isqrt(bound)
    vectors = capped_multinomial((denominator, parts - 1), cap)
    require_within_bound(vectors**2, "grid enumeration", "kernel pairs", " or shrink the grid")
    signal_set = tuple(f"s{k}" for k in range(signals_per_agent))
    profiles = list(product(range(signals_per_agent), repeat=n))
    return signal_set, profiles, list(compositions(denominator, parts))


def grid_kernel(signal_set, profiles, vector, denominator: int):
    """One state's kernel: weight w/denominator on profile i for each nonzero w = vector[i]."""
    return tuple(
        (tuple(signal_set[s] for s in profiles[i]), Fraction(w, denominator))
        for i, w in enumerate(vector)
        if w
    )


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`, lexicographically."""
    # stars and bars: the parts - 1 bars sit among total + parts - 1 slots
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        counts = []
        for bar in bars:
            counts.append(bar - prev - 1)
            prev = bar
        counts.append(total + parts - 2 - prev)
        yield tuple(counts)
