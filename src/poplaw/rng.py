"""Seeded, portable randomness for Monte-Carlo simulation.

The generator is Steele, Lea and Flood's SplitMix with 64-bit state, chosen
because it is tiny, well known, and defined purely over 64-bit integer
arithmetic, so the same seed produces the same stream on every platform.

Stream-splitting rule: the j-th draw (j = 0, 1, ...) of sample index i under
seed s is

    mix(mix(s + (i + 1) * PHI) + (j + 1) * PHI)  mod 2**64

where PHI = 0x9E3779B97F4A7C15 and mix is SplitMix's output finalizer. Seeds
are the integers in [0, 2**64); `structures.simulate` refuses any other seed,
which the rule would silently reduce mod 2**64 onto one in range. Each sample
owns an independent substream keyed only by (seed, index), so any partition of
the sample indices across workers reproduces the single-threaded result
exactly.

`structures.simulate` applies the rule inline: draw 0 picks the state and
draw 1 the empirical distribution, each as the first item whose cumulative
weight w satisfies u < ceil(w * 2**64) for the 64-bit draw u.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15
TWO64 = 1 << 64


def mix64(z: int) -> int:
    """SplitMix's 64-bit output finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)
