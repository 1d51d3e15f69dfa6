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

`substream_draws` is the rule's one definition, in batch form: it draws for
a whole range of sample indices at once. The range's values sit in one Python
int as 128-bit lanes, little-endian: lane k holds the value of index
start + k in its low 64 bits, and its high 64 bits are zero between
operations. A product with a 64-bit constant therefore stays inside its lane,
and what a right shift moves into a neighbour's high half is masked off with
`low`, 2**64 - 1 in every lane. Each finalizer round is a handful of
whole-int operations over all lanes together (`mix_lanes`). The ints that
depend only on the block length, not on the seed, are built once per length
and memoized for the last two lengths (`lane_constants`): the repunit (1 in
every lane), `low`, PHI times each lane's index, and the step PHI in every
lane. Each draw's lanes are handed out as bytes, `to_bytes(16 * count,
"little")`: with the byte order explicit, byte 7 of lane k is the top byte of
index start + k's value on every platform, and `lanes[7::16]` is every
index's top byte, with no unpacking.

`structures.simulate` draws in fixed blocks: draw 0 picks the state and draw
1 the empirical distribution, each as the first item whose cumulative weight
w satisfies u < ceil(w * 2**64) for the 64-bit draw u. Most picks are read
from the draw's top byte alone (see `structures._guide_table`).
"""

from __future__ import annotations

import struct
from functools import lru_cache

MASK64 = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15
TWO64 = 1 << 64
LANE_BYTES = 16


def mix_lanes(z: int, low: int) -> int:
    """SplitMix's 64-bit output finalizer, applied to every 128-bit lane of z at once.

    Each lane's value must be below 2**64; `low` is 2**64 - 1 in every lane.
    """
    z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
    z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
    return z ^ ((z >> 31) & low)


def pack_lanes(values) -> int:
    """The 64-bit values as one int, value k in the low half of lane k."""
    lanes = [0] * (2 * len(values))
    lanes[::2] = values
    return int.from_bytes(struct.pack(f"<{len(lanes)}Q", *lanes), "little")


@lru_cache(maxsize=2)  # one full block of `structures.simulate` and one shorter tail
def lane_constants(count: int) -> tuple[int, int, int, int]:
    """The seed-free ints of a `count`-lane block: repunit, low, PHI * lane index, PHI * repunit."""
    repunit = int.from_bytes((b"\x01" + bytes(LANE_BYTES - 1)) * count, "little")
    return repunit, repunit * MASK64, PHI * pack_lanes(range(count)), PHI * repunit


def substream_draws(seed: int, start: int, stop: int, draws: int) -> list[bytes]:
    """Draws 0 to draws - 1 of every sample index in [start, stop), under the rule above.

    Entry j of the result holds draw j of each index as little-endian 128-bit
    lanes, in index order: bytes 16k to 16k + 7 are index start + k's value
    and the next 8 are zero.
    """
    count = stop - start
    repunit, low, offsets, step = lane_constants(count)
    # lane k: s + (start + k + 1) * PHI, below 2**64 * (count + 1) before the mask
    first = (seed + (start + 1) * PHI) & MASK64
    base = mix_lanes((first * repunit + offsets) & low, low)
    return [
        mix_lanes((base + j * step) & low, low).to_bytes(LANE_BYTES * count, "little")
        for j in range(1, draws + 1)
    ]
