"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a Philox (counter-based)
generator keyed by a base seed plus a tuple of labels.  Substreams derived from
the same (seed, labels) are bit-identical across runs and independent across
distinct labels, so per-time / per-sample parallelism cannot change results.

`CounterStream` reads the same keyed Philox at explicit counters, so a draw is
a function of its address alone and callers draw only the cells they keep.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _label_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label)
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    raise TypeError(f"stream label must be int or str, got {type(label).__name__}")


def _seed_sequence(seed: int, labels) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed),) + tuple(_label_int(lab) for lab in labels))


def substream(seed: int, *labels) -> np.random.Generator:
    """Independent generator for (seed, *labels); same inputs, same bits."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, labels)))


def as_generator(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(seed)


def open_unit(words: np.ndarray) -> np.ndarray:
    """uint64 words -> float64 uniforms strictly inside (0, 1), in place.

    The top 52 bits m give (m + 1/2) 2^-52, so 0 maps to 2^-53 and 2^64 - 1 to
    1 - 2^-53: every value is exact and no quantile sees 0 or 1.
    """
    words >>= np.uint64(12)
    words |= np.uint64(0x3FF0000000000000)     # the double 1 + m 2^-52
    u = words.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


class CounterStream:
    """The Philox keyed by (seed, *labels), read at explicit counters.

    Word ``w`` is word ``w`` of the raw output of `substream(seed, *labels)`:
    word ``w % 4`` of the Philox block that follows counter ``w // 4``.  A
    range of words is read without drawing what precedes it.
    """

    def __init__(self, seed: int, *labels):
        self._key = _seed_sequence(seed, labels).generate_state(2, np.uint64)
        self._bits = np.random.Philox(key=self._key)
        self._generator = np.random.Generator(self._bits)

    def _seek(self, block: int) -> None:
        # numpy's Philox steps its 256-bit counter, then computes the block
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([(block >> s) & _MASK64 for s in (0, 64, 128, 192)],
                                          dtype=np.uint64),
                      "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }

    def words(self, start: int, n: int) -> np.ndarray:
        """Raw words start, ..., start + n - 1 (a fresh, writeable array)."""
        self._seek(start // 4)
        skip = start % 4
        w = self._bits.random_raw(skip + n)
        return w[skip:] if skip else w

    def generator(self, region: int) -> np.random.Generator:
        """A generator placed at the first of the 2^64 blocks of ``region``;
        draws of any variable length stay inside it."""
        self._seek(region << 64)
        return self._generator
