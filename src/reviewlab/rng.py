"""A deterministic, seedable RNG and uniform parameter initialization.

The RNG is splitmix64, a counter-based 64-bit generator.  Because each
output depends only on ``(seed, counter)``, the stream is reproducible
across platforms and the bulk-fill path can be vectorized without changing
the values a scalar walk would produce.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


class SeededRng:
    """splitmix64 stream: output i is a pure function of (seed, i).

    ``fill`` produces the uniforms of the values ``next_u64`` would, in the
    same order, so vectorized and scalar consumers interleave freely.
    """

    __slots__ = ("seed", "_i")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._i = 0

    def next_u64(self) -> int:
        return int(self._outputs(1)[0])

    def _outputs(self, n: int) -> np.ndarray:
        """The next n outputs in one numpy pass, a uint64 array."""
        if n < 0:
            raise ValueError("fill size must be >= 0")
        idx = np.arange(self._i + 1, self._i + n + 1, dtype=np.uint64)
        self._i += n
        with np.errstate(over="ignore"):
            z = (np.uint64(self.seed) + idx * np.uint64(_GOLDEN))
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
            return z ^ (z >> np.uint64(31))

    def fill(self, n: int) -> np.ndarray:
        """The next n outputs' top 53 bits as uniforms in [0, 1), a float64 array."""
        return (self._outputs(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Integer in [0, n).  Plain modulo; bias is negligible for n << 2^64."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i = n-1 down to 1, swap i and randrange(i + 1)."""
        n = len(items)
        draws = self._outputs(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
            items[i], items[j] = items[j], items[i]


def init_uniform(rows: int, cols: int, rng: SeededRng, scale: float) -> np.ndarray:
    """(rows, cols) i.i.d. uniform on [-scale, +scale], row-major from the stream."""
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    u = rng.fill(rows * cols)
    return (scale * (2.0 * u - 1.0)).reshape(rows, cols)
