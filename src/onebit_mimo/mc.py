"""Deterministic block Monte Carlo execution.

Trials are partitioned into contiguous blocks; each block gets its own
seed stream derived from (seed, block index), and the blocks run serially
in block order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["block_seeds", "run_blocks"]

DEFAULT_BLOCK = 256


def block_seeds(seed, n_blocks: int) -> list[np.random.SeedSequence]:
    """Independent per-block seed streams, a pure function of (seed, index).

    seed may be an int or a tuple of ints (e.g. (run seed, grid index)).
    """
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return [np.random.SeedSequence(entropy=(*base, i)) for i in range(n_blocks)]


def run_blocks(n_trials: int, fn, seed, block: int = DEFAULT_BLOCK) -> list:
    """Run fn(rng, n) over contiguous trial blocks; returns per-block results in order.

    fn receives a fresh Generator seeded from :func:`block_seeds` and the
    block's trial count.
    """
    sizes = [block] * (n_trials // block)
    if n_trials % block:
        sizes.append(n_trials % block)
    seeds = block_seeds(seed, len(sizes))
    return [fn(np.random.default_rng(s), n) for s, n in zip(seeds, sizes)]
