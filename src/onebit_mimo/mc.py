"""Deterministic block Monte Carlo execution.

Trials are partitioned into contiguous blocks; each block gets its own
seed stream derived from (seed, block index), and the blocks run serially
in block order. Inside a block, trials are processed in stacks of
:func:`trial_stacks`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["block_seeds", "run_blocks", "trial_stacks"]

DEFAULT_BLOCK = 256

# elements n * M * M of one stack of n trials with M antennas; the largest
# stacked temporaries are the real (n, 2M, M) arcsine arguments of the
# quantizer-noise term (128 kB at this budget). ergodic_rate_mc, MRC + ZF,
# K = tau = 8, 2-vCPU VM, us per trial (best of 3 processes) for budgets
# 4,096 / 8,192 / 16,384 / 32,768 / 65,536:
#   M = 32:  92 /  72 /  92 /  95 / 120 (peak RSS 38.0 -> 43.4 MB)
#   M = 64: 327 / 199 / 223 / 216 / 257
#   M = 128: 569 / 553 / 581 / 722 / 659 (one trial per stack up to 16,384)
_STACK_ELEMS = 8_192


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


def trial_stacks(n: int, M: int) -> list[slice]:
    """Consecutive slices covering range(n), each of at most max(1, _STACK_ELEMS // M^2) trials."""
    step = max(1, _STACK_ELEMS // (M * M))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
