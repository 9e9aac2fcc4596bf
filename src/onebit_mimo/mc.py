"""Deterministic block Monte Carlo execution.

Trials are partitioned into contiguous blocks; each block gets its own
seed stream derived from (seed, block index), and the blocks run serially
in block order. Inside a block, :func:`training_trials` draws, trains and
quantizes the trials in stacks of :func:`trial_stacks`.
"""

from __future__ import annotations

import numpy as np

from .channel import crandn_trials
from .quantize import one_bit_quantize

__all__ = ["run_blocks", "trial_stacks", "training_trials"]

BLOCK = 256  # trials per block

# elements n * M * M of one stack of n trials with M antennas; the largest
# stacked arrays are the two real (n, 2M, M) of the quantizer-noise term, a
# workspace ergodic_rate_mc allocates once (1 MiB at this budget, M <= 128).
# ergodic_rate_mc(cfg, ("mrc", "zf")), both receivers on one pass, K = tau = 8,
# 2-vCPU VM, us per trial (best of 5 processes, measured with a workspace on
# a 64-byte boundary, which plain np.empty matched on figbench rates-small-m)
# for budgets 8,192 / 16,384 / 32,768 / 65,536:
#   M = 32:    86 /   78 /   59 /   64 (peak RSS 39.2 -> 41.2 MB)
#   M = 64:   215 /  189 /  158 /  134
#   M = 128:  536 /  550 /  374 /  402
#   M = 256: 1371 / 1255 / 1135 / 1206 (one trial per stack throughout)
# One call per receiver took 95 / 240 / 657 / 2129 us per trial at 32,768
# on the same host.
_STACK_ELEMS = 32_768


def run_blocks(n_trials: int, fn, seed) -> list:
    """Run fn(rng, n) over contiguous blocks of BLOCK trials; returns their results in order.

    Block b of n trials (the last holds the remainder) gets a fresh Generator on the
    stream SeedSequence(entropy=(*seed, b)); seed is an int or a tuple of ints.
    """
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    sizes = [min(BLOCK, n_trials - lo) for lo in range(0, n_trials, BLOCK)]
    seqs = [np.random.SeedSequence(entropy=(*base, b)) for b in range(len(sizes))]
    return [fn(np.random.default_rng(s), n) for s, n in zip(seqs, sizes)]


def trial_stacks(n: int, M: int) -> list[slice]:
    """Consecutive slices covering range(n), each of at most max(1, _STACK_ELEMS // M^2) trials."""
    step = max(1, _STACK_ELEMS // (M * M))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def training_trials(cfg, Phi, n_trials: int, seed, stat, root=None) -> list[np.ndarray]:
    """stat(H, R) over n_trials training phases: one array per block, its stacks' rows joined.

    A trial draws CN(0, 1) H (M x K; root @ H unless root is None) and N (M x tau), then
    R = Q(sqrt(rho_p) H Phi^T + N); stat maps a stack's (n, M, K) H and (n, M, tau) R to n rows.
    """
    if n_trials < 2:
        raise ValueError(f"n_trials must be >= 2 for a standard error, got {n_trials}")

    def block(rng: np.random.Generator, n: int) -> np.ndarray:
        rows = []
        for s in trial_stacks(n, cfg.M):
            H, N = crandn_trials(rng, s.stop - s.start, (cfg.M, cfg.K), (cfg.M, cfg.tau))
            if root is not None:
                H = root @ H
            rows.append(stat(H, one_bit_quantize(np.sqrt(cfg.rho_p) * H @ Phi.T + N)))
        return np.concatenate(rows)

    return run_blocks(n_trials, block, seed)
