import numpy as np

import pytest

from onebit_mimo import mc
from onebit_mimo.mc import block_seeds, run_blocks, trial_stacks


def _collect(rng, n):
    return rng.standard_normal(n)


def test_run_blocks_equals_loop_over_block_seeds():
    # blocks of 256 trials, the last one short, each drawn from its own
    # stream in block order
    got = run_blocks(1000, _collect, seed=(5, 1))
    sizes = [256] * 3 + [232]
    want = [
        _collect(np.random.default_rng(s), n)
        for s, n in zip(block_seeds((5, 1), len(sizes)), sizes)
    ]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_block_partition_covers_all_trials():
    out = run_blocks(1000, lambda rng, n: n, seed=0)
    assert out == [256, 256, 256, 232]
    assert sum(out) == 1000


def test_blocks_have_distinct_streams():
    seqs = block_seeds(3, 4)
    draws = [np.random.default_rng(s).standard_normal(4) for s in seqs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(draws[i], draws[j])


def test_tuple_seed_supported():
    a = np.concatenate(run_blocks(400, _collect, seed=(7, 2)))
    b = np.concatenate(run_blocks(400, _collect, seed=(7, 2)))
    c = np.concatenate(run_blocks(400, _collect, seed=(7, 3)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)



@pytest.mark.parametrize("n, M", [(256, 24), (7, 32), (1, 4), (256, 8), (100, 1000)])
def test_trial_stacks_cover_the_block_in_order(n, M):
    stacks = trial_stacks(n, M)
    step = max(1, mc._STACK_ELEMS // (M * M))
    assert [i for s in stacks for i in range(s.start, s.stop)] == list(range(n))
    assert all(0 < s.stop - s.start <= step for s in stacks)
    assert all(s.stop - s.start == step for s in stacks[:-1])
