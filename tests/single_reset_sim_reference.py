"""The single-restart simulation as its own loop, kept as a reference.

``simulator.simulate_single_reset`` runs the restart loop of
``simulate_branching``, whose second cycle draws no reset; this is the
separate loop it replaced. Block b draws from the stream keyed by
(seed, b): the first try and the reset for every replicate of the block,
then a second try for those the reset cut off. The shared loop is
checked against its times, bit for bit.
"""
from __future__ import annotations

import numpy as np

_BLOCK = 4096  # replicates per random stream, as in the simulator


def single_reset_times(spec, reset, replicates: int, seed: int) -> np.ndarray:
    """Completion time of each replicate with one restart opportunity."""
    times = np.empty(replicates)
    for lo in range(0, replicates, _BLOCK):
        hi = min(lo + _BLOCK, replicates)
        rng = np.random.default_rng((seed, lo // _BLOCK))
        t1 = spec.isf(rng.random(hi - lo))
        r = reset.spec.isf(rng.random(hi - lo))
        again = ~(t1 <= r)
        t1[again] = r[again] + spec.isf(rng.random(int(again.sum())))
        times[lo:hi] = t1
    return times
