"""Coverage of the bootstrap's percentile intervals on the smooth keys.

G, G_hat, delta0 and delta1 are smooth functions of the cell rates, so their
percentile intervals should cover the true value at close to the nominal
level where every conditioning event has mass. Each model below is sampled
``SEEDS`` times at ``N`` rows, and each dataset gets a ``REPLICATES``-replicate
bootstrap. The number of intervals that hold the truth is binomial; a check
fails only when it is below what a coverage of ``LEVEL - SHORTFALL`` would give
with chance ``ALPHA``. Every constant was fixed before the first run.

``error`` and ``best_bound`` are not checked here: both are non-smooth in the
rates (abs, max, min), and on a model whose true eps_B2 is 0, such as
``M1_WITH_D``, their percentile intervals undercover (README, ``--bootstrap``).
"""

import math

import numpy as np
import pytest

from gap_gauge import (
    FullJoint, bootstrap, compute_gaps, consistent_marginals, expand, reduce, sample_dataset,
)

from conftest import M1_WITH_D

SEEDS = 160
N = 3000
REPLICATES = 200
LEVEL = 0.95
#: How far below LEVEL a percentile interval's coverage may fall at N rows
SHORTFALL = 0.02
#: Chance that one check fails when the coverage is LEVEL - SHORTFALL
ALPHA = 1e-3
KEYS = ("G", "G_hat", "delta0", "delta1")


def random_joint(seed: int) -> FullJoint:
    """A random joint whose every cell is at least 0.01."""
    return FullJoint(cells=0.01 + 0.84 * np.random.default_rng(seed).dirichlet(np.ones(16)))


MODELS = {
    "M1_WITH_D": expand(M1_WITH_D, consistent_marginals(M1_WITH_D)),
    "random-1": random_joint(1),
    "random-2": random_joint(2),
}


def least_hits(seeds: int, coverage: float, alpha: float) -> int:
    """The largest h with P(Binomial(seeds, coverage) < h) <= alpha."""
    below = 0.0
    for h in range(seeds + 1):
        below += math.comb(seeds, h) * coverage**h * (1.0 - coverage) ** (seeds - h)
        if below > alpha:
            return h
    return seeds


def test_least_hits():
    assert least_hits(10, 0.5, 1.0 / 1024) == 1
    assert least_hits(10, 0.5, 0.5) == 5
    assert least_hits(160, 1.0, ALPHA) == 160


@pytest.mark.parametrize("name", sorted(MODELS))
def test_smooth_keys_cover_near_nominal(name):
    joint = MODELS[name]
    truth = compute_gaps(reduce(joint))
    hits = dict.fromkeys(KEYS, 0)
    for k in range(SEEDS):
        # the data and the bootstrap draw from distinct seeds, so from distinct streams
        intervals = bootstrap(
            sample_dataset(joint, N, seed=k), REPLICATES, level=LEVEL, seed=SEEDS + k
        ).intervals
        for key in KEYS:
            lo, hi = intervals[key]
            hits[key] += lo <= getattr(truth, key) <= hi
    least = least_hits(SEEDS, LEVEL - SHORTFALL, ALPHA)
    assert all(hit >= least for hit in hits.values()), (least, hits)
