"""Run streams (MLP initialisation, training, the calibrate split) draw apart
from every voxel stream of the phantom, the oracle and the replicate seeds."""

import numpy as np
import pytest

from dticalib.mlp import MlpSpec, TwoBranchMlp
from dticalib.pipeline import _voxel_seeds
from dticalib.rng import CALIBRATE_SPLIT, MLP_INIT, MLP_TRAIN, rng_from_key, run_stream

PURPOSES = (MLP_INIT, MLP_TRAIN, CALIBRATE_SPLIT)


@pytest.mark.parametrize("seed", [0, 1, 11, 2**32 + 3])
def test_run_streams_meet_no_voxel_stream_nor_each_other(seed):
    firsts = [run_stream(seed, purpose).random(4) for purpose in PURPOSES]
    # the phantom and oracle key (seed, voxel); bootstrap and dropout key a
    # voxel's replicates off one integer folded from (seed, voxel)
    keys = [(seed,)] + [(seed, v) for v in range(16)] + [(s,) for s in _voxel_seeds(seed, 16)]
    voxel_firsts = [rng_from_key(*key).random(4) for key in keys]
    for i, first in enumerate(firsts):
        assert not any(np.array_equal(first, other) for other in voxel_firsts)
        assert not any(np.array_equal(first, other) for other in firsts[i + 1:])


def test_mlp_init_is_not_phantom_voxel_zero():
    # a random_spd phantom at seed 1 draws voxel 0's eigenvalue uniforms first
    # from rng_from_key(1, 0); the first weights of a seed-1 model, mapped back
    # to [0, 1), must not repeat them
    model = TwoBranchMlp(MlpSpec(input_dim=32), seed=1)
    bound = 1.0 / np.sqrt(32)
    unit = (model.main_w[0].ravel()[:3] + bound) / (2.0 * bound)
    assert not np.allclose(unit, rng_from_key(1, 0).random(3), rtol=0.0, atol=1e-12)
