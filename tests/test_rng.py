"""Every stream a run draws from is its own: the run streams (MLP
initialisation, training, the calibrate split), the per-voxel wild-bootstrap
and dropout streams, and the voxel streams of the phantom and the oracle."""

import numpy as np
import pytest

from dticalib import bootstrap, mlp
from dticalib.rng import (
    CALIBRATE_SPLIT,
    MC_DROPOUT,
    MLP_INIT,
    MLP_TRAIN,
    WILD_BOOTSTRAP,
    rng_from_key,
    run_stream,
)
from dticalib.simulation import PhantomSpec, make_phantom, make_scheme

RUN_PURPOSES = (MLP_INIT, MLP_TRAIN, CALIBRATE_SPLIT)
VOXEL_PURPOSES = (WILD_BOOTSTRAP, MC_DROPOUT)


@pytest.mark.parametrize("seed", [0, 1, 11, 2**32 - 1, 2**32 + 3])
def test_run_voxel_and_phantom_streams_all_differ(seed):
    streams = [run_stream(seed, purpose) for purpose in RUN_PURPOSES]
    streams += [run_stream(seed, p, v) for p in VOXEL_PURPOSES for v in range(16)]
    # the phantom and the oracle key (seed, voxel)
    streams += [rng_from_key(seed, v) for v in range(16)]
    firsts = {stream.random(4).tobytes() for stream in streams}
    assert len(firsts) == len(streams) == 3 + 2 * 16 + 16


def test_mlp_init_is_not_phantom_voxel_zero():
    # a random_spd phantom at seed 1 draws voxel 0's eigenvalue uniforms first
    # from rng_from_key(1, 0); the first weights of a seed-1 model, mapped back
    # to [0, 1), must not repeat them
    model = mlp.TwoBranchMlp(mlp.MlpSpec(input_dim=32), seed=1)
    bound = 1.0 / np.sqrt(32)
    unit = (model.main_w[0].ravel()[:3] + bound) / (2.0 * bound)
    assert not np.allclose(unit, rng_from_key(1, 0).random(3), rtol=0.0, atol=1e-12)


# two voxels of a seed-1 run whose wild-bootstrap signs and dropout masks
# once came from one stream, keyed by SeedSequence([1, v]).generate_state(1)[0]
# = 802737481 for both
ONCE_FOLDED_ALIKE = [36995, 87042]


def test_once_folded_alike_voxels_resample_apart(monkeypatch):
    scheme = make_scheme(12)
    row = make_phantom(PhantomSpec(n_voxels=1, scheme=scheme, snr_db=25.0, seed=4)).signals[0]
    rows = np.stack([row, row])
    model = mlp.TwoBranchMlp(mlp.MlpSpec(input_dim=len(scheme), dropout_rate=0.5), seed=3)
    keys = []

    def spy(seed, purpose, *voxel):
        keys.append((seed, purpose, *voxel))
        return run_stream(seed, purpose, *voxel)

    monkeypatch.setattr(bootstrap, "run_stream", spy)
    monkeypatch.setattr(mlp, "run_stream", spy)
    table = bootstrap.wild_bootstrap_table(rows, scheme, 30, 1, voxels=ONCE_FOLDED_ALIKE)
    assert np.array_equal(table[0, :5], table[1, :5])  # the same base fit
    assert np.all(table[0, 5:8] != table[1, 5:8])  # other signs, other spread
    inputs = mlp.normalize_signals(rows, scheme)
    samples = mlp.predict_mc_dropout(model, inputs, 20, seed=1, voxels=ONCE_FOLDED_ALIKE)
    assert not np.array_equal(samples[0], samples[1])
    # each voxel's signs and masks come from two streams of their own
    assert keys == [(1, p, v) for p in VOXEL_PURPOSES for v in ONCE_FOLDED_ALIKE]
