import ctypes
from pathlib import Path

# pulse before numpy: importing pulse pins BLAS to one thread, which OpenBLAS
# reads once, when numpy loads it
from pulse import tensor as T
from pulse.model import ModelConfig
from pulse.radar import RadarConfig, emit_dataset, make_scene
from pulse.storage import load_dataset
from pulse.training import EpochRecord, TrainLog

import numpy as np
import pytest


def tiny_radar_cfg():
    # 16x16x8 grid: half bandwidth keeps the 0-4.8 m scene inside 16 bins
    return RadarConfig(R=16, A=16, chirps_per_frame=8, fast_samples_per_chirp=32,
                       virtual_elements=4, noise_std=0.6, bandwidth_hz=0.5e9)


def tiny_model_cfg(**kw):
    base = dict(R=16, A=16, D=8, patch_r=4, patch_a=4, embed_dim=8, layers=1,
                heads=2, dropout=0.1, neighborhood=3, joints=8)
    base.update(kw)
    return ModelConfig(**base)


def one(x, requires_grad=False):
    """The array x as a batch of one sample, a leaf tensor."""
    return T.Tensor(np.asarray(x)[None], requires_grad=requires_grad, batched=True)


def openblas_threads():
    """The thread count of the OpenBLAS that numpy loaded in this process."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    raise AssertionError(f"no OpenBLAS library in {libs}")


def parse_train_log(text):
    """The EpochRecords of a train_log.csv text, whose header must match."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines and lines[0] == TrainLog.HEADER, lines[:1]
    return [EpochRecord(int(epoch), *map(float, rest))
            for epoch, *rest in (ln.split(",") for ln in lines[1:])]


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """3 short rendered sequences (2 train / 1 val) on a 16x16x8 grid."""
    cfg = tiny_radar_cfg()
    root = tmp_path_factory.mktemp("tinydata") / "ds"
    motions = ["walk", "wave", "walk"]
    scenes = [make_scene(cfg, seed=40 + i, motion=m) for i, m in enumerate(motions)]
    emit_dataset(cfg, scenes, (0.67, 0.33, 0.0), root, seed=11, frames_per_seq=8,
                 motions=motions)
    return load_dataset(root)
