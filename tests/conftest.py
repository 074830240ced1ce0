import ctypes
from pathlib import Path

# pulse before numpy: importing pulse pins BLAS to one thread, which OpenBLAS
# reads once, when numpy loads it
from pulse import tensor as T
from pulse.model import ModelConfig, neighborhood_band
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


# tiny_radar_cfg's grid and a small tiny_model_cfg as pulse flags, and a
# two-epoch training run, for the tests that drive the CLI
TINY_GRID = ["--bandwidth_hz", "0.5e9", "--R", "16", "--A", "16", "--D", "8",
             "--fast_samples_per_chirp", "32", "--virtual_elements", "4"]
TINY_MODEL = ["--embed_dim", "8", "--layers", "1", "--heads", "2",
              "--patch_r", "4", "--patch_a", "4"]
TINY_TRAIN = ["--lr", "3e-3", "--batch", "4", "--epochs", "2", "--patience", "5"]


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


# Unit roundoff of float32: a float32 operation errs by at most u relative.
FLOAT32_U = 2.0**-24


def float32_gamma(mcfg):
    """gamma_n = n u / (1 - n u), the relative error bound of a float32 dot
    product of n terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3), for the model's longest contraction: the
    head's first layer over N_s * d inputs, or the cross-attention over the
    keys of a query's window (every cell for global_interaction) where that
    is longer. 1024 at the desk profile, 8192 at the full one."""
    band = neighborhood_band(mcfg)
    keys = mcfg.n_cells if band is None else band.window * band.block
    n = max(mcfg.n_spatial * mcfg.embed_dim, keys)
    return n * FLOAT32_U / (1.0 - n * FLOAT32_U)


def float32_pose_tolerance(mcfg, poses):
    """Bound in mm on the difference between a float32 evaluation's MPJPE,
    MPJVE or AKV and the float64 one, fixed before any measurement.

    Take the magnitude sum of the longest contraction to be the largest
    pose coordinate M (mm) of the float64 `poses`: each coordinate then errs
    by at most eps = gamma_n M, a joint's Euclidean error by sqrt(3) eps, so
    the MPJPE differs by at most sqrt(3) eps. A velocity is the difference of
    two poses, so the MPJVE and AKV differ by at most 2 sqrt(3) eps, the
    bound returned for all three."""
    scale = max(float(np.abs(p).max()) for p in poses)
    return 2.0 * np.sqrt(3.0) * float32_gamma(mcfg) * scale


def float32_pearson_tolerance(mcfg, scores):
    """Bound on the change of the Pearson r between float64 gate `scores`
    and the ground-truth motion proxy when the scores come from float32.
    A score is a mean of gates in (0, 1), so it errs by at most gamma_n;
    moving x by delta moves r by at most 2 |delta| / |x - mean(x)| (the
    centred unit vector moves that far), with |delta| <= sqrt(N) gamma_n."""
    x = np.asarray(scores, dtype=np.float64)
    return 2.0 * np.sqrt(x.size) * float32_gamma(mcfg) / np.linalg.norm(x - x.mean())


@pytest.fixture
def op_dtypes(monkeypatch):
    """The dtype of every op result computed while the test runs, in order:
    tensor._result is wrapped to record it."""
    seen = []
    result = T._result

    def recording(data, parents, backprop):
        seen.append(data.dtype)
        return result(data, parents, backprop)

    monkeypatch.setattr(T, "_result", recording)
    return seen


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
