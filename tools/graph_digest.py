#!/usr/bin/env python3
"""One sha256 over the model's forwards, losses and gradients.

    PYTHONPATH=<tree>/src python3 tools/graph_digest.py

Runs the pulse package found on PYTHONPATH over every ablation, at the desk
profile (32x32x16, d=16, 2 layers) and the full profile (64x64x16, d=32,
4 layers), with frame_window 1 and 2. Each configuration contributes:

- eval-mode forwards of a batch of one window: the pose and the prompting
  gate, and with frame_window 1 also the forced-aggregation forward;
- one batch-4 training loss with dropout 0.1 and the gate loss (weight 30;
  the last sample has no gate target), and the gradient of every
  parameter after its backward.

Parameters come from init_params(randomize_all=True), so no branch output
is exactly zero, and frames from a seeded generator. Every array enters
the hash with its name, dtype and shape. Prints one line,
`<sha256> <number of arrays> arrays`: two trees whose lines are equal
computed bitwise the same values. tools/byte_identity.sh compares a git
ref's line with the working tree's.
"""

from __future__ import annotations

import os

# one BLAS thread before numpy loads, also for a ref whose package does not pin it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib
import sys

import numpy as np

from pulse import tensor as T
from pulse.features import spatial_magnitude
from pulse.model import ABLATIONS, ModelConfig, forward, init_params
from pulse.training import Sample, TrainConfig, batch_loss, occupied_cell_weights

PROFILES = {
    "desk": dict(R=32, A=32, D=16, patch_r=4, patch_a=4, embed_dim=16, layers=2,
                 heads=2, dropout=0.1, joints=8),
    "full": dict(dropout=0.1),
}
BATCH = 4


def arrays(profile, ablation, frame_window):
    """(name, array) pairs of one configuration, in a fixed order."""
    cfg = ModelConfig(**PROFILES[profile], ablation=ablation,
                      frame_window=frame_window)
    rng = np.random.default_rng([list(PROFILES).index(profile), ABLATIONS.index(ablation),
                                 frame_window])
    windows = [[rng.random((cfg.R, cfg.A, cfg.D)) for _ in range(frame_window)]
               for _ in range(BATCH)]
    params = init_params(cfg, seed=7, randomize_all=True)
    constants = {name: T.Tensor(p.data) for name, p in params.params.items()}
    for aggregate in (False, True) if frame_window == 1 else (False,):
        result = forward([windows[0]], constants, cfg, force_aggregate=aggregate)
        yield f"eval{int(aggregate)}.pose", result.pose.data
        if result.gate is not None:
            yield f"eval{int(aggregate)}.gate", result.gate.data

    bounds = (0.1, 0.9)
    batch = [Sample(seq="000", frame=k, window=w,
                    pose=rng.uniform(-500.0, 500.0, (cfg.joints, 3)),
                    cell_weights=occupied_cell_weights(spatial_magnitude(w[-1])),
                    gate_target=(float(rng.random()), bounds) if k < BATCH - 1 else None,
                    gate_weight=float(k < BATCH - 1))
             for k, w in enumerate(windows)]
    tcfg = TrainConfig(seed=3, gate_loss_weight=30.0)
    params.zero_grad()
    loss = batch_loss(batch, params, cfg, tcfg, step=5)
    yield "loss", loss.data
    T.backward(loss)
    for name, p in params.params.items():
        if p.grad is not None:
            yield f"grad.{name}", p.grad


def main():
    digest = hashlib.sha256()
    count = 0
    for profile in PROFILES:
        for ablation in ABLATIONS:
            for frame_window in (1, 2):
                for name, values in arrays(profile, ablation, frame_window):
                    values = np.ascontiguousarray(values)
                    digest.update(f"{profile}/{ablation}/{frame_window}/{name} "
                                  f"{values.dtype} {values.shape}\n".encode())
                    digest.update(values.tobytes())
                    count += 1
    print(f"{digest.hexdigest()} {count} arrays")
    return 0


if __name__ == "__main__":
    sys.exit(main())
