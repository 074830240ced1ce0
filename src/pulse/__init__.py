"""Desk-scale mmWave human pose estimation.

Subpackages: tensor/optim (autodiff core), radar (FMCW simulator and FFT
pipeline), features (dual-domain feature math), model (gated cross-attention
pose regressor), training, metrics, storage (file formats), cli.
"""

import os

# Determinism first: cap BLAS threads before any submodule loads numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
