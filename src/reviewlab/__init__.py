"""Review analytics, lexicon sentiment labeling, and a from-scratch
bidirectional LSTM classifier for clothing e-commerce reviews."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread, set before numpy's first import

__version__ = "0.1.0"
