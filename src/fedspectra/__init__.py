"""Federated learning simulation engine with frequency-domain aggregation
and three-phase personalized knowledge transfer."""

import os

# One BLAS thread per worker unless the user says otherwise: the client pool
# already runs one thread per core, and BLAS threads on top oversubscribe
# the cores. numpy reads these once, when it is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
