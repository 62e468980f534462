"""TRN004 clean twin: explicit 64-bit dtypes.

``np.arange(..., dtype=np.int64)`` pins the index width everywhere;
``np.zeros`` defaults to ``float64`` on every platform, so the
implicit dtype is already the wide one.
"""

import numpy as np


def index_exchange(sim, rank, nbr, n):
    idx = np.arange(n, dtype=np.int64)
    sim.exchange([(rank, nbr, float(n))], tag="idx")
    return idx


def value_exchange(sim, rank, nbr, n):
    buf = np.zeros(n)
    sim.exchange([(rank, nbr, float(n))], tag="v")
    return buf
