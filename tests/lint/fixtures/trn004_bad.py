"""TRN004 bad twin: dtype drift in rank-executed array code.

``np.arange`` without a dtype is ``int32`` on LLP64 platforms and
``int64`` elsewhere; an explicit ``float32`` narrows every downstream
accumulation.  Either way two transports on different platforms stop
agreeing bit for bit.
"""

import numpy as np


def index_exchange(sim, rank, nbr, n):
    idx = np.arange(n)
    sim.exchange([(rank, nbr, float(n))], tag="idx")
    return idx


def narrow_exchange(sim, rank, nbr, vals):
    buf = np.asarray(vals, dtype=np.float32)
    sim.exchange([(rank, nbr, 1.0)], tag="v")
    return buf
