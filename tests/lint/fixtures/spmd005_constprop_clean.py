"""SPMD005 FP-reduction twin: rank-named guards that are no rank.

A syntactic rule flags both collectives (``r`` and ``rank`` appear in
the conditions); neither name is a rank-named parameter or a rank-loop
target, and constant propagation pins both guards to one value, so
every rank evaluates them identically.
"""


def warm_start(sim):
    r = 0
    if r == 0:
        sim.barrier()


def debug_path(sim, nranks):
    rank = 3 - 3
    if rank != 0:
        sim.allreduce(0.0)
