"""SPMD005 bad twin: rank taint reaches collective guards via copies.

Neither condition names the rank; both guards are one assignment
removed from it, so only the taint analysis connects them.
"""


def leader_barrier(sim, rank):
    leader = rank == 0
    if leader:
        sim.barrier()


def staged_allreduce(sim, nranks):
    for r in range(nranks):
        parity = r % 2
    is_even = parity == 0
    if is_even:
        sim.allreduce(1.0)
