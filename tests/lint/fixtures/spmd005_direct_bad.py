"""SPMD005 bad twin: a collective guarded by the rank itself, and one
issued inside a per-rank loop."""


def master_only(sim, rank):
    if rank == 0:
        sim.barrier()


def once_per_rank(sim, nranks):
    for r in range(nranks):
        sim.allreduce(0.0)
