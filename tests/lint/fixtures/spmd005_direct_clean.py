"""SPMD005 clean twin: collectives reached once per superstep by every
rank (a loop over levels is not a loop over ranks)."""


def superstep(sim, converged):
    sim.barrier()
    if not converged:
        sim.allreduce(0.0)


def level_loop(sim, levels):
    for level in range(levels):
        sim.barrier()
