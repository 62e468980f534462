"""SPMD004 clean twin: every level drains exactly what it posted."""


def levelled_sweep(sim, plan, nranks):
    for lvl, pairs in enumerate(plan):
        for src, dst in pairs:
            sim.send(src, dst, 1.0, tag=("fwd", lvl))
        for src, dst in pairs:
            sim.recv(dst, src, tag=("fwd", lvl))
        sim.barrier()
