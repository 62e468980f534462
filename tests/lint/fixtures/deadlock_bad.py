"""SPMD004 bad twin: drain posted one level ahead of its send.

The forward sweep posts ``("fwd", lvl)`` but drains ``("fwd", lvl + 1)``
— on the first level no matching message is in flight and the simulator
deadlocks.  A barrier is then reached with the stale messages still
undrained, and the function exits with posts outstanding.
"""


def levelled_sweep(sim, plan, nranks):
    for lvl, pairs in enumerate(plan):
        for src, dst in pairs:
            sim.send(src, dst, 1.0, tag=("fwd", lvl))
        for src, dst in pairs:
            sim.recv(dst, src, tag=("fwd", lvl + 1))
        sim.barrier()
