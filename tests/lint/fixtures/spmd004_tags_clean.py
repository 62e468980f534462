"""SPMD004 clean twin: every tag pairs up; send-only and recv-only
helpers compose into their callers instead of being drivers."""


def drive(sim, nranks):
    for r in range(1, nranks):
        sim.send(r, 0, 1.0, tag="gather")
    for r in range(1, nranks):
        sim.recv(0, r, tag="gather")


def level_loop(sim, nranks, level):
    for r in range(1, nranks):
        sim.send(r, 0, 1.0, tag=("urow", level))


def level_drain(sim, nranks, lvl):
    for r in range(1, nranks):
        sim.recv(0, r, tag=("urow", lvl))
