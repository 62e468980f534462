"""SPMD004 bad twin: one-sided tags (undrained send, deadlocked recv)."""


def drive(sim, nranks):
    for r in range(1, nranks):
        sim.send(r, 0, 1.0, tag="gather")
    for r in range(1, nranks):
        sim.recv(0, r, tag="scatter")
