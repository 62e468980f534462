"""SPMD003 clean twin: post and drain loops share one iterable."""


def drive(sim, nranks):
    for r in range(1, nranks):
        sim.send(r, 0, 1.0, tag="halo")
    for r in range(1, nranks):
        sim.recv(0, r, tag="halo")
