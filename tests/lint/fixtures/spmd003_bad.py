"""SPMD003 bad twin: the drain loop runs over different bounds."""


def drive(sim, nranks):
    for r in range(1, nranks):
        sim.send(r, 0, 1.0, tag="halo")
    for r in range(nranks):
        sim.recv(0, r, tag="halo")
