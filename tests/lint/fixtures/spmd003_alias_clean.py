"""SPMD003 FP-reduction twin: drain loop iterable aliased via a copy.

Structural comparison of the two loop iterables sees ``pairs`` vs
``pairs2`` and used to flag the drain; reaching definitions resolve the
unique ``pairs2 = pairs`` alias, so the upgraded rule matches them.
"""


def exchange(sim, pairs):
    for src, dst in pairs:
        sim.send(src, dst, 1, tag=("halo", 0))
    pairs2 = pairs
    for src, dst in pairs2:
        sim.recv(dst, src, tag=("halo", 0))
