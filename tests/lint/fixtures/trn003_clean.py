"""TRN003 clean twin: module-level reads and function-local state.

Reading a module constant is transport-safe (every process has the
same copy); a container created inside the function is owned by the
executing process, so mutating it hides nothing.
"""

_TAGS = {"halo": 7}


def tagged_exchange(sim, rank, nbr, val):
    tag = _TAGS["halo"]
    sim.send(rank, nbr, 1.0, tag=tag)
    sim.recv(rank, nbr, tag=tag)
    return val


def local_count(sim, rank, nbr, vals):
    sent = {}
    for i, v in enumerate(vals):
        sim.send(rank, nbr, 1.0, tag=i)
        sim.recv(rank, nbr, tag=i)
        sent[i] = v
    return sent
