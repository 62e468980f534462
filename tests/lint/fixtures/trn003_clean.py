"""TRN003 clean twin: module-level reads and function-local state.

Reading a module constant is transport-safe (every process has the
same copy); a container created inside the function is owned by the
executing process, so mutating it hides nothing.
"""

_TAGS = {"halo": 7}


def tagged_exchange(sim, rank, nbr, val):
    tag = _TAGS["halo"]
    sim.exchange([(rank, nbr, 1.0)], tag=tag)
    return val


def local_count(sim, rank, nbr, vals):
    sent = {}
    for i, v in enumerate(vals):
        sim.exchange([(rank, nbr, 1.0)], tag=i)
        sent[i] = v
    return sent
