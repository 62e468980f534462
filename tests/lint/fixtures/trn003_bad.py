"""TRN003 bad twin: hidden shared state written in rank-executed code.

``cache_halo`` mutates a module-level dict; ``count_messages`` writes
an enclosing-scope counter through ``nonlocal``.  Both are shared
memory under the simulator and silently per-process under a real
transport.
"""

_CACHE = {}


def cache_halo(sim, rank, nbr, key, val):
    sim.exchange([(rank, nbr, 1.0)], tag="halo")
    _CACHE[key] = val
    return _CACHE[key]


def count_messages(sim, rank, nbr, vals):
    sent = 0

    def post(v):
        nonlocal sent
        sim.exchange([(rank, nbr, float(v))], tag="m")
        sent += 1

    for v in vals:
        post(v)
    return sent
