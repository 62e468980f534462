"""DET002 bad twin: unordered iteration inside a communicating function."""


def drain(sim, plan):
    for (src, dst), nodes in plan.items():
        sim.exchange([(src, dst, 1.0)], tag="halo")
    return [k for k in plan.keys()]


def ghosts_loop(sim):
    ghosts = {3, 1, 2}
    for g in ghosts:
        sim.exchange([(g, 0, 1.0)], tag="halo")
