"""DET002 bad twin: unordered iteration inside a communicating function."""


def drain(sim, plan):
    for (src, dst), nodes in plan.items():
        sim.send(src, dst, 1.0, tag="halo")
    return [k for k in plan.keys()]


def ghosts_loop(sim):
    ghosts = {3, 1, 2}
    for g in ghosts:
        sim.recv(0, g, tag="halo")
