"""DET002 clean twin: sorted() drains, or no communication at all."""


def drain(sim, plan):
    for (src, dst), nodes in sorted(plan.items()):
        sim.send(src, dst, 1.0, tag="halo")
    for (src, dst), _nodes in sorted(plan.items()):
        sim.recv(dst, src, tag="halo")


def pure_bookkeeping(plan):
    # no comm in this function: dict-view iteration is fine here
    return {k: len(v) for k, v in plan.items()}
