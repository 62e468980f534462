"""DET002 clean twin: sorted() message lists, or no communication at all."""


def drain(sim, plan):
    sim.exchange([(src, dst, 1.0) for (src, dst), _nodes in sorted(plan.items())], tag="halo")


def pure_bookkeeping(plan):
    # no comm in this function: dict-view iteration is fine here
    return {k: len(v) for k, v in plan.items()}
