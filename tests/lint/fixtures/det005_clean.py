"""DET005 clean twin: payloads and dropping depend only on the data."""


def halo(sim, pairs, values):
    for src, dst in pairs:
        sim.send(src, dst, values[src], 1, tag=("halo", 1))
    for src, dst in pairs:
        sim.recv(dst, src, tag=("halo", 1))


def threshold_dropping(row, tau):
    for j, val in enumerate(row):
        if abs(val) < tau:
            drop_entry(j, val)  # noqa: F821 - fixture stub


def halo_exchange(sim, values):
    sim.exchange([(0, 1, values[0], 4)], tag="halo")
