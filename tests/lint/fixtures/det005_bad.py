"""DET005 bad twin: RNG draws cross the comm / dropping boundary."""


def noisy_halo(sim, rng, pairs):
    for src, dst in pairs:
        noise = rng.standard_normal()
        sim.send(src, dst, noise, 1, tag=("noise", 0))
    for src, dst in pairs:
        sim.recv(dst, src, tag=("noise", 0))


def random_dropping(rng, row):
    coin = rng.random()
    for j, val in enumerate(row):
        if val:
            drop_entry(j, coin)  # noqa: F821 - fixture stub


def noisy_exchange(sim, rng):
    p = rng.random(4) * 2
    sim.exchange([(0, 1, p, 4)], tag="halo")
