"""DET005 bad twin: an RNG draw decides what is dropped."""


def random_dropping(rng, row):
    coin = rng.random()
    for j, val in enumerate(row):
        if val:
            drop_entry(j, coin)  # noqa: F821 - fixture stub
