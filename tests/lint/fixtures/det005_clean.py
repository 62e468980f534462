"""DET005 clean twin: dropping depends only on the data."""


def threshold_dropping(row, tau):
    for j, val in enumerate(row):
        if abs(val) < tau:
            drop_entry(j, val)  # noqa: F821 - fixture stub
