"""Built-in rule families — importing this package registers them all."""

from . import breakdown, determinism, parity, perf, transport  # noqa: F401
