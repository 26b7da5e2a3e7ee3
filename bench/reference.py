"""A fixed reference loop that measures how fast the machine runs right now.

The shared virtual CPUs this benchmark was sized on change speed by up to
about 2x, in spells that last from tens of milliseconds to many minutes
(bench/README.md). The slow-down is the same for all pure-Python code: a
geowl verdict divided by the reference loop timed next to it kept its ratio
within 6% while both their medians moved 1.7x. So every timed sample is
scaled by REF_S / (time of the reference loop next to it): the end-to-end
times read as seconds on a machine where this loop takes exactly REF_S.
"""
import time
from fractions import Fraction

REF_S = 1e-3  # nominal time of one reference loop
LOOP = 430  # iterations; about REF_S on a 2 GHz Xeon vCPU at full speed


def reference_s() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, LOOP):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def scaled(seconds: float, *references: float) -> float:
    """`seconds` at reference speed, given reference loops timed next to it."""
    return seconds * REF_S * len(references) / sum(references)
