"""Time one set-up in a fresh interpreter and print the seconds it took.

    python3 bench/fresh_setup.py <workload> <seed> <scratch directory>

The clock starts before any module of geowl or of the benchmark is
imported, so the figure covers the first import of geowl and geowl.cli
(with the standard-library modules they pull in), the seeded inputs, their
reference verdicts and the JSON pair files. It prints those seconds and
three timings of the reference loop (bench/reference.py) made right after.
bench/run.py starts this script several times per run, scales each set-up
to reference speed and reports the median as `setup_s`.
"""
import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import workloads  # noqa: E402  (imports geowl and geowl.cli)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
seconds = time.perf_counter() - START

import reference  # noqa: E402

# the reference loop, timed just after the set-up, scales it to reference speed
print(seconds, *(reference.reference_s() for _ in range(3)))
