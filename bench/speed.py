"""Machine-speed reference that the reported times are scaled by.

The host this benchmark was built on shares its cores with other tenants,
and its speed drifts by a quarter over minutes: a fixed CPU loop timed in
15 s windows spreads by 10-25 % (interquartile range over median), far
beyond any useful regression bound, while the ratio of a job's time to the
same loop timed next to it spreads by about 4 %.  So the benchmark times
this loop before every job and reports each job's time scaled to a machine
on which the loop takes NOMINAL_S.  The loop touches no multiaxial code, so
a change to the program moves the scaled times exactly as it moves the raw
ones; raw times are kept in the run record beside the scaled ones.
"""

import statistics
import time

ITERATIONS = 40_000
NOMINAL_S = 0.004  # about the loop's median time between jobs on that host
WINDOW = 10  # reference samples taken into account on each side of a job


def reference_s() -> float:
    """Wall time of one fixed pure-Python integer loop.

    It allocates nothing that outlives an iteration, so the heap a job
    leaves behind does not change its time; only the machine does.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def scale(raw: list[float], refs: list[float]) -> list[float]:
    """Scale raw[i] by the reference samples around it.

    refs[i] is timed just before raw[i] and refs[len(raw)] just after the
    last one; each time is scaled by the median of the WINDOW samples
    before it and the WINDOW after it, which spans a few seconds: short
    enough to follow the host's drift, long enough to ignore a single
    interrupted sample.
    """
    return [
        t * NOMINAL_S / statistics.median(refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        for i, t in enumerate(raw)
    ]
