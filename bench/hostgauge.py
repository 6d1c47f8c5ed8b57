"""Host speed gauge: a fixed numpy kernel timed next to every measured step.

The shared VM this benchmark was tuned on drifts in speed by up to 2x over
minutes. The same ascent start took 5.5 s to 9.8 s, and both vCPUs slowed
together. The gauge streams a table of the L=8 Workspace basis shape, as the
workloads' hot loops do. It is read before the set-up, after it and after
every operation; the median reading over NOMINAL_S is the run's host factor,
and the run's times are divided by it. The gauge is fixed benchmark code, so
a faster commit still shows as a lower scaled time.
"""

import statistics
import time

import numpy as np

TABLE_SHAPE = (81, 187_272)   # (L+1)^2 rows by slice nodes of Workspace(8)
REPEATS = 12                  # matvecs per reading, about 0.14 s
READINGS = 2                  # readings per call of read()
NOMINAL_S = 0.135             # one reading on the tuning VM at its usual speed


class HostGauge:
    """Holds the gauge table (121 MB, resident for the whole run) and its readings."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal(TABLE_SHAPE)
        self.vector = rng.standard_normal(TABLE_SHAPE[0])
        self.readings: list[float] = []

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    def read(self):
        for _ in range(READINGS):
            t0 = time.perf_counter()
            for _ in range(REPEATS):
                self.vector @ self.table
            self.readings.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Host slowness over the run so far: median reading over NOMINAL_S."""
        return statistics.median(self.readings) / NOMINAL_S
