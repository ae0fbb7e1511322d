"""A fixed reference computation that tracks the machine's speed.

On a shared virtual machine the same operation on the same inputs can take
20% more or less time from one minute to the next, and runs made one after
another are fast or slow together.  That drift is the host's, not the
program's.  ``SpeedMeter`` runs a fixed unit of work that does not touch
swcopt between the timed operations, for a set share of their time.  The
mean time of a unit over the run measures how fast the machine was while
the run's operations ran; ``scale()`` converts the run's times to what they
would be at the reference speed.

The unit is one HiGHS solve, through ``scipy.optimize.linprog``, of a fixed
sparse LP of 1500 rows and 2000 columns.  Of the candidate units tried (a
Python dict loop, numpy sorts and products, a random gather over a large
array, Python tuple sorting, sparse matrix assembly, a small and this
medium LP), its time over half a minute followed the time of every
workload's operations best.  Its inputs are fixed, so its work is the same
in every run and on every commit.
"""
from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

#: median seconds of one unit on the reference machine (2-vCPU Intel Xeon at
#: 2.1 GHz, Python 3.11.7, numpy 2.4.6, scipy 1.17.1); scaled times are
#: given at this speed
REFERENCE_UNIT_S = 0.25

#: share of the operations' time spent measuring the speed between them
SHARE = 0.1


def _lp():
    c = -np.random.default_rng(0).random(2000)
    A = sparse.random(1500, 2000, density=0.003, random_state=3, format="csr")
    return c, A, np.ones(1500)


class SpeedMeter:
    def __init__(self):
        self._c, self._A, self._b = _lp()
        self._objective = None
        self._owed = 0.0
        self._unit()  # warm-up: the first call pays one-off costs
        self.unit_s: list[float] = []

    def _unit(self) -> None:
        res = linprog(self._c, A_ub=self._A, b_ub=self._b, bounds=(0, 1), method="highs")
        # the unit's result is fixed; a unit that computed something else
        # would measure something else
        if res.status != 0:
            raise RuntimeError(f"calibration LP failed: {res.message}")
        if self._objective is None:
            self._objective = res.fun
        elif res.fun != self._objective:
            raise RuntimeError("calibration LP changed its optimum")

    def pace(self, busy_s: float) -> None:
        """Owe SHARE * busy_s seconds of units, and run units while any
        time is owed: a unit longer than what one short operation owes
        runs after every few operations."""
        self._owed += SHARE * busy_s
        while self._owed > 0:
            start = time.perf_counter()
            self._unit()
            elapsed = time.perf_counter() - start
            self.unit_s.append(elapsed)
            self._owed -= elapsed

    def scale(self) -> float:
        """Factor from this run's times to times at the reference speed."""
        return REFERENCE_UNIT_S * len(self.unit_s) / sum(self.unit_s)
