"""Fixed reference work, timed, to correct timings for the machine's speed.

On a shared virtual machine the same ktrace run can take half as long
again from one minute to the next, depending on what other tenants run,
and the slow spells last from seconds to minutes.  A calibration sample
does the same work every time, in the two kinds ktrace spends its time
on: pure-Python extraction of sparse rows from a fixed event list (like
`features.build_matrix`) and gradient steps of logistic regression on a
fixed sparse matrix (like `regression.fit`).  It calls no ktrace code,
so a change to ktrace cannot change it.

The benchmark takes a sample between every two timed pieces of work,
never during one.  A piece's speed ratio is the mean of the samples on
either side of it over REFERENCE_S: how many times slower than the
reference the machine ran just then.  Timings are divided by it, which
states them at the reference speed; the raw timings are kept too.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

# The median sample over the benchmark's tuning runs on the 2-vCPU Xeon
# virtual machine it was written on (tenth percentile 0.137 s, ninetieth
# 0.237 s).  Only ratios of two runs' metrics matter, so the constant
# need not change; it keeps corrected numbers near raw ones.
REFERENCE_S = 0.16

EXTRACT_REPS = 8
EVENTS = 4000
STEPS = 600
ROWS, COLS, DENSITY = 1600, 300, 0.03


class _Event:
    __slots__ = ("student", "question", "kcs", "correct")

    def __init__(self, i: int) -> None:
        self.student = i % 40
        self.question = (i * 7) % 30
        self.kcs = ((i * 3) % 5, (i * 11) % 5)
        self.correct = (i * 13) % 3 > 0


_fixed: tuple | None = None


def _fixed_inputs() -> tuple:
    global _fixed
    if _fixed is None:
        rng = np.random.default_rng(0)
        X = sp.random(ROWS, COLS, density=DENSITY, format="csr", random_state=rng)
        y = (rng.random(ROWS) < 0.5).astype(np.float64)
        _fixed = ([_Event(i) for i in range(EVENTS)], X, y)
    return _fixed


def _extract(events: list[_Event]) -> sp.csr_matrix:
    counts: dict[tuple[int, int], tuple[int, int]] = {}
    indptr, indices, values = [0], [], []
    for e in events:
        row = [(e.question, 1.0)]
        for k in e.kcs:
            seen, right = counts.get((e.student, k), (0, 0))
            row.append((30 + k, math.log1p(seen)))
            row.append((35 + k, math.log1p(right)))
            counts[(e.student, k)] = (seen + 1, right + e.correct)
        row.sort()
        indices.extend(i for i, _ in row)
        values.extend(v for _, v in row)
        indptr.append(len(indices))
    return sp.csr_matrix((np.asarray(values), np.asarray(indices), np.asarray(indptr)),
                         shape=(len(events), 40))


def _descend(X: sp.csr_matrix, y: np.ndarray) -> float:
    w = np.zeros(X.shape[1])
    for _ in range(STEPS):
        z = X @ w
        w -= 1e-3 * (X.T @ (expit(z) - y))
        loss = float(np.sum(np.logaddexp(0.0, z)))
    return loss


def sample() -> float:
    """Wall seconds of one fixed piece of reference work."""
    events, X, y = _fixed_inputs()
    t0 = time.perf_counter()
    for _ in range(EXTRACT_REPS):
        _extract(events)
    _descend(X, y)
    return time.perf_counter() - t0


def speed_ratio(samples: list[float]) -> float:
    """How many times slower than the reference these samples ran."""
    return statistics.fmean(samples) / REFERENCE_S
