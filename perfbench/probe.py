"""Core speed probe: two small fixed jobs, timed in this thread's CPU time.

The jobs are a pure-Python loop and a 160 x 160 matrix product, the two
kinds of work specid's workloads spend their time on. perfbench/run.py runs
a few rounds in its own process just before and just after each child, on
the core the child runs on, so the measured speed depends on the machine and
not on the program under test. One round takes about 1 ms.
"""

import statistics
import time

import numpy as np


class Probe:
    """The jobs' fixed inputs, allocated once."""

    def __init__(self):
        self.matrix = np.random.default_rng(0).random((160, 160))

    def rounds(self, count: int) -> list:
        """`count` rounds of (python s, blas s)."""
        samples = []
        for _ in range(count):
            python = python_job()
            start = time.thread_time()
            self.matrix @ self.matrix
            samples.append((python, time.thread_time() - start))
        return samples

    @staticmethod
    def medians(samples) -> tuple:
        return tuple(statistics.median(s[k] for s in samples) for k in range(2))


def python_job() -> float:
    """CPU seconds of a fixed pure-Python loop."""
    start = time.thread_time()
    total = 0
    for i in range(10_000):
        total += i * i
    return time.thread_time() - start
