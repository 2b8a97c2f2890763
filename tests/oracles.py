"""One-value reference computations that the tests hold the pipeline's
vectorized kernels to: ACE for one pixel, and the multiplicity-counting
member sum of a class."""

import numpy as np

from conftest import model_rows
from specid.detection import BackgroundStats, _values_on
from specid.errors import NumericalError


def ace_score(pixel, target, stats: BackgroundStats) -> float:
    """Signed whitened cosine between pixel and target, in [-1, 1]."""
    x = stats.whiten(_values_on(stats, pixel, "pixel"))
    t = stats.whiten(_values_on(stats, target, "target"))
    xn = float(np.linalg.norm(x))
    tn = float(np.linalg.norm(t))
    if xn == 0.0 or tn == 0.0:
        raise NumericalError("whitened pixel or target has zero norm")
    return float(np.clip((t @ x) / (tn * xn), -1.0, 1.0))


def reference_member_probability_sum(posterior, hierarchy, node) -> float:
    """Sum of the class's member inclusion probabilities: each model's
    posterior times how many members it holds.

    Equals class_probability when every model holds at most one member of the
    class; exceeds it (and may pass 1) when models bundle same-class spectra.
    """
    members = hierarchy.members(node)
    return float(sum(p * len(members.intersection(m.regressors))
                     for m, p in zip(model_rows(posterior.models), posterior.probabilities)
                     if not members.isdisjoint(m.regressors)))
