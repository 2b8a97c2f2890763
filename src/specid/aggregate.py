"""From a retained ModelSet to posteriors, inclusion reports, and class trees.

Model weights are exp(-(bic - bic_min)/2) times the prior weight, normalized
in shifted-log form. A class node's probability is the summed posterior of
every model containing at least one spectrum from the node's member set; a
model with two members of the class still counts once. Sibling classes may
therefore sum above their parent (one model can hit several siblings) and
are never renormalized. Every posterior sum is one kernel, `_sums`: it adds
each column's terms p_i * w_i in model order from +0.0, SUM_ROWS models at a
time. An absent term has w_i = +0.0, so p_i * w_i = +0.0 (p_i >= 0), and adding
+0.0 to a total begun at +0.0 leaves it as it was: each sum equals the loop's.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ClassHierarchy, ordered_sum
from .errors import InputError
from .search import ModelSet


class UnknownRegressorWarning(UserWarning):
    """A probability was requested for a name outside the candidate pool."""


@dataclass(frozen=True, eq=False)
class ModelPosterior:
    """Normalized probabilities over the models of a ModelSet."""

    models: ModelSet
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64).copy()
        if probs.ndim != 1 or probs.size != len(self.models):
            raise InputError("need one probability per model (%d models, %d given)"
                             % (len(self.models), probs.size))
        if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails both comparisons
            raise InputError("model probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise InputError("model probabilities sum to %r, not 1" % float(probs.sum()))
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True, eq=False)
class InclusionReport:
    """Per-regressor inclusion probability and model-averaged coefficient.

    Coefficients are averaged over all models with the model posterior as
    weights (a model not containing the regressor contributes zero), so a
    rarely included regressor has a small averaged coefficient; no division
    by the inclusion probability is applied. Probabilities and coefficients
    must be finite, so results.json holds them as strict JSON.
    """

    names: tuple
    probabilities: np.ndarray
    coefficients: np.ndarray
    intercept: float | None = None

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        coefs = np.asarray(self.coefficients, dtype=np.float64)
        if not (len(self.names) == probs.size == coefs.size):
            raise InputError("names, probabilities, and coefficients must align")
        if not (np.isfinite(probs).all() and np.isfinite(coefs).all()):
            raise InputError("inclusion probabilities and coefficients must be finite")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "coefficients", coefs)

    def probability_of(self, name: str) -> float:
        return float(self.probabilities[self.names.index(name)])

    def coefficient_of(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])


@dataclass(frozen=True, eq=False)
class TreeNode:
    """A class and its probability, a finite number (results.json is strict JSON)."""

    name: str
    probability: float
    children: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.probability, numbers.Real) and math.isfinite(self.probability)):
            raise InputError("class probability must be a finite number, got %r"
                             % (self.probability,))
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True, eq=False)
class IdentificationTree:
    """Class hierarchy annotated with class probabilities; root is the library."""

    root: TreeNode

    def walk(self):
        """Yield (path, node) pairs, root first, children in stored order."""
        stack = [((), self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for child in reversed(node.children):
                stack.append((path + (child.name,), child))


def normalize(models: ModelSet) -> ModelPosterior:
    """Posterior P(M) from BIC weights and models.prior, in shifted-log form."""
    log_prior = np.array([0.0] + [models.prior.log_weight(k)
                                  for k in range(1, int(models.sizes.max()) + 1)])
    # -bic/2 + log prior, less its maximum, exponentiated and divided by its sum,
    # each step in place on one array
    weights = models.bic / -2.0
    weights += log_prior[models.sizes]
    weights -= weights.max()
    np.exp(weights, out=weights)
    weights /= weights.sum()
    return ModelPosterior(models, weights)


SUM_ROWS = 256  # models per block of _sums; a block's weights are SUM_ROWS x columns


def _sums(posterior: ModelPosterior, weights) -> np.ndarray:
    """Column sums of p_i * weights(rows)[i], in model order from +0.0 (core.ordered_sum)."""
    p = posterior.probabilities
    spans = (slice(lo, lo + SUM_ROWS) for lo in range(0, p.size, SUM_ROWS))
    return ordered_sum(p[rows, None] * weights(rows) for rows in spans)


def _group_sums(posterior: ModelPosterior, groups) -> np.ndarray:
    """Per group of names, the summed posterior of the models holding any of them."""
    candidates, index = posterior.models.candidates, posterior.models.index
    # row j marks the groups holding candidate j; the last, all False, is index
    # -1's; so does the last column, an empty group that gives _sums 2 columns
    member = np.array([[name in names for names in groups] + [False] for name in candidates]
                      + [[False] * (len(groups) + 1)])
    return _sums(posterior, lambda rows: np.any(member[index[rows]], axis=1))[:-1]


def inclusion_probability(posterior: ModelPosterior, regressor: str) -> float:
    """Summed posterior of the models containing `regressor`."""
    if regressor not in posterior.models.candidates:
        warnings.warn("regressor %r is not in the candidate library" % regressor,
                      UnknownRegressorWarning, stacklevel=2)
    return group_probability(posterior, [regressor])


def averaged_coefficients(posterior: ModelPosterior) -> InclusionReport:
    """Inclusion probability and averaged coefficient for every candidate."""
    models, n = posterior.models, len(posterior.models.candidates)

    def weights(rows):
        # inclusion 0..n-1, spare n, coefficients n+1..2n, intercept 2n+1; index -1
        # puts its 1.0 on the intercept, written last, and its 0.0 on the spare
        index, intercepts = models.index[rows], models.intercepts[rows]
        w = np.zeros((len(index), 2 * n + 2))
        at = np.arange(len(index))[:, None]
        w[at, index], w[at, index + n + 1] = 1.0, models.coefficients[rows]
        w[:, -1] = np.where(np.isnan(intercepts), 0.0, intercepts)
        return w

    sums = _sums(posterior, weights)
    held = not np.isnan(np.fmin.reduce(models.intercepts))  # fmin skips NaN
    return InclusionReport(models.candidates, sums[:n], sums[n + 1:-1],
                           float(sums[-1]) if held else None)


def group_probability(posterior: ModelPosterior, names) -> float:
    """Summed posterior of models containing any regressor in `names`.

    The set-membership rule: a model with several group members counts once.
    """
    if isinstance(names, str):
        raise InputError("names must be a collection of names, not the string %r" % names)
    return float(_group_sums(posterior, [frozenset(names)])[0])


def class_probability(posterior: ModelPosterior, hierarchy: ClassHierarchy,
                      node) -> float:
    """Probability that the pixel contains a material of the given class."""
    return group_probability(posterior, hierarchy.members(node))


def build_tree(posterior: ModelPosterior, hierarchy: ClassHierarchy) -> IdentificationTree:
    """Annotate every hierarchy node with its class probability.

    Children at each branch are ordered ascending by probability (ties by
    name); values are absolute, never renormalized within a sibling group.
    """
    nodes = hierarchy.nodes()
    sums = _group_sums(posterior, [hierarchy.members(node) for node in nodes])
    probability = dict(zip(nodes, sums.tolist()))

    def build(path) -> TreeNode:
        kids = [build(child) for child in hierarchy.children(path)]
        kids.sort(key=lambda n: (n.probability, n.name))
        return TreeNode(hierarchy.label(path), probability[path], tuple(kids))

    return IdentificationTree(build(()))
