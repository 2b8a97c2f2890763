"""From a retained ModelSet to posteriors, inclusion reports, and class trees.

Model weights are exp(-(bic - bic_min)/2) times the prior weight, normalized
in shifted-log form. A class node's probability is the summed posterior of
every model containing at least one spectrum from the node's member set; a
model with two members of the class still counts once. Sibling classes may
therefore sum above their parent (one model can hit several siblings) and
are never renormalized. Every posterior sum selects models by an incidence
matrix and adds their terms in model order, one at a time from +0.0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ClassHierarchy
from .errors import InputError
from .regression import ModelPrior
from .search import ModelSet


class UnknownRegressorWarning(UserWarning):
    """A probability was requested for a name outside the candidate pool."""


@dataclass(frozen=True, eq=False)
class ModelPosterior:
    """Normalized probabilities over the models of a ModelSet.

    `incidence[i, j]` is True when model i holds candidate j; `_coefficients`
    lists its True entries column by column, then each intercept (NaN: none).
    """

    models: ModelSet
    probabilities: np.ndarray
    prior: ModelPrior = field(default_factory=ModelPrior.uniform)
    incidence: np.ndarray = field(init=False, repr=False)
    _coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        models = self.models
        probs = np.asarray(self.probabilities, dtype=np.float64).copy()
        if probs.ndim != 1 or probs.size != len(models):
            raise InputError("need one probability per model (%d models, %d given)"
                             % (len(models), probs.size))
        if np.any(probs < 0) or np.any(probs > 1):
            raise InputError("model probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise InputError("model probabilities sum to %r, not 1" % float(probs.sum()))
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        held = models.index >= 0
        rows, _ = np.nonzero(held)  # model by model, each in its regressor order
        cols = models.index[held]
        incidence = np.zeros((len(models), len(models.candidates)), dtype=bool, order="F")
        incidence[rows, cols] = True
        incidence.flags.writeable = False
        values = np.empty(cols.size + len(models))
        values[:cols.size] = models.coefficients[held][np.argsort(cols, kind="stable")]
        values[cols.size:] = models.intercepts
        object.__setattr__(self, "incidence", incidence)
        object.__setattr__(self, "_coefficients", values)


@dataclass(frozen=True, eq=False)
class InclusionReport:
    """Per-regressor inclusion probability and model-averaged coefficient.

    Coefficients are averaged over all models with the model posterior as
    weights (a model not containing the regressor contributes zero), so a
    rarely included regressor has a small averaged coefficient; no division
    by the inclusion probability is applied.
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
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "coefficients", coefs)

    def probability_of(self, name: str) -> float:
        return float(self.probabilities[self.names.index(name)])

    def coefficient_of(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])


@dataclass(frozen=True, eq=False)
class TreeNode:
    name: str
    probability: float
    children: tuple = ()

    def __post_init__(self):
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


def normalize(models: ModelSet, prior: ModelPrior = None) -> ModelPosterior:
    """Posterior P(M) from BIC weights and the prior, in shifted-log form."""
    prior = prior or ModelPrior.uniform()
    bics = models.bic
    if not np.all(np.isfinite(bics)):
        raise InputError("cannot normalize: non-finite BIC in model set")
    sizes, first, inverse = np.unique(models.sizes, return_index=True, return_inverse=True)
    log_prior = np.empty(sizes.size)
    for i in np.argsort(first).tolist():  # in model order, so the first bad size raises
        log_prior[i] = prior.log_weight(int(sizes[i]))
    logw = -bics / 2.0 + log_prior[inverse]
    weights = np.exp(logw - logw.max())
    return ModelPosterior(models, weights / weights.sum(), prior)


def _ordered_sum(terms) -> float:
    """Sum in order, one addition at a time from +0.0, as a loop would add."""
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def inclusion_probability(posterior: ModelPosterior, regressor: str) -> float:
    """Summed posterior of the models containing `regressor`."""
    if regressor not in posterior.models.candidates:
        warnings.warn("regressor %r is not in the candidate library" % regressor,
                      UnknownRegressorWarning, stacklevel=2)
    return group_probability(posterior, [regressor])


def averaged_coefficients(posterior: ModelPosterior) -> InclusionReport:
    """Inclusion probability and averaged coefficient for every candidate."""
    p, columns = posterior.probabilities, posterior.incidence.T
    *values, intercepts = np.split(posterior._coefficients,
                                   np.cumsum(np.count_nonzero(columns, axis=1)))
    held = ~np.isnan(intercepts)
    probs = [_ordered_sum(p[c]) for c in columns]
    coefs = [_ordered_sum(p[c] * v) for c, v in zip(columns, values)]
    return InclusionReport(posterior.models.candidates, probs, coefs,
                           _ordered_sum(p[held] * intercepts[held]) if held.any() else None)


def group_probability(posterior: ModelPosterior, names) -> float:
    """Summed posterior of models containing any regressor in `names`.

    The set-membership rule: a model with several group members counts once.
    """
    group = frozenset(names)
    held = posterior.incidence[:, [name in group for name in posterior.models.candidates]]
    return _ordered_sum(posterior.probabilities[held.any(axis=1)])


def class_probability(posterior: ModelPosterior, hierarchy: ClassHierarchy,
                      node) -> float:
    """Probability that the pixel contains a material of the given class."""
    return group_probability(posterior, hierarchy.members(node))


def member_probability_sum(posterior: ModelPosterior, hierarchy: ClassHierarchy,
                           node) -> float:
    """Diagnostic: sum of member inclusion probabilities.

    Equals class_probability when every model holds at most one member of the
    class; exceeds it (and may pass 1) when models bundle same-class spectra.
    """
    members = hierarchy.members(node)
    counts = np.count_nonzero(posterior.incidence[
        :, [name in members for name in posterior.models.candidates]], axis=1)
    return _ordered_sum(posterior.probabilities[counts > 0] * counts[counts > 0])


def build_tree(posterior: ModelPosterior, hierarchy: ClassHierarchy) -> IdentificationTree:
    """Annotate every hierarchy node with its class probability.

    Children at each branch are ordered ascending by probability (ties by
    name); values are absolute, never renormalized within a sibling group.
    """

    def build(path) -> TreeNode:
        kids = [build(child) for child in hierarchy.children(path)]
        kids.sort(key=lambda n: (n.probability, n.name))
        return TreeNode(hierarchy.label(path),
                        class_probability(posterior, hierarchy, path),
                        tuple(kids))

    return IdentificationTree(build(()))
