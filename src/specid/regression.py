"""Least-squares model fitting with a BIC score per model.

Fits are computed from the normal equations via Cholesky factors of the Gram
matrix; a Workspace precomputes the inner products of a candidate pool against
one observation vector so that subset fits cost O(k^2) and one-regressor
extensions update the parent factor instead of refitting.

BIC convention (Gaussian errors, variance profiled out):

    bic = n * ln(max(rss, RSS_FLOOR) / n) + k * ln(n)

where k counts the regressors, the intercept when present, and the noise
variance. The model log likelihood used for averaging is -bic / 2.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


def scipy_linalg_module(name: str):
    """scipy.linalg's compiled module `name` (`_flapack`, `_fblas`), loaded from its file.

    scipy/linalg/__init__.py is not run: through scipy._lib it imports
    numpy.f2py, numpy.testing and numpy.ma, which no fit uses, and doubles a
    process's start-up. The module is loaded under its dotted name, so a later
    `import scipy.linalg` reuses it, and its functions are the very objects
    scipy.linalg.lapack and scipy.linalg.blas export.
    """
    dotted = "scipy.linalg." + name
    if dotted in sys.modules:
        return sys.modules[dotted]
    scipy = importlib.util.find_spec("scipy")  # finds the folder; imports nothing
    folder = os.path.join(scipy.submodule_search_locations[0], "linalg") if scipy else ""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(dotted, path)
            module = sys.modules[dotted] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError("specid needs scipy: no compiled %s found" % dotted)


lapack = scipy_linalg_module("_flapack")

RSS_FLOOR = 1e-300
CONDITION_LIMIT = 1e10
PIVOT_TOL = 1e-14  # a new column whose pivot is below this share of its norm is dependent


def bic_from_parts(rss: float, n_obs: int, n_regressors: int, has_intercept: bool) -> float:
    """The BIC of a least-squares fit, from its summary numbers."""
    if n_obs <= 0:
        raise InputError("n_obs must be positive, got %r" % n_obs)
    k = n_regressors + (1 if has_intercept else 0) + 1
    return n_obs * math.log(max(rss, RSS_FLOOR) / n_obs) + k * math.log(n_obs)


def flagged(condition):
    """Degenerate: condition (never negative) NaN or above CONDITION_LIMIT; float or array."""
    return (condition > CONDITION_LIMIT) | (condition != condition)  # no numpy call on a float


@dataclass(frozen=True, eq=False)
class RegressionModel:
    """One fitted subset model.

    `condition` is a 2-norm-style estimate of the design's condition number;
    models above CONDITION_LIMIT are flagged (coefficients still returned) and
    search strategies discard them. `coefficients` is read-only and never
    shares memory with an array the caller holds. A Workspace attaches
    `_state` = (workspace, candidate indices, Cholesky factor, z vector), the
    factor and z None when the fit has none to extend.
    """

    regressors: tuple
    coefficients: np.ndarray
    intercept: float | None
    rss: float
    n_obs: int
    bic: float
    condition: float
    condition_flag: bool
    _state: object = field(default=None, repr=False)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self._state is None:  # a Workspace hands over a fresh read-only array
            coef = np.array(self.coefficients, dtype=np.float64)
            coef.flags.writeable = False
            object.__setattr__(self, "coefficients", coef)
        regressors = tuple(self.regressors)
        object.__setattr__(self, "regressors", regressors)
        object.__setattr__(self, "_key", tuple(sorted(regressors)))

    @property
    def size(self) -> int:
        return len(self.regressors)

    def key(self) -> tuple:
        """Order-free identity of the regressor subset."""
        return self._key


@dataclass(frozen=True)
class ModelPrior:
    """Prior over models: uniform, or a positive weight per model size.

    `size_weights[s - 1]` is the (unnormalized) weight of any model with s
    regressors; the intercept does not count toward size.
    """

    size_weights: tuple | None = None

    def __post_init__(self):
        if self.size_weights is not None:
            weights = tuple(float(w) for w in self.size_weights)
            if not weights:
                raise InputError("size_weights must not be empty")
            if any(not math.isfinite(w) or w <= 0 for w in weights):
                raise InputError("size weights must be positive and finite: %r" % (weights,))
            object.__setattr__(self, "size_weights", weights)

    @classmethod
    def uniform(cls) -> "ModelPrior":
        return cls()

    def log_weight(self, size: int) -> float:
        if self.size_weights is None:
            return 0.0
        if not 1 <= size <= len(self.size_weights):
            raise InputError("no prior weight for model size %d (have 1..%d)"
                             % (size, len(self.size_weights)))
        return math.log(self.size_weights[size - 1])


class Workspace:
    """Inner products of a fixed candidate pool against one observation vector.

    Column j of `X` is the candidate named `names[j]`. When `with_intercept`
    is set, a constant column is implicitly prepended to every design and its
    coefficient reported separately; the intercept is never a candidate.

    One exact-fit kernel serves every caller. `_factor` fits one subset
    from the Gram matrix and returns (beta, rss, condition, chol, zvec),
    beta holding the intercept first when there is one. `_fit_rows` fits a
    chunk of subsets into arrays: each row grows its parent's factor by one
    column, or goes through `_factor` when it has no parent, its parent no
    factor, or its new column is dependent. Only the LAPACK calls and dot
    products that set a fit's bits run once per row; the gathers and writes
    around them run once per chunk. `fit_subset` and `extend` (a chunk of
    one row) wrap the parts in a RegressionModel; the searches keep the
    arrays.
    """

    def __init__(self, y, X, names=None, with_intercept: bool = False):
        y = np.asarray(y, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] == 0:
            raise InputError("X must be 2-D with at least one column, got shape %r"
                             % (X.shape,))
        if y.ndim != 1 or y.size != X.shape[0]:
            raise InputError("y has length %d but X has %d rows"
                             % (y.size, X.shape[0]))
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise InputError("y and X must be finite")
        if names is None:
            names = tuple("x%d" % j for j in range(X.shape[1]))
        else:
            names = tuple(str(n) for n in names)
            if len(names) != X.shape[1]:
                raise InputError("%d names for %d columns" % (len(names), X.shape[1]))
            if len(set(names)) != len(names):
                raise InputError("regressor names must be unique")
        self.y = y
        self.X = X
        self.names = names
        self.with_intercept = bool(with_intercept)
        self.n_obs = y.size
        off = 1 if self.with_intercept else 0
        aug = np.column_stack([np.ones(self.n_obs), X]) if off else X
        self.gram = aug.T @ aug
        self.xty = aug.T @ y
        self.yty = float(y @ y)
        self._off = off

    @property
    def n_candidates(self) -> int:
        return len(self.names)

    def _check_size(self, n_sel: int):
        k = n_sel + self._off + 1
        if k >= self.n_obs:
            raise InputError("model with %d parameters needs more than %d observations"
                             % (k, self.n_obs))

    def _design(self, sel) -> np.ndarray:
        cols = self.X[:, list(sel)]
        if self._off:
            cols = np.column_stack([np.ones(self.n_obs), cols])
        return cols

    def _design_index(self, sel) -> np.ndarray:
        """Rows and columns of the Gram matrix that the design of `sel` spans."""
        return np.array(([0] + [j + 1 for j in sel]) if self._off else sel, dtype=np.intp)

    def _design_rows(self, sel: np.ndarray) -> np.ndarray:
        """_design_index of each row of the index matrix `sel`."""
        if not self._off:
            return sel
        return np.column_stack([np.zeros(len(sel), dtype=np.intp), sel + 1])

    def _model(self, sel, beta, rss, cond, chol, zvec) -> RegressionModel:
        sel = tuple(sel)
        coefficients = beta[1:].copy() if self._off else beta  # one array per model
        coefficients.flags.writeable = False
        names = self.names
        return RegressionModel(
            regressors=tuple([names[j] for j in sel]),
            coefficients=coefficients,
            intercept=float(beta[0]) if self._off else None,
            rss=rss,
            n_obs=self.n_obs,
            bic=bic_from_parts(rss, self.n_obs, len(sel), self.with_intercept),
            condition=float(cond),
            condition_flag=bool(flagged(cond)),
            _state=(self, sel, chol, zvec),
        )

    def fit_subset(self, sel) -> RegressionModel:
        """Fit the candidates at indices `sel` (plus the intercept if any)."""
        sel = tuple(int(j) for j in sel)
        if not sel:
            raise InputError("a model needs at least one regressor")
        if len(set(sel)) != len(sel):
            raise InputError("repeated regressor indices: %r" % (sel,))
        if any(not 0 <= j < self.n_candidates for j in sel):
            raise InputError("regressor index out of range: %r" % (sel,))
        self._check_size(len(sel))
        return self._model(sel, *self._factor(sel))

    def extend(self, parent: RegressionModel, j: int) -> RegressionModel:
        """Fit parent's regressors plus candidate j by updating its factor.

        A parent without a factor (a degenerate fit) is refitted from the Gram
        matrix instead.
        """
        st = parent._state
        if st is None or st[0] is not self:
            raise InputError("parent model was not fitted from this workspace")
        _, psel, pchol, pzvec = st
        j = int(j)
        sel = psel + (j,)
        if j in psel:
            raise InputError("regressor %r is already in the model" % self.names[j])
        if not 0 <= j < self.n_candidates:
            raise InputError("regressor index out of range: %r" % j)
        if pchol is None:
            return self.fit_subset(sel)
        self._check_size(len(sel))
        m = len(sel) + self._off
        out = (np.empty((1, m)), np.empty(1), np.empty(1), np.empty((1, m, m)), np.empty((1, m)))
        self._fit_rows(np.array([sel]), out, (pchol.T[None], pzvec[None], np.array([parent.rss])))
        beta, rss, cond, chol, zvec = (column[0] for column in out)
        grown = not math.isnan(chol[0, 0])
        return self._model(sel, beta, float(rss), float(cond),
                           chol.T if grown else None, zvec if grown else None)

    def _factor(self, sel) -> tuple:
        """Fit the valid, size-checked indices `sel` from the Gram matrix."""
        didx = self._design_index(sel)
        # LAPACK flags positionally here and below: f2py's keyword parsing costs per call
        chol, info = lapack.dpotrf(self.gram.take(didx, 0).take(didx, 1), 1)
        if info != 0:
            return self._fallback(sel)
        zvec, _ = lapack.dtrtrs(chol, self.xty.take(didx), 1)
        beta, _ = lapack.dtrtrs(chol, zvec, 1, 1)
        rss = max(self.yty - float(zvec @ zvec), 0.0)
        return beta, rss, _condition(chol), chol, zvec

    def _fit_rows(self, sel, out, parents=None) -> None:
        """Fit each row of the valid, size-checked index rows `sel` into `out`.

        `out` is (beta, rss, condition, chol, zvec), arrays of len(sel) rows
        written in place; chol[i] is row i's factor transposed, so chol[i].T
        is the Fortran-ordered factor LAPACK takes uncopied, and chol[i] and
        zvec[i] are NaN for a fit without a factor. Without `parents` every row
        is fitted by _factor. `parents` is (chol, zvec, rss) of each row's
        parent, sel[i] less its last column, in the same layout; row i then
        grows that factor by the last column, as extend does, unless the
        parent has none or the column is dependent.
        """
        beta, rss, condition, chol, zvec = out
        refit = []
        if parents is None:
            refit = range(len(sel))
        else:
            pchol, pzvec, prss = parents
            m = pchol.shape[1]
            design = self._design_rows(sel)  # each row's Gram indices, its new column last
            dj = design[:, -1]
            # the new column's Gram entries against each parent's design, solved in place
            cross = self.gram[design[:, :-1], dj[:, None]]
            grown = []  # each row's new diagonal entry, z entry and rss; NaN when refitted
            for i, w, factor, z, r, g, x, bare in zip(
                    range(len(sel)), cross, pchol.transpose(0, 2, 1), pzvec, prss.tolist(),
                    self.gram[dj, dj].tolist(), self.xty[dj].tolist(),
                    np.isnan(pchol[:, 0, 0]).tolist()):
                if not bare:
                    lapack.dtrtrs(factor, w, 1, 0, 0, m, 1)
                    pivot = g - float(w.dot(w))
                    if not (pivot <= 0 or pivot <= PIVOT_TOL * g):
                        root = math.sqrt(pivot)
                        znew = (x - float(w.dot(z))) / root
                        grown.append((root, znew, max(r - znew * znew, 0.0)))
                        continue
                refit.append(i)  # no parent factor, or a numerically dependent column
                grown.append((math.nan,) * 3)
            roots, znews, rss[:] = zip(*grown)
            chol[:, :m, :m] = pchol
            chol[:, :m, m] = cross
            chol[:, m, :m] = 0.0
            chol[:, m, m] = roots
            zvec[:, :m] = pzvec
            zvec[:, m] = znews
            beta[:] = zvec
            conds = []
            for factor, b, root in zip(chol.transpose(0, 2, 1), beta, roots):
                if root == root:  # not NaN: a grown row
                    lapack.dtrtrs(factor, b, 1, 1, 0, m + 1, 1)
                    conds.append(_condition(factor))
                else:
                    conds.append(math.nan)
            condition[:] = conds
        for i in refit:
            beta[i], rss[i], condition[i], factor, z = self._factor(sel[i].tolist())
            if factor is None:
                chol[i] = zvec[i] = math.nan
            else:
                chol[i] = factor.T
                zvec[i] = z

    def _fallback(self, sel) -> tuple:
        """Rank-deficient design: minimum-norm solution, flagged (no factor)."""
        design = self._design(sel)
        beta, _, _, _ = np.linalg.lstsq(design, self.y, rcond=None)
        resid = self.y - design @ beta
        return beta, max(float(resid @ resid), 0.0), math.inf, None, None


def _condition(chol: np.ndarray) -> float:
    """Condition estimate of the design via its Cholesky factor."""
    rcond, info = lapack.dtrcon(chol, '1', 'L', 'N')
    if info != 0 or rcond <= 0:
        return math.inf
    return 1.0 / rcond


def fit(y, X, names=None, with_intercept: bool = False) -> RegressionModel:
    """Least-squares fit of y on every column of X.

    Returns the fitted model with its BIC; degenerate designs are fitted with
    a minimum-norm solution and flagged rather than raised.
    """
    ws = Workspace(y, X, names, with_intercept)
    return ws.fit_subset(range(ws.n_candidates))


def check_residual(model: RegressionModel) -> float:
    """Max |column . residual| scaled by column and response norms.

    Diagnostic for the normal-equations solution; near zero for healthy fits.
    """
    if model._state is None:
        raise InputError("model carries no fit state")
    ws, sel = model._state[:2]
    design = ws._design(sel)
    beta = model.coefficients if model.intercept is None \
        else np.concatenate([[model.intercept], model.coefficients])
    resid = ws.y - design @ beta
    ynorm = max(float(np.linalg.norm(ws.y)), RSS_FLOOR)
    worst = 0.0
    for col in design.T:
        cnorm = max(float(np.linalg.norm(col)), RSS_FLOOR)
        worst = max(worst, abs(float(col @ resid)) / (cnorm * ynorm))
    return worst
