"""Model-space search: exhaustive enumeration, Occam's window beam, and MC3.

All strategies fit subsets of a candidate pool (library spectra or table
columns) against one observation vector and return a ModelSet of fitted,
non-degenerate models sorted by (bic, regressor names). Degenerate (flagged)
models are discarded: their likelihoods are numerically meaningless and
duplicate-regressor designs double-count evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SpectralLibrary, Spectrum
from .errors import AlignmentError, InputError, SearchError
from .regression import RSS_FLOOR, ModelPrior, RegressionModel, Workspace

STRATEGIES = ("exhaustive", "occam", "mc3")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by every strategy.

    window_ratio C defines the Occam window 2*ln(C) in BIC units; models
    worse than the best by more than that are rejected. submodel_exclusion
    additionally drops any retained model when a strict sub-model of it is
    retained with lower BIC (the stricter classic rule; off by default).
    """

    max_size: int = 4
    window_ratio: float = 20.0
    strategy: str = "occam"
    mc3_iterations: int = 20000
    seed: int = 0
    prior: ModelPrior = field(default_factory=ModelPrior.uniform)
    enumeration_cap: int = 2_000_000
    beam_cap: int = 50_000
    submodel_exclusion: bool = False

    def __post_init__(self):
        if self.max_size < 1:
            raise InputError("max_size must be >= 1, got %r" % self.max_size)
        if not self.window_ratio > 1:
            raise InputError("window_ratio must be > 1, got %r" % self.window_ratio)
        if self.strategy not in STRATEGIES:
            raise InputError("strategy must be one of %r, got %r"
                             % (STRATEGIES, self.strategy))
        if self.mc3_iterations < 1:
            raise InputError("mc3_iterations must be >= 1")
        if self.enumeration_cap < 1 or self.beam_cap < 1:
            raise InputError("enumeration_cap and beam_cap must be >= 1")

    @property
    def window(self) -> float:
        return 2.0 * math.log(self.window_ratio)


@dataclass(frozen=True)
class ModelSet:
    """Fitted models retained by one search run.

    `candidates` is the full pool the search drew from, so downstream code
    can tell "never retained" apart from "not a known regressor".
    """

    models: tuple
    best_bic: float
    candidates: tuple
    strategy: str
    strategy_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.models:
            raise SearchError("a ModelSet needs at least one model")
        keys = [m.key() for m in self.models]
        if len(set(keys)) != len(keys):
            raise SearchError("ModelSet contains duplicate regressor sets")
        pool = frozenset(self.candidates)
        if not all(len(set(k)) == len(k) and pool.issuperset(k) for k in keys):
            raise InputError("every model must hold distinct names from the candidates")

    def __len__(self) -> int:
        return len(self.models)


def make_workspace(y, library, with_intercept: bool = False) -> Workspace:
    """Bind an observation to a candidate pool.

    `library` may be a SpectralLibrary (y must be a Spectrum or vector on its
    grid; the library band mask and the pixel's validity mask are applied, no
    intercept in the spectral convention) or an existing Workspace (returned
    as is).
    """
    if isinstance(library, Workspace):
        return library
    if not isinstance(library, SpectralLibrary):
        raise InputError("library must be a SpectralLibrary or Workspace, got %r"
                         % type(library).__name__)
    mask = library.band_mask.copy()
    if isinstance(y, Spectrum):
        if y.grid != library.grid:
            raise AlignmentError(
                "pixel %r is not on the library grid; resample first" % y.name)
        mask &= y.valid_mask()
        yvec = y.values
    else:
        yvec = np.asarray(y, dtype=np.float64)
        if yvec.shape != (len(library.grid),):
            raise InputError("observation length %d does not match %d bands"
                             % (yvec.size, len(library.grid)))
    if not mask.any():
        raise InputError("no usable bands shared by pixel and library")
    return Workspace(yvec[mask], library.matrix()[mask], library.names,
                     with_intercept=with_intercept)


def _checked(ws: Workspace, config: SearchConfig) -> int:
    """Common validation; returns the effective per-model size limit."""
    limit = min(config.max_size, ws.n_candidates)
    if config.prior.size_weights is not None and len(config.prior.size_weights) < limit:
        raise InputError("prior covers sizes 1..%d but search needs up to %d"
                         % (len(config.prior.size_weights), limit))
    return limit


def _finish(pool: dict, ws: Workspace, strategy: str, metadata: dict) -> ModelSet:
    models = sorted(pool.values(), key=lambda m: (m.bic, m.key()))
    if not models:
        raise SearchError("no usable models: every candidate design is degenerate")
    return ModelSet(models=tuple(models), best_bic=models[0].bic,
                    candidates=ws.names, strategy=strategy,
                    strategy_metadata=metadata)


def exhaustive_search(y, library, config: SearchConfig = None) -> ModelSet:
    """Fit every regressor subset of size 1..max_size.

    Refuses to run when the subset count exceeds config.enumeration_cap.
    """
    config = config or SearchConfig(strategy="exhaustive")
    ws = make_workspace(y, library)
    limit = _checked(ws, config)
    p = ws.n_candidates
    total = sum(math.comb(p, k) for k in range(1, limit + 1))
    if total > config.enumeration_cap:
        raise SearchError(
            "exhaustive search over %d candidates up to size %d needs %d fits, "
            "above the cap of %d" % (p, limit, total, config.enumeration_cap))
    pool = {}

    def descend(parent, last):
        for j in range(last + 1, p):
            child = ws.extend(parent, j)
            if not child.condition_flag:
                pool[child.key()] = child
            if child.size < limit:
                descend(child, j)

    for j in range(p):
        model = ws.fit_subset((j,))
        if not model.condition_flag:
            pool[model.key()] = model
        if limit > 1:
            descend(model, j)
    return _finish(pool, ws, "exhaustive", {"fits": total})


def filter_window(models: ModelSet, window: float) -> tuple:
    """Models within `window` BIC units of the set's best, sorted as stored."""
    best = models.best_bic
    return tuple(m for m in models.models if m.bic - best <= window)


# Occam screen: a child's BIC is first scored from its parent's factor in one
# batched solve; only children that may enter the window are fitted exactly.
_SCREEN_CHUNK = 4096    # (parent, candidate) pairs per batched solve
_SCREEN_TOL = 1e-12     # rounding allowed per factor row and unit of parent condition
_SCREEN_MARGIN = 1e-3   # BIC units added to the window before a child is skipped
_PIVOT_TOL = 1e-14      # Workspace.extend's dependence test


def _first_parents(survivors: list, p: int) -> tuple:
    """The distinct children of one level, each with its first generating parent.

    Parent i extended by column j yields the child sel(i) + {j}; a child
    reached from several parents belongs to the first in survivor order.
    Returns the parent and column index arrays of the distinct children.
    """
    sel = np.array([m._state.sel for m in survivors], dtype=np.intp)
    member = np.zeros((len(survivors), p), dtype=bool)
    member[np.arange(len(survivors))[:, None], sel] = True
    parent, col = np.nonzero(~member)  # parent-major, columns ascending
    child = np.column_stack([sel[parent], col])
    child.sort(axis=1)
    order = np.lexsort(child.T[::-1])  # stable: the first parent leads each run
    ranked = child[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    keep = order[first]
    return parent[keep], col[keep]


def _screen(ws: Workspace, survivors: list, parent, col) -> np.ndarray:
    """Lower bounds on the BIC that Workspace.extend gives each (parent, col).

    The child's factor row is one batched forward substitution against the
    parent's Cholesky factor. The bound allows for rounding that grows with
    the parent's condition and the new pivot's cancellation, so an exactly
    fitted child never scores below it; pairs that extend's dependence test
    may send to fit_subset get -inf, so they are always fitted exactly.
    """
    off = 1 if ws.with_intercept else 0
    m = survivors[0]._state.chol.shape[0]
    n = ws.n_obs
    penalty = (m + 2) * math.log(n)  # the parent's terms, the new one, the variance
    chols = np.stack([s._state.chol for s in survivors])
    zvecs = np.stack([s._state.zvec for s in survivors])
    rows = np.array([s._state.design_index() for s in survivors])
    rss = np.array([s.rss for s in survivors])
    # allowed relative rounding of w: a triangular solve's forward error grows
    # with the factor's size and condition
    rho = _SCREEN_TOL * (m + 1) * np.array([s.condition for s in survivors])
    gdiag = np.diagonal(ws.gram)
    out = np.empty(parent.size)
    for lo in range(0, parent.size, _SCREEN_CHUNK):
        pi = parent[lo:lo + _SCREEN_CHUNK]
        dj = col[lo:lo + _SCREEN_CHUNK] + off
        chol = chols[pi]
        cross = ws.gram[rows[pi], dj[:, None]]
        w = np.empty_like(cross)
        for r in range(m):
            dot = np.einsum("ij,ij->i", chol[:, r, :r], w[:, :r])
            w[:, r] = (cross[:, r] - dot) / chol[:, r, r]
        gjj = gdiag[dj]
        pivot = gjj - np.einsum("ij,ij->i", w, w)
        # |w|^2 <= G_jj, |x_j'y| <= sqrt(G_jj y'y) and |z_S|^2 <= y'y bound the
        # rounding of the pivot (err) and of the new z entry (dz)
        err = 3.0 * rho[pi] * gjj
        clear = pivot > _PIVOT_TOL * gjj + err
        with np.errstate(invalid="ignore", divide="ignore"):
            piv_lo = pivot - err
            z = (ws.xty[dj] - np.einsum("ij,ij->i", w, zvecs[pi])) / np.sqrt(pivot)
            dz = (2.0 * rho[pi] * np.sqrt(gjj * ws.yty / piv_lo)
                  + np.abs(z) * err / piv_lo)
            rss_lo = rss[pi] - z * z - dz * (2.0 * np.abs(z) + dz)
            bic_lo = n * np.log(np.maximum(rss_lo, RSS_FLOOR) / n) + penalty
        out[lo:lo + pi.size] = np.where(clear & ~np.isnan(bic_lo), bic_lo, -np.inf)
    return out


def occam_search(y, library, config: SearchConfig = None) -> ModelSet:
    """Level-wise beam under a BIC window of 2*ln(window_ratio).

    Fit all single-regressor models, keep those within the window of the best
    BIC seen so far, extend every survivor by every absent candidate
    (deduplicated by regressor set, each child taken from the first survivor
    in (bic, key) order that generates it), re-prune against the running
    best, and repeat up to max_size. A final prune against the global best is
    applied; with submodel_exclusion, retained models beaten by one of their
    own retained sub-models are then dropped.

    Each level is screened before it is fitted: a batched solve bounds every
    child's BIC from below, and Workspace.extend runs only on children whose
    bound lies inside the window of the level's best exact BIC, repeated
    until no unfitted child can enter it. The result equals fitting every
    child. `fits` counts the distinct models scored, `exact_fits` the
    fit_subset/extend calls made.
    """
    config = config or SearchConfig(strategy="occam")
    ws = make_workspace(y, library)
    limit = _checked(ws, config)
    p = ws.n_candidates
    window = config.window
    fits = exact_fits = p
    capped = False
    best = math.inf
    pool = {}

    level = []
    for j in range(p):
        model = ws.fit_subset((j,))
        if model.condition_flag:
            continue
        best = min(best, model.bic)
        level.append(model)
    if not level:
        raise SearchError("every single-regressor model is degenerate")
    survivors = [m for m in level if m.bic - best <= window]
    pool.update({m.key(): m for m in survivors})

    for size in range(2, limit + 1):
        survivors.sort(key=lambda m: (m.bic, m.key()))
        if len(survivors) > config.beam_cap:
            survivors = survivors[:config.beam_cap]
            capped = True
        # extend refuses models too large for the data; so must a level whose
        # screen rules out every child
        ws._check_size(size)
        parent, col = _first_parents(survivors, p)
        fits += parent.size
        bound = _screen(ws, survivors, parent, col)
        order = np.argsort(bound)
        bound = bound[order]
        # fit, lowest bound first, every child that can still enter the window;
        # the first pass guesses the level's best from the bounds, later passes
        # take it from the exact unflagged fits, until nothing more can enter
        lowest = np.min(bound, where=np.isfinite(bound), initial=math.inf)
        threshold = min(best, lowest) + window
        level, done = [], 0
        while True:
            stop = int(np.searchsorted(bound, threshold + _SCREEN_MARGIN, side="right"))
            if stop <= done:
                break
            for i in order[done:stop]:
                child = ws.extend(survivors[parent[i]], col[i])
                if not child.condition_flag:
                    best = min(best, child.bic)
                    level.append(child)
            exact_fits += stop - done
            done = stop
            threshold = best + window
        survivors = [m for m in level if m.bic - best <= window]
        pool.update({m.key(): m for m in survivors})
        if not survivors:
            break

    retained = {k: m for k, m in pool.items() if m.bic - best <= window}
    dropped = 0
    if config.submodel_exclusion:
        keys = sorted(retained, key=len)
        keep = {}
        for key in keys:
            kset = set(key)
            beaten = any(set(other) < kset and retained[other].bic < retained[key].bic
                         for other in keys if len(other) < len(key))
            if beaten:
                dropped += 1
            else:
                keep[key] = retained[key]
        retained = keep
    meta = {"fits": fits, "exact_fits": exact_fits, "beam_capped": capped,
            "window": window, "submodel_excluded": dropped}
    return _finish(retained, ws, "occam", meta)


def mc3_search(y, library, config: SearchConfig = None) -> ModelSet:
    """Metropolis walk over subsets (add / remove / swap moves).

    Proposals are uniform over the legal neighbor moves of the current model;
    acceptance is min(1, exp(-(bic'-bic)/2) * prior ratio * |N(M)|/|N(M')|).
    The returned set holds every unique model the chain occupied, each with
    its exactly computed BIC; degenerate proposals are rejected outright.
    """
    config = config or SearchConfig(strategy="mc3")
    ws = make_workspace(y, library)
    limit = _checked(ws, config)
    p = ws.n_candidates
    prior = config.prior
    rng = np.random.default_rng(config.seed)
    cache = {}

    def fitted(key):
        model = cache.get(key)
        if model is None:
            model = ws.fit_subset(key)
            cache[key] = model
        return model

    def neighbor_count(k: int) -> int:
        adds = p - k if k < limit else 0
        removes = k if k > 1 else 0
        return adds + removes + k * (p - k)

    current_key = None
    for j in rng.permutation(p):
        model = fitted((int(j),))
        if not model.condition_flag:
            current_key = (int(j),)
            current = model
            break
    if current_key is None:
        raise SearchError("every single-regressor model is degenerate")

    visited = {current_key}
    accepted = 0
    for _ in range(config.mc3_iterations):
        k = len(current_key)
        adds = p - k if k < limit else 0
        removes = k if k > 1 else 0
        total = adds + removes + k * (p - k)
        if total == 0:
            break  # no legal move (single candidate pool)
        move = int(rng.integers(total))
        inside = set(current_key)
        outside = [j for j in range(p) if j not in inside]
        if move < adds:
            proposal_key = tuple(sorted(current_key + (outside[move],)))
        elif move < adds + removes:
            kept = list(current_key)
            del kept[move - adds]
            proposal_key = tuple(kept)
        else:
            slot, target = divmod(move - adds - removes, p - k)
            kept = list(current_key)
            kept[slot] = outside[target]
            proposal_key = tuple(sorted(kept))
        proposal = fitted(proposal_key)
        if proposal.condition_flag:
            continue  # zero-posterior state; reject
        log_alpha = (-(proposal.bic - current.bic) / 2.0
                     + prior.log_weight(len(proposal_key)) - prior.log_weight(k)
                     + math.log(total) - math.log(neighbor_count(len(proposal_key))))
        if log_alpha >= 0 or math.log(rng.random()) < log_alpha:
            current_key, current = proposal_key, proposal
            visited.add(proposal_key)
            accepted += 1

    pool = {key: cache[key] for key in visited}
    meta = {"iterations": config.mc3_iterations, "accepted": accepted,
            "unique_fits": len(cache)}
    return _finish(pool, ws, "mc3", meta)


def run_search(y, library, config: SearchConfig) -> ModelSet:
    """Dispatch on config.strategy."""
    fn = {"exhaustive": exhaustive_search, "occam": occam_search,
          "mc3": mc3_search}[config.strategy]
    return fn(y, library, config)
