"""Model-space search: exhaustive enumeration, Occam's window beam, and MC3.

All strategies fit subsets of a candidate pool (library spectra or table
columns) against one observation vector and return a ModelSet of fitted,
non-degenerate models sorted by (bic, regressor names). Degenerate (flagged)
models are discarded: their likelihoods are numerically meaningless and
duplicate-regressor designs double-count evidence.

Exhaustive and Occam run one level-wise enumerator: every fit of a level goes
through the Workspace's exact-fit kernel and is kept as rows of a ModelSet's
columns (a _Fits), not as objects. MC3 fits each distinct proposal with the
same kernel and keeps the fits as rows. Every search ends in _finish, which
turns the rows it keeps into the ModelSet.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SpectralLibrary, Spectrum
from .errors import AlignmentError, InputError, SearchError
from .regression import (PIVOT_TOL, RSS_FLOOR, ModelPrior, Workspace, bic_from_parts,
                         flagged)

STRATEGIES = ("exhaustive", "occam", "mc3")
_WORD = (1 << 32) - 1  # the low half of a PCG64 output


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by every strategy.

    window_ratio C defines the Occam window 2*ln(C) in BIC units; models
    worse than the best by more than that are rejected. submodel_exclusion
    additionally drops any retained model when a strict sub-model of it is
    retained with lower BIC (the stricter classic rule; off by default).

    `prior` steers MC3's acceptance ratio and is recorded as the returned
    ModelSet's prior, which normalize weights the posterior by.
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
        for name in ("max_size", "mc3_iterations", "enumeration_cap", "beam_cap", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InputError("%s must be an integer, got %r" % (name, value))
        if self.max_size < 1:
            raise InputError("max_size must be >= 1, got %r" % self.max_size)
        ratio = self.window_ratio
        if isinstance(ratio, bool) or not isinstance(ratio, numbers.Real) or not ratio > 1:
            raise InputError("window_ratio must be a number > 1, got %r" % (ratio,))
        if not isinstance(self.prior, ModelPrior):
            raise InputError("prior must be a ModelPrior, got %r" % (self.prior,))
        if self.strategy not in STRATEGIES:
            raise InputError("strategy must be one of %r, got %r"
                             % (STRATEGIES, self.strategy))
        if self.mc3_iterations < 1:
            raise InputError("mc3_iterations must be >= 1")
        if self.enumeration_cap < 1 or self.beam_cap < 1:
            raise InputError("enumeration_cap and beam_cap must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be an integer >= 0, got %r" % (self.seed,))

    @property
    def window(self) -> float:
        return 2.0 * math.log(self.window_ratio)


def _packed_rows(index: np.ndarray, p: int) -> tuple:
    """Each index row's candidates as a bitmask of ceil(p / 64) 64-bit words,
    and its size.

    Refuses, with InputError, a row that does not hold distinct candidates
    0..p-1 and then only -1: a repeated candidate finds its bit already set
    when its column is added in. The words are int64 (bit 63 is the sign),
    worked by shifts, remainders and adds: numpy's bitwise and sort kernels,
    which no other step of a run calls, would fault about 0.2 MiB of their
    code into the process.
    """
    refused = "each index row must hold distinct candidates, then only -1"
    masks = np.zeros((len(index), -(-p // 64)), np.int64)
    sizes = np.zeros(len(index), np.intp)
    shift, bit = np.empty(len(index), np.int64), np.empty(len(index), np.int64)
    held = True
    for column in index.T:
        now = column >= 0
        if column.min() < -1 or column.max() >= p or np.any(now > held):
            raise InputError(refused)
        np.remainder(column, 64, out=shift)
        for w, word in enumerate(masks.T):
            mine = now & (np.floor_divide(column, 64, out=bit) == w)
            # a repeated candidate finds its bit already set
            np.remainder(np.right_shift(word, shift, out=bit), 2, out=bit)
            if np.any(mine & (bit == 1)):
                raise InputError(refused)
            word += np.left_shift(mine, shift, out=bit)  # the bit is clear: + is OR
        sizes += now
        held = now
    if not sizes.all():
        raise InputError(refused)
    return masks, sizes


class ModelSet:
    """Fitted models retained by one search run, held as columns.

    Row i of each column describes model i:
      index         (models, width) intp: its candidates in fit order, then -1
      coefficients  (models, width) float64: their coefficients, then 0
      intercepts    float64, NaN for a model without an intercept
      bic, rss, condition  float64
      sizes         intp: how many candidates it holds
    Model i holds the names `candidates[j] for j in index[i, :sizes[i]]`.
    A search's rows are in (bic, sorted names) order; a set built by hand
    keeps the order given. `best_bic` is the lowest bic. The set keeps the
    arrays given, in its dtypes, and makes them read-only. It refuses a row
    without a candidate, a bic or coefficient that is not finite, and an
    infinite intercept, so its models are written to results.json as strict JSON.

    It checks the rows one index column at a time on their packed bitmasks
    (`_packed_rows`); rows holding one set have equal masks, which a lexsort
    of the masks puts side by side.

    `candidates` is the full pool the search drew from, distinct strings, so
    downstream code can tell "never retained" from "not a known regressor".
    `prior` is the ModelPrior the search ran under, uniform for a set built
    by hand; the set refuses one that does not cover its largest model.
    """

    def __init__(self, index, coefficients, intercepts, bic, rss, condition, candidates,
                 strategy: str, strategy_metadata: dict | None = None,
                 prior: ModelPrior = ModelPrior()):
        columns = [np.asarray(index, np.intp)] + [
            np.asarray(c, np.float64) for c in (coefficients, intercepts, bic, rss, condition)]
        (self.index, self.coefficients, self.intercepts, self.bic, self.rss,
         self.condition) = columns
        self.candidates = tuple(candidates)
        self.strategy = strategy
        self.strategy_metadata = {} if strategy_metadata is None else strategy_metadata
        self.prior = prior
        if not isinstance(prior, ModelPrior):
            raise InputError("prior must be a ModelPrior, got %r" % (prior,))
        if (not all(isinstance(name, str) for name in self.candidates)
                or len(set(self.candidates)) != len(self.candidates)):
            raise InputError("candidate names must be distinct strings")
        index = self.index
        if index.ndim != 2 or self.coefficients.shape != index.shape or any(
                column.shape != (len(index),) for column in columns[2:]):
            raise InputError("index and coefficients must be (models, width), the rest (models,)")
        if not len(index):
            raise SearchError("a ModelSet needs at least one model")
        if not (np.isfinite(self.bic).all() and np.isfinite(self.coefficients).all()
                and not np.isinf(self.intercepts).any()):
            raise InputError("bic and coefficients must be finite, intercepts finite or NaN")
        masks, self.sizes = _packed_rows(index, len(self.candidates))
        prior.log_weight(int(self.sizes.max()))  # refuses a size the prior does not cover
        ranked = masks[np.lexsort(masks.T[::-1])]  # equal sets sort to equal masks
        if np.any(np.all(ranked[1:] == ranked[:-1], axis=1)):
            raise SearchError("ModelSet contains duplicate regressor sets")
        for column in (*columns, self.sizes):
            column.flags.writeable = False
        self.best_bic = float(self.bic.min())

    def __len__(self) -> int:
        return self.bic.size


def make_workspace(y, library) -> Workspace:
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
    return Workspace(yvec[mask], library.matrix()[mask], library.names)


def _checked(ws: Workspace, config: SearchConfig) -> int:
    """Common validation; returns the effective per-model size limit."""
    limit = min(config.max_size, ws.n_candidates)
    if config.prior.size_weights is not None and len(config.prior.size_weights) < limit:
        raise InputError("prior covers sizes 1..%d but search needs up to %d"
                         % (len(config.prior.size_weights), limit))
    return limit


def _ranked(bic: np.ndarray, index: np.ndarray, names: tuple) -> np.ndarray:
    """Row order by (bic, sorted names), as models sort by (m.bic, m.key())."""
    order = np.argsort(bic, kind="stable")
    ranked = bic[order]
    tied = np.concatenate(([False], ranked[1:] == ranked[:-1], [False]))
    # each run of equal BICs, first to last position, sorted by its keys
    for lo, hi in np.flatnonzero(tied[1:] != tied[:-1]).reshape(-1, 2).tolist():
        order[lo:hi + 1] = sorted(order[lo:hi + 1].tolist(), key=lambda r: tuple(
            sorted(names[j] for j in index[r].tolist() if j >= 0)))
    return order


_COLUMNS = ("index", "coefficients", "intercepts", "bic", "rss", "condition")


@dataclass(eq=False, slots=True)
class _Fits:
    """Exact fits as a ModelSet's columns (`_COLUMNS`): row i fits the
    candidates index[i], in fit order, then -1; intercepts are NaN without an
    intercept. A _Fits may hold a whole set and hand out row views of it.
    `chol[i]` holds fit i's Cholesky factor transposed, so that chol[i].T is
    the factor in the Fortran order LAPACK takes without a copy, and `zvec[i]`
    its z vector; both are NaN for a fit without a factor, and None when the
    fits are not extended.
    """

    index: np.ndarray
    coefficients: np.ndarray
    intercepts: np.ndarray
    bic: np.ndarray
    rss: np.ndarray
    condition: np.ndarray
    chol: np.ndarray | None = None
    zvec: np.ndarray | None = None

    @classmethod
    def around(cls, index: np.ndarray) -> "_Fits":
        """Unfitted rows for the candidates of index: coefficients 0, intercepts NaN."""
        rows = len(index)
        return cls(index, np.zeros(index.shape), np.full(rows, math.nan), np.empty(rows),
                   np.empty(rows), np.empty(rows))

    def __len__(self) -> int:
        return len(self.index)

    def parts(self) -> list:
        """Its fields in order: the columns, then chol and zvec."""
        return [getattr(self, name) for name in self.__slots__]

    def rows(self, lo: int, hi: int, width: int) -> "_Fits":  # without the factors
        """Views of rows lo:hi, of index and coefficients their first `width` columns."""
        return _Fits(self.index[lo:hi, :width], self.coefficients[lo:hi, :width],
                     self.intercepts[lo:hi], self.bic[lo:hi], self.rss[lo:hi],
                     self.condition[lo:hi])

    def take(self, rows) -> "_Fits":
        """A copy of the given rows, factors included."""
        rows = np.asarray(rows, dtype=np.intp)
        return _Fits(*[None if part is None else part[rows] for part in self.parts()])

    def compact(self, rows: np.ndarray) -> None:
        """Keep only the given rows, in that order, written in place over the
        first len(rows) rows of each column, one 1-D slice at a time."""
        for name in _COLUMNS:
            column = getattr(self, name)
            for line in (column.T if column.ndim == 2 else (column,)):
                line[:rows.size] = line[rows]
            setattr(self, name, column[:rows.size])


# fits made between two writes into a level's columns, so only this many are
# ever held as Python objects
_FIT_CHUNK = 1024


def _fit(ws: Workspace, sel: np.ndarray, parents: _Fits = None, parent=None,
         keep: bool = True, out: _Fits = None) -> _Fits:
    """Fit every row of sel with the Workspace's exact-fit kernel.

    Without parents each row is fitted from the Gram matrix, as fit_subset
    fits it. With them, row i is parents' row parent[i] plus sel's last
    column, fitted as extend fits it: the parent's factor grows by one
    column, unless the parent has none or the column is dependent, when the
    row is fitted from the Gram matrix. `keep` keeps the factors; without it
    they go to one chunk buffer. The kernel writes the fits' columns, new
    ones or those of `out` (row views around sel), _FIT_CHUNK rows at a time;
    with an intercept each chunk's coefficients go through one buffer, the
    intercept first.
    """
    rows, k = sel.shape
    m = ws._off + k
    fits = _Fits.around(sel) if out is None else out
    chunk = min(rows, _FIT_CHUNK)
    chol, zvec = np.empty((rows if keep else chunk, m, m)), np.empty((rows if keep else chunk, m))
    if keep:
        fits.chol, fits.zvec = chol, zvec
    if ws._off:
        beta = np.empty((chunk, m))
    n = ws.n_obs
    penalty = (k + ws._off + 1) * math.log(n)  # bic_from_parts's, hoisted
    for lo in range(0, rows, _FIT_CHUNK):
        hi = min(lo + _FIT_CHUNK, rows)
        held = slice(lo, hi) if keep else slice(0, hi - lo)  # this chunk's factors
        rss = fits.rss[lo:hi]
        gathered = None
        if parents is not None:
            at = parent[lo:hi]
            gathered = parents.chol[at], parents.zvec[at], parents.rss[at]
        coefficients = beta[:hi - lo] if ws._off else fits.coefficients[lo:hi]
        ws._fit_rows(sel[lo:hi], (coefficients, rss, fits.condition[lo:hi],
                                  chol[held], zvec[held]), gathered)
        if ws._off:
            fits.intercepts[lo:hi] = coefficients[:, 0]
            fits.coefficients[lo:hi] = coefficients[:, 1:]
        fits.bic[lo:hi] = [n * math.log(max(r, RSS_FLOOR) / n) + penalty
                           for r in rss.tolist()]
    return fits


def _children(level: _Fits, parent, col) -> np.ndarray:
    """The candidate rows of level's row parent[i] followed by col[i]."""
    return np.column_stack([level.index[parent], col])


def _gathered(levels: list) -> _Fits:
    """The rows of the given levels, in order. Each level is popped, copied in
    and released before the next, so one the caller no longer holds is freed."""
    width = max(lv.index.shape[1] for lv in levels)
    fits = _Fits.around(np.full((sum(map(len, levels)), width), -1, dtype=np.intp))
    lo = 0
    while levels:
        lv = levels.pop(0)
        hi = lo + len(lv)
        view = fits.rows(lo, hi, lv.index.shape[1])
        for name in _COLUMNS:
            getattr(view, name)[...] = getattr(lv, name)
        lo = hi
    return fits


def _finish(fits: _Fits, keep, ws: Workspace, strategy: str, metadata: dict,
            prior: ModelPrior) -> ModelSet:
    """The ModelSet of fits' rows `keep` (row indices, None for all), ranked in place.

    Kept rows are compacted in place and narrowed to the widest of them; rows
    given whole are as wide as their widest already.
    """
    if keep is not None:
        fits.compact(keep)
        keep = None  # a caller's temporary is freed before the set is checked
        width = fits.index.shape[1]
        while width and not np.any(fits.index[:, width - 1] >= 0):  # from the right
            width -= 1
        fits.index, fits.coefficients = fits.index[:, :width], fits.coefficients[:, :width]
    if not len(fits):
        raise SearchError("no usable models: every candidate design is degenerate")
    fits.compact(_ranked(fits.bic, fits.index, ws.names))
    return ModelSet(*(getattr(fits, name) for name in _COLUMNS), ws.names, strategy, metadata,
                    prior)


def _first_level(ws: Workspace, keep: bool) -> _Fits:
    """Every single-candidate model, fitted as fit_subset fits it."""
    ws._check_size(1)
    return _fit(ws, np.arange(ws.n_candidates, dtype=np.intp)[:, None], keep=keep)


def _prefix_children(level: _Fits, p: int, sel: np.ndarray) -> np.ndarray:
    """Write the children of level's rows into sel; returns each child's parent row.

    Row S has a child S + {j} for each candidate j after S's last column.
    sel is written one column at a time.
    """
    last = level.index[:, -1]
    counts = p - 1 - last
    parent = np.repeat(np.arange(len(level)), counts)
    for c, column in enumerate(level.index.T):
        sel[:, c] = np.repeat(column, counts)
    sel[:, -1] = np.repeat(last + 1 - (np.cumsum(counts) - counts), counts)
    sel[:, -1] += np.arange(parent.size)
    return parent


def exhaustive_search(y, library, config: SearchConfig = None) -> ModelSet:
    """Fit every regressor subset of size 1..max_size.

    Level by level: each subset S + {j} with j after S's last candidate
    grows the factor of S (flagged or not), so every fit is extend's.
    Refuses to run when the subset count exceeds config.enumeration_cap.
    The levels are fitted straight into the set's columns, allocated once
    for every subset; the flagged rows are then dropped in place, and
    `degenerate` counts them.
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
    fits = _Fits.around(np.full((total, limit), -1, dtype=np.intp))
    level = parent = None
    lo = 0
    for size in range(1, limit + 1):
        ws._check_size(size)
        hi = lo + math.comb(p, size)
        rows = fits.rows(lo, hi, size)
        if level is None:
            rows.index[:, 0] = np.arange(p)
        else:
            parent = _prefix_children(level, p, rows.index)
        # only the level being extended keeps its factors
        level = _fit(ws, rows.index, level, parent, keep=size < limit, out=rows)
        lo = hi
    del level, parent, rows
    degenerate = int(np.count_nonzero(flagged(fits.condition)))
    meta = {"fits": total, "exact_fits": total, "degenerate": degenerate}
    # the kept rows are a temporary, which _finish frees before the set's check
    return _finish(fits, np.flatnonzero(~flagged(fits.condition)) if degenerate else None,
                   ws, "exhaustive", meta, config.prior)


# Occam screen: a child's BIC is first scored from its parent's factor in one
# batched solve; only children that may enter the window are fitted exactly.
_SCREEN_CHUNK = 4096    # (parent, candidate) pairs per batched solve
_SCREEN_TOL = 1e-12     # rounding allowed per factor row and unit of parent condition
_SCREEN_MARGIN = 1e-3   # BIC units added to the window before a child is skipped


def _first_parents(sel: np.ndarray, p: int) -> tuple:
    """The distinct children of one level, each with its first generating parent.

    Parent i extended by column j yields the child sel[i] + {j}; a child
    reached from several parents belongs to the first in row order.
    Returns the parent and column index arrays of the distinct children.
    """
    member = np.zeros((len(sel), p), dtype=bool)
    member[np.arange(len(sel))[:, None], sel] = True
    parent, col = np.nonzero(~member)  # parent-major, columns ascending
    child = np.column_stack([sel[parent], col])
    child.sort(axis=1)
    order = np.lexsort(child.T[::-1])  # stable: the first parent leads each run
    ranked = child[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    keep = order[first]
    return parent[keep], col[keep]


def _screen(ws: Workspace, survivors: _Fits, parent, col) -> np.ndarray:
    """Lower bounds on the BIC that Workspace.extend gives each (parent, col).

    The child's factor row is one batched forward substitution against the
    parent's Cholesky factor. The bound allows for rounding that grows with
    the parent's condition and the new pivot's cancellation, so an exactly
    fitted child never scores below it; pairs that extend's dependence test
    may send to fit_subset get -inf, so they are always fitted exactly.
    """
    off = ws._off
    m = survivors.index.shape[1] + off
    n = ws.n_obs
    penalty = (m + 2) * math.log(n)  # the parent's terms, the new one, the variance
    chols = survivors.chol.transpose(0, 2, 1)
    zvecs = survivors.zvec
    rss = survivors.rss
    # allowed relative rounding of w: a triangular solve's forward error grows
    # with the factor's size and condition
    rho = _SCREEN_TOL * (m + 1) * survivors.condition
    gdiag = np.diagonal(ws.gram)
    out = np.empty(parent.size)
    for lo in range(0, parent.size, _SCREEN_CHUNK):
        pi = parent[lo:lo + _SCREEN_CHUNK]
        dj = col[lo:lo + _SCREEN_CHUNK] + off
        chol = np.ascontiguousarray(chols[pi])  # the factors themselves, C-ordered
        cross = ws.gram[ws._design_rows(survivors.index[pi]), dj[:, None]]
        w = np.empty_like(cross)
        for r in range(m):
            dot = np.einsum("ij,ij->i", chol[:, r, :r], w[:, :r])
            w[:, r] = (cross[:, r] - dot) / chol[:, r, r]
        gjj = gdiag[dj]
        pivot = gjj - np.einsum("ij,ij->i", w, w)
        # |w|^2 <= G_jj, |x_j'y| <= sqrt(G_jj y'y) and |z_S|^2 <= y'y bound the
        # rounding of the pivot (err) and of the new z entry (dz)
        err = 3.0 * rho[pi] * gjj
        clear = pivot > PIVOT_TOL * gjj + err
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
    child's BIC from below, and the exact fit (extend's) runs only on children
    whose bound lies inside the window of the level's best exact BIC, repeated
    until no unfitted child can enter it. The result equals fitting every
    child. `fits` counts the distinct models scored, `exact_fits` the exact
    fits made, `degenerate` the flagged ones among them.
    """
    config = config or SearchConfig(strategy="occam")
    ws = make_workspace(y, library)
    limit = _checked(ws, config)
    p = ws.n_candidates
    window = config.window
    fits = exact_fits = p
    capped = False

    survivors = _first_level(ws, keep=limit > 1)
    usable = np.flatnonzero(~flagged(survivors.condition))
    degenerate = p - usable.size
    if not usable.size:
        raise SearchError("every single-regressor model is degenerate")
    best = min([math.inf] + survivors.bic[usable].tolist())
    survivors = survivors.take(usable[survivors.bic[usable] - best <= window])
    pool = [replace(survivors, chol=None, zvec=None)]  # the pool keeps no factor

    for size in range(2, limit + 1):
        order = _ranked(survivors.bic, survivors.index, ws.names)
        if order.size > config.beam_cap:
            order = order[:config.beam_cap]
            capped = True
        survivors = survivors.take(order)
        # a level whose screen rules out every child still needs its size
        ws._check_size(size)
        survivors, best, (children, exact, dropped) = _fit_window(ws, survivors, best, window,
                                                                  keep=size < limit)
        fits += children
        exact_fits += exact
        degenerate += dropped
        if survivors is None:
            break
        survivors = survivors.take(np.flatnonzero(survivors.bic - best <= window))
        pool.append(replace(survivors, chol=None, zvec=None))
        if not len(survivors):
            break

    del survivors  # the pool holds every row kept, without its factor
    gathered = _gathered(pool)
    inside = np.flatnonzero(gathered.bic - best <= window)
    beaten = (_submodel_beaten(gathered.index[inside], gathered.bic[inside])
              if config.submodel_exclusion else np.zeros(inside.size, dtype=bool))
    meta = {"fits": fits, "exact_fits": exact_fits, "beam_capped": capped, "window": window,
            "submodel_excluded": int(np.count_nonzero(beaten)), "degenerate": degenerate}
    return _finish(gathered, inside[~beaten], ws, "occam", meta, config.prior)


def _fit_window(ws: Workspace, survivors: _Fits, best: float, window: float,
                keep: bool) -> tuple:
    """Screen the children of survivors and fit those that may enter the window.

    Fits, lowest bound first, every child that can still enter the window;
    the first pass guesses the level's best from the bounds, later passes
    take it from the exact unflagged fits, until nothing more can enter.
    Returns the unflagged fits (None when no child is fitted), the running
    best BIC, and the counts of children, exact fits and flagged fits.
    """
    parent, col = _first_parents(survivors.index, ws.n_candidates)
    bound = _screen(ws, survivors, parent, col)
    order = np.argsort(bound)
    bound = bound[order]
    lowest = np.min(bound, where=np.isfinite(bound), initial=math.inf)
    threshold = min(best, lowest) + window
    passes, done, degenerate = [], 0, 0
    while True:
        stop = int(np.searchsorted(bound, threshold + _SCREEN_MARGIN, side="right"))
        if stop <= done:
            break
        pick = order[done:stop]
        fitted = _fit(ws, _children(survivors, parent[pick], col[pick]), survivors,
                      parent[pick], keep=keep)
        usable = np.flatnonzero(~flagged(fitted.condition))
        degenerate += len(fitted) - usable.size
        best = min([best] + fitted.bic[usable].tolist())
        passes.append(fitted if usable.size == len(fitted) else fitted.take(usable))
        done = stop
        threshold = best + window
    if len(passes) > 1:  # one _Fits of the passes' rows
        passes = [_Fits(*[None if parts[0] is None else np.concatenate(parts)
                          for parts in zip(*(fitted.parts() for fitted in passes))])]
    return (passes[0] if passes else None), best, (parent.size, done, degenerate)


def _submodel_beaten(index: np.ndarray, bic: np.ndarray) -> np.ndarray:
    """Whether a strict sub-model among the rows has a lower BIC than each row.

    Madigan & Raftery's (1994) second rule, every row against every smaller
    one; a tie does not beat.
    """
    sets = [(frozenset(j for j in row if j >= 0), b)
            for row, b in zip(index.tolist(), bic.tolist())]
    return np.array([any(small < big and small_bic < big_bic
                         for small, small_bic in sets if len(small) < len(big))
                     for big, big_bic in sets], dtype=bool)


def _pcg64_draws(rng: np.random.Generator, block: int = 1024) -> tuple:
    """`integers(n)` and `random()` equal to rng.integers(n) and rng.random(), bit for bit.

    Both read rng's raw PCG64 stream, fetched `block` values at a time from the
    state rng is in; rng's own state runs ahead of them, so rng must not be
    drawn from afterwards. As numpy does for n <= 2**32: a range of one draws
    nothing; any other is Lemire's draw on a 32-bit word, where each raw
    value gives its low half and keeps its high half for the next word (the
    state's `has_uint32` / `uinteger`), and a word is rejected while the low
    half of its product with n is below (2**32 - n) % n. random() is
    (value >> 11) * 2**-53 and leaves a kept half alone. (The chain's move
    counts stay below 2**32: reaching it takes about 2**17 candidates, whose
    Gram matrix alone is 128 GiB.)
    """
    state = rng.bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None
    refill = rng.bit_generator.random_raw
    raw = itertools.chain.from_iterable(iter(lambda: refill(block).tolist(), None)).__next__

    def integers(n: int) -> int:
        nonlocal half
        if n == 1:
            return 0
        while True:
            if half is None:
                word = raw()
                half = word >> 32
                word &= _WORD
            else:
                word, half = half, None
            m = word * n
            if m & _WORD >= n or m & _WORD >= ((1 << 32) - n) % n:
                return m >> 32

    def random() -> float:
        return (raw() >> 11) * 2.0 ** -53

    return integers, random


def _members(mask: int) -> tuple:
    """The positions of mask's set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mc3_search(y, library, config: SearchConfig = None) -> ModelSet:
    """Metropolis walk over subsets (add / remove / swap moves).

    Proposals are uniform over the legal neighbor moves of the current model;
    acceptance is min(1, exp(-(bic'-bic)/2) * prior ratio * |N(M)|/|N(M')|).
    The returned set holds every unique model the chain occupied, each with
    its exactly computed BIC; degenerate proposals are rejected outright
    (`degenerate` counts the distinct ones). Each distinct proposal is fitted
    once with the Workspace's exact-fit kernel and cached as its BIC, its
    flag and its fit, keyed by the bitmask of its candidates; the move lists
    change only when a move is accepted. The draws are rng.integers and
    rng.random of a `default_rng(seed)`, taken from its raw stream
    (`_pcg64_draws`). The size limit is checked before the chain starts, so
    whether a search fails does not depend on where the walk goes.
    """
    config = config or SearchConfig(strategy="mc3")
    ws = make_workspace(y, library)
    limit = _checked(ws, config)
    ws._check_size(limit)
    p = ws.n_candidates
    n, with_intercept = ws.n_obs, ws.with_intercept
    rng = np.random.default_rng(config.seed)
    cache = {}  # candidate bitmask -> (bic, flagged, beta, rss, condition)

    def fitted(mask):
        key = _members(mask)
        beta, rss, cond, _, _ = ws._factor(key)
        fit = cache[mask] = (bic_from_parts(rss, n, len(key), with_intercept),
                             bool(flagged(cond)),
                             beta, rss, cond)
        return fit

    def moves(k: int) -> tuple:
        """The add and remove counts at size k, and the count of all legal moves."""
        adds = p - k if k < limit else 0
        removes = k if k > 1 else 0
        return adds, removes, adds + removes + k * (p - k)

    bits = [1 << j for j in range(p)]
    mask = None
    for j in rng.permutation(p).tolist():
        fit = fitted(bits[j])
        if not fit[1]:
            mask, bic = bits[j], fit[0]
            break
    if mask is None:
        raise SearchError("every single-regressor model is degenerate")

    # a one-candidate pool has no legal move, so its chain stops at once
    sizes = range(1, limit + 1) if p > 1 else ()
    log_weight = {k: config.prior.log_weight(k) for k in sizes}
    log_moves = {k: math.log(moves(k)[2]) for k in sizes}
    iterations = config.mc3_iterations if sizes else 0
    integers, random = _pcg64_draws(rng)
    visited = {mask}
    accepted = 0
    k = 1
    adds, removes, total = moves(k)
    inside = [mask]  # the bits of the model's candidates, ascending, and of the others
    outside = [b for b in bits if b != mask]
    for _ in range(iterations):
        move = integers(total)
        if move < adds:
            proposal, size = mask | outside[move], k + 1
        elif move < adds + removes:
            proposal, size = mask ^ inside[move - adds], k - 1
        else:
            slot, target = divmod(move - adds - removes, p - k)
            proposal, size = mask ^ inside[slot] ^ outside[target], k
        fit = cache.get(proposal) or fitted(proposal)
        if fit[1]:
            continue  # zero-posterior state; reject
        log_alpha = (-(fit[0] - bic) / 2.0 + log_weight[size] - log_weight[k]
                     + log_moves[k] - log_moves[size])
        if log_alpha >= 0 or math.log(random()) < log_alpha:
            mask, bic = proposal, fit[0]
            visited.add(mask)
            accepted += 1
            k = size
            adds, removes, total = moves(k)
            inside = [b for b in bits if mask & b]
            outside = [b for b in bits if not mask & b]

    levels = []  # one per model size
    for _, masks in itertools.groupby(sorted(visited, key=int.bit_count), int.bit_count):
        masks = list(masks)
        bics, _, betas, rss, conds = zip(*map(cache.get, masks))
        betas = np.array(betas)
        levels.append(_Fits(np.array(list(map(_members, masks)), dtype=np.intp),
                            betas[:, ws._off:],
                            betas[:, 0] if ws._off else np.full(len(masks), math.nan),
                            np.array(bics), np.array(rss), np.array(conds)))
    meta = {"iterations": iterations, "accepted": accepted, "unique_fits": len(cache),
            "degenerate": sum(f[1] for f in cache.values())}
    return _finish(_gathered(levels), None, ws, "mc3", meta, config.prior)


def run_search(y, library, config: SearchConfig) -> ModelSet:
    """Dispatch on config.strategy."""
    fn = {"exhaustive": exhaustive_search, "occam": occam_search,
          "mc3": mc3_search}[config.strategy]
    return fn(y, library, config)
