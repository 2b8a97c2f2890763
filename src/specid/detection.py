"""ACE target detection over a cube, ROI extraction, and background removal.

Scores are the signed cosine between the whitened pixel and whitened target,
both mean-subtracted: with W = L^-1 for the Cholesky factor L of the shrunk
background covariance, score = <W(t-mu), W(x-mu)> / (|W(t-mu)| |W(x-mu)|).
Any W with W^T W = covariance^-1 gives the same score (Manolakis & Shaw 2002,
IEEE Signal Processing Magazine 19(1)); a triangular one costs half the
flops of the symmetric inverse square root.
Background removal fits a detected pixel on the target plus nearby background
spectra jointly (no intercept) and subtracts only the background part.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (PIXEL_BLOCK_STEP, ImageCube, Spectrum, average_pixels, block_bounds,
                   block_rows, ordered_sum)
from .errors import AlignmentError, InputError, NumericalError
from . import regression


@dataclass(frozen=True, eq=False)
class BackgroundStats:
    """Mean and shrunk covariance of the background, plus the whitener.

    `covariance` is already shrunk: (1-lambda)*S + lambda*diag(S). It must be
    positive definite, which its Cholesky factorization L L^T (LAPACK
    `dpotrf`) checks. The whitener is the lower-triangular W = L^-1
    (`dtrtri`), in Fortran order for BLAS `dtrmm`: W covariance W^T = I.
    """

    mean: np.ndarray
    covariance: np.ndarray
    shrinkage: float
    whitener: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise InputError("mean length %d does not match covariance shape %r"
                             % (mean.size, cov.shape))
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-10 * max(1.0, abs(cov).max())):
            raise InputError("covariance must be symmetric")
        cov = (cov + cov.T) / 2.0
        factor, info = regression.lapack.dpotrf(cov, lower=1)   # upper triangle zeroed
        if info:
            raise NumericalError(
                "background covariance is numerically singular; "
                "increase the shrinkage")
        # dtrtri cannot fail: dpotrf's diagonal is positive
        whitener, _ = regression.lapack.dtrtri(factor, lower=1, overwrite_c=1)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "whitener", whitener)

    @property
    def bands(self) -> int:
        return self.mean.size

    def whiten(self, values: np.ndarray) -> np.ndarray:
        """W(v - mu) for one spectrum or a stack of row spectra."""
        return (np.asarray(values, dtype=np.float64) - self.mean) @ self.whitener.T


@dataclass(frozen=True, eq=False)
class DetectionMap:
    """Per-pixel ACE scores."""

    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise InputError("scores must be (rows, cols)")
        if not np.all(np.isfinite(scores)):
            raise NumericalError("detection map contains non-finite scores")
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True, eq=False)
class RegionOfInterest:
    """One 8-connected group of above-threshold pixels."""

    pixels: tuple            # (row, col) pairs, row-major order
    peak_score: float
    mean_score: float
    average: Spectrum

    @property
    def bounding_box(self) -> tuple:
        rows = [r for r, _ in self.pixels]
        cols = [c for _, c in self.pixels]
        return min(rows), max(rows), min(cols), max(cols)


def background_stats(cube: ImageCube, shrinkage: float = 0.01,
                     mask: np.ndarray | None = None) -> BackgroundStats:
    """Sample mean/covariance over selected pixels, then shrink toward diag.

    `mask` selects the pixels to use (True = include); default all. Needs at
    least 2 pixels; the shrunk covariance must come out positive definite.

    One pass reads the selected pixels in blocks of core.PIXEL_BLOCK_STEP
    (3,072) pixels on every cube; a short last block joins the one before
    it (core.block_bounds). It converts each row holding a selected pixel
    once (ImageCube.reader), into one buffer of a block plus less than a
    row, and squeezes a mask's other pixels out in place. Each block then:
    - continues core.ordered_sum's running total, its first row saved and
      restored around that step, so the mean has the bits of the
      whole-array `flat.mean(axis=0)`;
    - is centred on its own mean, and OpenBLAS's `dsyrk` (lower triangle,
      from scipy.linalg's compiled `_fblas`, regression.scipy_linalg_module)
      gives its centred Gram matrix M_b;
    - joins the blocks before it by the pairwise update of Chan, Golub &
      LeVeque (1983, The American Statistician 37), which is stable: with
      n_a pixels before it, n_b in it, n = n_a + n_b and delta its mean less
      theirs, M += M_b + delta delta^T n_a n_b / n, and their mean moves by
      delta n_b / n.
    M is the centred Gram matrix of all the selected pixels within rounding,
    not bit for bit: each block is centred on its own mean, not on the mean
    of the whole cube, which one pass cannot know.
    """
    dsyrk = regression.scipy_linalg_module("_fblas").dsyrk

    if not 0.0 <= shrinkage <= 1.0:
        raise InputError("shrinkage must be in [0, 1], got %r" % shrinkage)
    cols, bands = cube.cols, cube.bands
    index, per_row = None, np.full(cube.rows, cols)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (cube.rows, cols):
            raise InputError("pixel mask shape %r does not match cube %r"
                             % (mask.shape, (cube.rows, cols)))
        index, per_row = np.flatnonzero(mask), mask.sum(axis=1)
    count = int(per_row.sum())
    if count < 2:
        raise InputError("need at least 2 pixels for background statistics, got %d"
                         % count)
    ends = np.cumsum(per_row)   # the selected pixels up to each row's end
    gaps = np.append(np.flatnonzero(per_row == 0), cube.rows)   # the empty rows
    bounds = block_bounds(count, PIXEL_BLOCK_STEP)
    read = cube.reader()
    buffer = np.empty((max(hi - lo for lo, hi in bounds) + cols - 1, bands))

    def blocks():
        """Each block's start and pixels, in a buffer of a block plus less than a row."""
        held = 0   # the selected pixels lo:lo + held, at the front of the buffer
        for lo, hi in bounds:
            last = int(np.searchsorted(ends, hi))   # the row of pixel hi - 1
            while held < hi - lo:
                # the next rows with selected pixels, up to an empty row, the
                # block's last row or the end of the buffer
                top = int(np.searchsorted(ends, lo + held, side="right"))
                stop = min(last + 1, top + (len(buffer) - held) // cols,
                           int(gaps[np.searchsorted(gaps, top)]))
                rows = buffer[held:held + (stop - top) * cols]
                read(top, stop, out=rows.reshape(stop - top, cols, bands))
                got = int(ends[stop - 1]) - lo - held
                if got < len(rows):   # squeeze out the unselected pixels
                    rows[:got] = rows[index[lo + held:lo + held + got] - top * cols]
                held += got
            yield lo, buffer[:hi - lo]
            held -= hi - lo
            buffer[:held] = buffer[hi - lo:hi - lo + held]

    # the lower triangles of the merged and of one block's centred Gram matrix
    gram = np.zeros((bands, bands), order="F")
    block_gram = np.zeros_like(gram)
    merged = np.zeros(bands)   # the mean of the blocks merged so far

    def summed():
        """Each block for ordered_sum; once it is added in, restored, centred and merged."""
        nonlocal gram, block_gram, merged   # updated in place
        for lo, block in blocks():
            size, first = len(block), block[0].copy()
            own = np.add.reduce(block, axis=0) / size
            yield block   # ordered_sum adds the running total into its first row
            block[0] = first
            block -= own
            dsyrk(1.0, block.T, beta=0.0, c=block_gram, trans=0, lower=1, overwrite_c=1)
            delta = own - merged
            block_gram += np.outer(delta, delta) * (lo * size / (lo + size))
            gram += block_gram
            merged += delta * (size / (lo + size))

    mean = ordered_sum(summed()) / count
    upper = np.triu_indices(bands, 1)
    gram[upper] = gram.T[upper]
    cov = gram / (count - 1)
    shrunk = (1.0 - shrinkage) * cov + shrinkage * np.diag(np.diag(cov))
    return BackgroundStats(mean, shrunk, shrinkage)


def _values_on(stats: BackgroundStats, spec, what: str) -> np.ndarray:
    values = spec.values if isinstance(spec, Spectrum) else np.asarray(spec, np.float64)
    if values.shape != (stats.bands,):
        raise AlignmentError("%s has %d bands but statistics have %d"
                             % (what, values.size, stats.bands))
    return values


def _score_block(block: np.ndarray, stats: BackgroundStats,
                 twhite: np.ndarray) -> np.ndarray:
    """ACE scores of a C-contiguous (rows, cols, bands) block, which it overwrites.

    Each image row is centred and whitened in place by one BLAS `dtrmm`
    call. A pixel's `dtrmm` bits depend on how many pixels the call holds,
    so whitening a row at a time gives a pixel the same bits whatever block
    holds it; one call per row also keeps OpenBLAS from packing a whole
    block.
    """
    dtrmm = regression.scipy_linalg_module("_fblas").dtrmm
    for row in block:
        row -= stats.mean
        dtrmm(1.0, stats.whitener, row.T, lower=1, overwrite_b=1)
    white = block.reshape(-1, block.shape[-1])
    norms = np.linalg.norm(white, axis=1)
    tnorm = np.linalg.norm(twhite)
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = (white @ twhite) / (norms * tnorm)
    scores[norms == 0.0] = 0.0  # pixel exactly at the mean carries no direction
    return np.clip(scores, -1.0, 1.0).reshape(block.shape[:-1])


def check_detect_options(threshold: float, threads: int) -> None:
    """Raise InputError unless threshold lies in (-1, 1) and threads >= 1."""
    if not -1.0 < threshold < 1.0:
        raise InputError("threshold must lie in (-1, 1), got %r" % threshold)
    if threads < 1:
        raise InputError("threads must be >= 1, got %r" % threads)


def label_regions(mask: np.ndarray) -> list:
    """The 8-connected regions of a boolean (rows, cols) mask.

    Returns one (rows, cols) pair of index arrays per region, its pixels in
    raster order, the regions in raster order of their first pixels.

    A union-find over the mask's row runs (He, Chao & Suzuki 2008, IEEE TIP
    17(5)): each row is padded with a False column at both ends, so in the
    flattened mask runs are the stretches between value changes and no run
    of one row can touch one of the next row's across the edge. A run of
    row r+1 joins every run of row r that overlaps it once both are widened
    by one column; those form one stretch of row r's runs, found by binary
    search. Each round hooks the larger root of every edge that still joins
    two trees onto the smaller, then points every run at its root, until no
    edge joins two trees; a region's root is then its first run.
    """
    width = mask.shape[1] + 2
    padded = np.zeros((mask.shape[0], width), dtype=bool)
    padded[:, 1:-1] = mask
    flat = padded.ravel()
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    del padded, flat
    starts, ends = changes[0::2], changes[1::2]   # ends exclusive
    # the runs of the row above that each run touches: first..last-1
    first = np.searchsorted(ends, starts - width, side="left")
    last = np.searchsorted(starts, ends - width, side="right")
    counts = last - first
    below = np.repeat(np.arange(starts.size), counts)
    above = np.arange(below.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    root = np.arange(starts.size)
    while True:
        top, bottom = root[above], root[below]
        apart = top != bottom
        if not apart.any():
            break
        above, below = above[apart], below[apart]
        top, bottom = top[apart], bottom[apart]
        np.minimum.at(root, np.maximum(top, bottom), np.minimum(top, bottom))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # a stable sort keeps each region's runs in raster order
    order = np.argsort(root, kind="stable")
    lengths = (ends - starts)[order]
    offsets = np.cumsum(lengths) - lengths   # of each run's first pixel
    index = np.arange(lengths.sum()) + np.repeat(starts[order] - offsets, lengths)
    rows, cols = np.divmod(index, width)
    cols -= 1
    bounds = offsets[np.flatnonzero(np.diff(root[order], prepend=-1))].tolist()
    bounds.append(index.size)
    return [(rows[lo:hi], cols[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def detect(cube: ImageCube, target, stats: BackgroundStats, threshold: float,
           threads: int = 1):
    """Score every pixel and group above-threshold pixels into ROIs.

    Returns (DetectionMap, list of RegionOfInterest sorted by peak score,
    descending, then by first pixel). An ROI is one 8-connected region of
    `scores > threshold`, labelled from row runs by label_regions; it
    carries its pixels in raster order, its peak score, its mean score over
    those pixels in that order, and their average spectrum
    (core.average_pixels). Pixels are scored in row blocks of
    about 2**18 values (core.block_rows), each a C-contiguous
    (rows, cols, bands) array. The blocks are dealt in turn to up to
    `threads` workers, each reading its own through its own
    ImageCube.reader into a buffer of its own, which _score_block
    overwrites. The blocks do not depend on `threads`, so neither do
    the scores. A short last block joins the one before it, so none is
    shorter than core.block_rows unless the cube is one block: a block of a
    few dozen pixels would take OpenBLAS's small-matrix kernels. With
    OpenBLAS on one thread, the scores equal one whole-cube call bit for
    bit; on several, the last pixels of each BLAS thread's share take a
    remainder kernel, so a whole-cube call's bits already depend on the BLAS
    thread count, and the scores' bits on core.BLOCK_VALUES.
    """
    check_detect_options(threshold, threads)
    if isinstance(target, Spectrum) and target.grid != cube.grid:
        raise AlignmentError("target %r is not on the cube grid" % target.name)
    twhite = stats.whiten(_values_on(stats, target, "target"))
    if np.linalg.norm(twhite) == 0.0:
        raise NumericalError("whitened target has zero norm")
    scores = np.empty((cube.rows, cube.cols))
    bounds = block_bounds(cube.rows, block_rows(cube.cols * cube.bands))

    def work(share):
        # each worker converts its blocks into a buffer of its own, which scoring overwrites
        read = cube.reader()
        buffer = np.empty((max(hi - lo for lo, hi in share), cube.cols, cube.bands))
        for lo, hi in share:
            scores[lo:hi] = _score_block(read(lo, hi, out=buffer[:hi - lo]), stats, twhite)

    workers = min(threads, len(bounds))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, [bounds[i::workers] for i in range(workers)]))
    dmap = DetectionMap(scores)
    rois = []
    for rr, cc in label_regions(scores > threshold):
        pixels = tuple(zip(rr.tolist(), cc.tolist()))
        vals = scores[rr, cc]
        rois.append(RegionOfInterest(
            pixels=pixels,
            peak_score=float(vals.max()),
            mean_score=float(vals.mean()),
            average=average_pixels(cube, pixels)))
    rois.sort(key=lambda r: (-r.peak_score, r.pixels[0]))
    return dmap, rois


@dataclass(frozen=True, eq=False)
class BackgroundRemoval:
    """Result of removing fitted background contributions from a pixel."""

    spectrum: Spectrum               # pixel minus fitted background part
    target_coefficient: float        # fitted abundance of the target
    background_names: tuple
    background_coefficients: np.ndarray
    rss: float


def background_removal(pixel: Spectrum, target: Spectrum,
                       backgrounds) -> BackgroundRemoval:
    """Joint no-intercept fit of pixel on target plus backgrounds.

    The returned spectrum is pixel - sum(a_i * background_i): the target's
    fitted share plus the fit residual. Degenerate designs (near-duplicate
    spectra) raise instead of producing meaningless coefficients.
    """
    backgrounds = list(backgrounds)
    if not backgrounds:
        raise InputError("background removal needs at least one background spectrum")
    grid = pixel.grid
    mask = pixel.valid_mask() & target.valid_mask()
    if target.grid != grid:
        raise AlignmentError("target %r is not on the pixel grid" % target.name)
    for s in backgrounds:
        if s.grid != grid:
            raise AlignmentError("background %r is not on the pixel grid" % s.name)
        mask &= s.valid_mask()
    if not mask.any():
        raise InputError("no valid bands shared by pixel, target, and backgrounds")
    names = [target.name] + [s.name for s in backgrounds]
    if len(set(names)) != len(names):
        raise InputError("duplicate spectrum names in background removal: %r" % names)
    columns = np.column_stack([target.values] + [s.values for s in backgrounds])
    model = regression.fit(pixel.values[mask], columns[mask], names)
    if model.condition_flag:
        close = _near_duplicates(columns[mask], names)
        detail = ("near-duplicate pairs: %s" % ", ".join(close)) if close \
            else "spectra are linearly dependent"
        raise NumericalError(
            "degenerate background-removal design over %r (%s)" % (names, detail))
    bkg_part = columns[:, 1:] @ model.coefficients[1:]
    removed = Spectrum("bkgr_" + pixel.name, grid, pixel.values - bkg_part,
                       valid=None if mask.all() else mask)
    return BackgroundRemoval(
        spectrum=removed,
        target_coefficient=float(model.coefficients[0]),
        background_names=tuple(names[1:]),
        background_coefficients=model.coefficients[1:],
        rss=model.rss)


def _near_duplicates(columns: np.ndarray, names) -> list:
    pairs = []
    norms = np.linalg.norm(columns, axis=0)
    norms[norms == 0] = 1.0
    unit = columns / norms
    corr = np.abs(unit.T @ unit)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if corr[i, j] > 0.999:
                pairs.append("%s~%s" % (names[i], names[j]))
    return pairs


def annulus_coordinates(roi: RegionOfInterest, shape, inner: int = 1,
                        outer: int = 5, max_spectra: int = 24) -> list:
    """Background pixel coordinates ringing an ROI's bounding box.

    The ring spans the box grown by `inner` through `outer` pixels (both
    inclusive), clipped to the image, row-major ordered, and evenly strided
    down to at most `max_spectra` coordinates.
    """
    if inner < 1 or outer < inner:
        raise InputError("need 1 <= inner <= outer, got %r, %r" % (inner, outer))
    if max_spectra < 1:
        raise InputError("max_spectra must be >= 1")
    rows, cols = shape
    rmin, rmax, cmin, cmax = roi.bounding_box
    guard = inner - 1  # cells inside bbox+guard are still "on the object"
    coords = []
    for r in range(max(0, rmin - outer), min(rows, rmax + outer + 1)):
        for c in range(max(0, cmin - outer), min(cols, cmax + outer + 1)):
            if rmin - guard <= r <= rmax + guard and cmin - guard <= c <= cmax + guard:
                continue
            coords.append((r, c))
    if not coords:
        raise InputError("no background pixels available around the ROI")
    if len(coords) > max_spectra:
        idx = np.unique(np.linspace(0, len(coords) - 1, max_spectra).round().astype(int))
        coords = [coords[i] for i in idx]
    return coords
