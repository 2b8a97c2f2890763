"""ACE target detection over a cube, ROI extraction, and background removal.

Scores are the signed cosine between the whitened pixel and whitened target,
both mean-subtracted: with W the symmetric inverse square root of the shrunk
background covariance, score = <W(t-mu), W(x-mu)> / (|W(t-mu)| |W(x-mu)|).
Background removal fits a detected pixel on the target plus nearby background
spectra jointly (no intercept) and subtracts only the background part.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (PIXEL_BLOCK_STEP, ImageCube, Spectrum, average_pixels, block_bounds,
                   block_rows)
from .errors import AlignmentError, InputError, NumericalError
from . import regression

EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


@dataclass(frozen=True, eq=False)
class BackgroundStats:
    """Mean and shrunk covariance of the background, plus the whitener.

    `covariance` is already shrunk: (1-lambda)*S + lambda*diag(S). It must be
    positive definite (checked by its eigenvalues); the symmetric inverse
    square root is precomputed for scoring.
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
        evals, evecs = np.linalg.eigh(cov)
        if evals.min() <= 0:
            raise NumericalError(
                "background covariance is numerically singular; "
                "increase the shrinkage")
        whitener = (evecs / np.sqrt(evals)) @ evecs.T
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

    The selected pixels are summed in blocks of core.PIXEL_BLOCK_STEP
    (3,072) pixels on every cube; a short last block joins the one before
    it (core.block_bounds). Each pass reads a block's rows (ImageCube.reader)
    into one buffer, or with a mask gathers its pixels there from at most
    core.block_rows rows at a time; a row that two blocks share is read for
    each. The bits equal the whole-array
    `flat.mean(axis=0)` and `centred.T @ centred`:
    - numpy sums over axis 0 row by row, so each block's sum starts from the
      running total, added into the block's first pixel (IEEE addition is
      commutative, so total + pixel and pixel + total are the same bits);
    - numpy's `A.T @ A` is OpenBLAS's `dsyrk`, lower triangle, called here
      once per block from scipy.linalg's compiled `_fblas`
      (regression.scipy_linalg_module) and accumulated in place. OpenBLAS sums
      over pixels in panels (256 to 768 pixels, by CPU) and halves a last
      stretch shorter than two panels; blocks of whole panels, with the tail
      joined, make the same additions in the same order.
    A one-band view would be summed pairwise, but a band grid has at least 2.
    """
    dsyrk = regression.scipy_linalg_module("_fblas").dsyrk

    if not 0.0 <= shrinkage <= 1.0:
        raise InputError("shrinkage must be in [0, 1], got %r" % shrinkage)
    cols, bands = cube.cols, cube.bands
    index = None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (cube.rows, cols):
            raise InputError("pixel mask shape %r does not match cube %r"
                             % (mask.shape, (cube.rows, cols)))
        index = np.flatnonzero(mask)
    count = cube.rows * cols if index is None else index.size
    if count < 2:
        raise InputError("need at least 2 pixels for background statistics, got %d"
                         % count)
    bounds = block_bounds(count, PIXEL_BLOCK_STEP)
    read = cube.reader()
    # a block's whole rows: the block, and less than a row before and after it
    buffer = np.empty((max(hi - lo for lo, hi in bounds) + 2 * cols, bands))

    def pixels(lo, hi):
        """The selected pixels lo:hi, a view into the buffer."""
        if index is None:
            top, skip = divmod(lo, cols)
            rows = (hi - 1) // cols + 1 - top
            read(top, top + rows, out=buffer[:rows * cols].reshape(rows, cols, bands))
            return buffer[skip:skip + hi - lo]
        where, done = index[lo:hi], 0
        step = block_rows(cols * bands)
        for top in range(where[0] // cols, where[-1] // cols + 1, step):
            stop = int(np.searchsorted(where, (top + step) * cols))
            if stop > done:
                block = read(top, min(top + step, cube.rows)).reshape(-1, bands)
                # in range by construction; the default mode="raise"
                # would copy through a temporary as large as `out`
                np.take(block, where[done:stop] - top * cols, axis=0, mode="clip",
                        out=buffer[done:stop])
                done = stop
        return buffer[:hi - lo]

    for lo, hi in bounds:
        block = pixels(lo, hi)
        if lo:  # the first block's sum starts from its first pixel
            block[0] += total
        total = np.add.reduce(block, axis=0)
    mean = total / count
    gram = np.zeros((bands, bands), order="F")
    for lo, hi in bounds:
        centred = pixels(lo, hi)
        centred -= mean
        gram = dsyrk(1.0, centred.T, beta=0.0 if lo == 0 else 1.0,
                     c=gram, trans=0, lower=1, overwrite_c=1)
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
    white = stats.whiten(block.reshape(-1, block.shape[-1]))
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


def detect(cube: ImageCube, target, stats: BackgroundStats, threshold: float,
           threads: int = 1):
    """Score every pixel and group above-threshold pixels into ROIs.

    Returns (DetectionMap, list of RegionOfInterest sorted by peak score,
    descending). Connectivity is 8-neighbor; each ROI carries its pixel
    coordinates and average spectrum. Pixels are scored in row blocks of
    about 2**18 values (core.block_rows), each a C-contiguous
    (rows, cols, bands) array. The blocks are dealt in turn to up to
    `threads` workers, each reading its own through its own
    ImageCube.reader. The blocks do not depend on `threads`, so neither do
    the scores. A short last block joins the one before it, so none is
    shorter than core.block_rows unless the cube is one block: a block of a
    few dozen pixels would take OpenBLAS's small-matrix kernels. With
    OpenBLAS on one thread, the scores equal one whole-cube call bit for
    bit; on several, the last pixels of each BLAS thread's share take a
    remainder kernel, so a whole-cube call's bits already depend on the BLAS
    thread count, and the scores' bits on core.BLOCK_VALUES.
    """
    from scipy import ndimage  # imported here: the other subcommands never label

    check_detect_options(threshold, threads)
    if isinstance(target, Spectrum) and target.grid != cube.grid:
        raise AlignmentError("target %r is not on the cube grid" % target.name)
    twhite = stats.whiten(_values_on(stats, target, "target"))
    if np.linalg.norm(twhite) == 0.0:
        raise NumericalError("whitened target has zero norm")
    scores = np.empty((cube.rows, cube.cols))
    bounds = block_bounds(cube.rows, block_rows(cube.cols * cube.bands))

    def work(share):
        read = cube.reader()  # each worker converts its blocks into its own buffer
        for lo, hi in share:
            scores[lo:hi] = _score_block(read(lo, hi), stats, twhite)

    workers = min(threads, len(bounds))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, [bounds[i::workers] for i in range(workers)]))
    dmap = DetectionMap(scores)
    labels, _ = ndimage.label(scores > threshold, structure=EIGHT_CONNECTED)
    rois = []
    for lab, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        rr, cc = np.nonzero(labels[rows, cols] == lab)
        rr += rows.start
        cc += cols.start
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
