"""One-value reference computations that the tests hold the pipeline's
vectorized kernels to: ACE for one pixel, ACE through the symmetric
whitener, scipy.ndimage's 8-connected ROI labelling, the
multiplicity-counting member sum of a class, the sub-model rule of a strict
Occam search, one pair of models at a time, a column sum one row at a time,
and a pixel average one pixel at a time."""

import numpy as np
from scipy import ndimage

from conftest import model_rows
from specid.core import ImageCube, Spectrum
from specid.detection import BackgroundStats, _values_on
from specid.errors import BoundsError, InputError, NumericalError


def ace_score(pixel, target, stats: BackgroundStats) -> float:
    """Signed whitened cosine between pixel and target, in [-1, 1]."""
    x = stats.whiten(_values_on(stats, pixel, "pixel"))
    t = stats.whiten(_values_on(stats, target, "target"))
    xn = float(np.linalg.norm(x))
    tn = float(np.linalg.norm(t))
    if xn == 0.0 or tn == 0.0:
        raise NumericalError("whitened pixel or target has zero norm")
    return float(np.clip((t @ x) / (tn * xn), -1.0, 1.0))


def symmetric_ace_scores(pixels, target, mean, covariance) -> np.ndarray:
    """ACE scores of a (..., bands) stack through the symmetric inverse square
    root of the covariance, by its eigendecomposition; 0 at the mean."""
    evals, evecs = np.linalg.eigh(covariance)
    whitener = (evecs / np.sqrt(evals)) @ evecs.T
    white = (np.asarray(pixels) - mean) @ whitener
    twhite = (np.asarray(target) - mean) @ whitener
    norms = np.linalg.norm(white, axis=-1)
    cosine = (white @ twhite) / np.where(norms == 0.0, 1.0, norms) / np.linalg.norm(twhite)
    return np.clip(cosine, -1.0, 1.0)


def reference_rois(mask) -> list:
    """The 8-connected regions of a boolean mask by scipy.ndimage, in label
    order, each a raster-ordered tuple of (row, col) pairs."""
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    rois = []
    for lab, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        rr, cc = np.nonzero(labels[rows, cols] == lab)
        rr += rows.start
        cc += cols.start
        rois.append(tuple(zip(rr.tolist(), cc.tolist())))
    return rois


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


def reference_submodel_beaten(rows, bics) -> list:
    """Madigan & Raftery's (1994) second Occam rule: whether a strict sub-model
    among the models has a lower BIC than each one, every model compared with
    every smaller one. Model i holds the candidates rows[i] (no padding) and
    has BIC bics[i]; a tie does not beat."""
    sets = [(frozenset(row), b) for row, b in zip(rows, bics)]
    beaten = [any(small < big and small_bic < big_bic
                  for small, small_bic in sets if len(small) < len(big))
              for big, big_bic in sets]
    return beaten


def reference_ordered_sum(blocks) -> np.ndarray:
    """Column sums of the blocks' rows, added one row at a time in order to +0.0."""
    acc = np.zeros(blocks[0].shape[1])
    for block in blocks:
        for row in block:
            acc += row
    return acc


def reference_average_pixels(cube: ImageCube, coords) -> Spectrum:
    """Mean spectrum over a set of (row, col) coordinates, summed in their order."""
    coords = list(coords)
    if not coords:
        raise InputError("average_pixels needs at least one coordinate")
    acc = np.zeros(len(cube.grid))
    for values in reference_pixel_values(cube, coords):
        acc += values
    return Spectrum("avg_%dpx" % len(coords), cube.grid, acc / len(coords))


def reference_pixel_values(cube: ImageCube, coords):
    """Each coordinate's values in turn, valid until the next is drawn.

    A row is read once for each run of coordinates on it, so coordinates
    in row-major order read each of their rows once.
    """
    read = cube.reader()
    current = None
    for row, col in coords:
        if not (0 <= row < cube.rows and 0 <= col < cube.cols):
            raise BoundsError("pixel (%d, %d) outside %dx%d cube"
                              % (row, col, cube.rows, cube.cols))
        if row != current:
            line, current = read(row, row + 1)[0], row
        yield line[col]
