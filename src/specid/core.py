"""Core spectral types: band grids, spectra, libraries, class hierarchies, cubes.

Wavelengths are always micrometers internally. A spectrum may carry a per-band
validity mask (resampling marks non-overlapping bands invalid); a library folds
the masks of all its members into one band mask that downstream fitting applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, BoundsError, InputError

ROOT_LABEL = "Library"
# about this many values per row block, where a cube is converted or scored
# (2 MiB as float64). detect holds each worker's block a few times over, so
# larger blocks raise its peak RSS; smaller ones lowered it no further
BLOCK_VALUES = 1 << 18
# the background sums take blocks of this many pixels: a multiple of the
# 256, 384, 512 and 768-pixel panels OpenBLAS sums a Gram over
PIXEL_BLOCK_STEP = 3072


def _as_float_vector(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError("%s must be one-dimensional, got shape %r" % (what, arr.shape))
    return arr


@dataclass(frozen=True, eq=False)
class BandGrid:
    """Strictly increasing wavelength grid in micrometers (at least 2 bands)."""

    wavelengths: np.ndarray

    def __post_init__(self):
        wl = _as_float_vector(self.wavelengths, "wavelengths")
        if wl.size < 2:
            raise InputError("a band grid needs at least 2 bands, got %d" % wl.size)
        if not np.all(np.isfinite(wl)) or not np.all(wl > 0):
            raise InputError("wavelengths must be finite and positive")
        if not np.all(np.diff(wl) > 0):
            raise InputError("wavelengths must be strictly increasing")
        wl = wl.copy()
        wl.flags.writeable = False
        object.__setattr__(self, "wavelengths", wl)

    def __len__(self) -> int:
        return self.wavelengths.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BandGrid):
            return NotImplemented
        return np.array_equal(self.wavelengths, other.wavelengths)

    def __hash__(self):
        return hash((self.wavelengths.size,
                     float(self.wavelengths[0]), float(self.wavelengths[-1])))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A named spectrum on a grid, optionally tagged with a class path.

    `class_path` orders labels root-first and excludes the implicit library
    root. `valid` is a per-band usability mask; None means all bands usable.
    """

    name: str
    grid: BandGrid
    values: np.ndarray
    class_path: tuple = ()
    valid: np.ndarray | None = None

    def __post_init__(self):
        vals = _as_float_vector(self.values, "values")
        if vals.size != len(self.grid):
            raise InputError("spectrum %r has %d values for %d bands"
                             % (self.name, vals.size, len(self.grid)))
        if not np.all(np.isfinite(vals)):
            raise InputError("spectrum %r contains non-finite values" % self.name)
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "class_path", tuple(str(c) for c in self.class_path))
        if ROOT_LABEL in self.class_path:
            raise InputError("class path of %r must not contain the implicit root %r"
                             % (self.name, ROOT_LABEL))
        if self.valid is not None:
            mask = np.asarray(self.valid, dtype=bool)
            if mask.shape != vals.shape:
                raise InputError("validity mask of %r does not match band count" % self.name)
            mask = mask.copy()
            mask.flags.writeable = False
            object.__setattr__(self, "valid", mask)

    def valid_mask(self) -> np.ndarray:
        if self.valid is None:
            return np.ones(len(self.grid), dtype=bool)
        return self.valid


class ClassHierarchy:
    """Tree of class labels with an implicit root node named by ROOT_LABEL.

    Nodes are addressed by tuples of labels below the root; () is the root.
    Every spectrum name is attached at its full class path, and `members`
    of a node is the set of names at or below it.
    """

    def __init__(self, named_paths):
        members = {(): set()}
        for name, path in named_paths:
            path = tuple(path)
            if not path:
                raise InputError("spectrum %r has an empty class path" % name)
            for depth in range(len(path) + 1):
                members.setdefault(path[:depth], set()).add(name)
        self._members = {node: frozenset(names) for node, names in members.items()}
        children = {node: set() for node in self._members}
        for node in self._members:
            if node:
                children[node[:-1]].add(node)
        self._children = {node: tuple(sorted(kids)) for node, kids in children.items()}

    def nodes(self) -> tuple:
        return tuple(sorted(self._members))

    def children(self, node) -> tuple:
        return self._children[self._resolve(node)]

    def members(self, node) -> frozenset:
        return self._members[self._resolve(node)]

    def label(self, node) -> str:
        node = self._resolve(node)
        return node[-1] if node else ROOT_LABEL

    def has_node(self, node) -> bool:
        try:
            self._resolve(node)
        except InputError:
            return False
        return True

    def _resolve(self, node) -> tuple:
        """Accept a node path, or a unique label anywhere in the tree."""
        if isinstance(node, tuple):
            if node in self._members:
                return node
            raise InputError("unknown hierarchy node %r" % (node,))
        if node == ROOT_LABEL:
            return ()
        hits = [p for p in self._members if p and p[-1] == node]
        if not hits:
            raise InputError("unknown class label %r" % node)
        if len(hits) > 1:
            raise InputError("class label %r is ambiguous: %r" % (node, sorted(hits)))
        return hits[0]


@dataclass(frozen=True, eq=False)
class SpectralLibrary:
    """Labeled spectra on one shared grid, plus the derived class hierarchy.

    `band_mask` marks the bands usable for fitting: the constructor argument
    ANDed with every member's validity mask.
    """

    grid: BandGrid
    spectra: tuple
    band_mask: np.ndarray = None
    hierarchy: ClassHierarchy = field(init=False, repr=False)

    def __post_init__(self):
        spectra = tuple(self.spectra)
        if not spectra:
            raise InputError("a spectral library needs at least one spectrum")
        names = [s.name for s in spectra]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InputError("duplicate spectrum names in library: %r" % dupes)
        mask = np.ones(len(self.grid), dtype=bool) if self.band_mask is None \
            else np.asarray(self.band_mask, dtype=bool).copy()
        if mask.size != len(self.grid):
            raise InputError("band mask length %d does not match %d bands"
                             % (mask.size, len(self.grid)))
        for s in spectra:
            if s.grid != self.grid:
                raise AlignmentError("spectrum %r is not on the library grid" % s.name)
            if not s.class_path:
                raise InputError("library spectrum %r has no class path" % s.name)
            mask &= s.valid_mask()
        if not mask.any():
            raise InputError("library has no usable bands after masking")
        mask.flags.writeable = False
        object.__setattr__(self, "spectra", spectra)
        object.__setattr__(self, "band_mask", mask)
        object.__setattr__(self, "hierarchy",
                           ClassHierarchy([(s.name, s.class_path) for s in spectra]))

    @property
    def names(self) -> tuple:
        return tuple(s.name for s in self.spectra)

    def matrix(self) -> np.ndarray:
        """Band-by-spectrum matrix over the full (unmasked) grid."""
        return np.column_stack([s.values for s in self.spectra])

    def spectrum(self, name: str) -> Spectrum:
        for s in self.spectra:
            if s.name == name:
                return s
        raise InputError("no spectrum named %r in library" % name)


class ImageCube:
    """Image data as (rows, cols, bands) float64 on a band grid.

    Consumers read rows through `reader()`; `data` is the whole cube as one
    array. io_formats.read_envi returns a subclass that leaves the values in
    its file and converts rows when they are read.
    """

    def __init__(self, grid: BandGrid, data: np.ndarray):
        # canonical C layout: equal-valued cubes reduce in the same order
        # no matter which interleave they were loaded from
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 3:
            raise InputError("cube data must be (rows, cols, bands), got shape %r"
                             % (data.shape,))
        if data.shape[2] != len(grid):
            raise InputError("cube has %d bands but grid has %d"
                             % (data.shape[2], len(grid)))
        # min and max carry any NaN or infinity, without a cube-sized mask
        if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise InputError("cube contains non-finite values")
        self.grid, self.shape, self._data = grid, data.shape, data

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def bands(self) -> int:
        return self.shape[2]

    @property
    def data(self) -> np.ndarray:
        return self._data

    def reader(self):
        """A function `read(lo, hi, out=None)`: rows lo:hi, C-contiguous float64.

        Given `out`, a C-contiguous (hi - lo, cols, bands) float64 array, the
        rows are written into it and it is returned. Without, the rows of
        `data` are returned as a view. A subclass that converts rows may
        return a buffer of the reader's own, reused from call to call: such a
        block holds until the next call, so each thread takes its own reader.
        """
        data = self.data

        def read(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
            if out is None:
                return data[lo:hi]
            out[...] = data[lo:hi]
            return out

        return read


def block_rows(values_per_row: int) -> int:
    """Rows per block of a cube: about BLOCK_VALUES values, a multiple of 4.

    Multiples of 4 rows put every block's first pixel on a multiple of 4,
    the pixel grouping of OpenBLAS's matrix-vector kernel.
    """
    return max(4, BLOCK_VALUES // values_per_row // 4 * 4)


def block_bounds(count: int, step: int) -> list:
    """(start, stop) of blocks of `step` items over `count`, in order.

    A short last block joins the one before it, so no block is shorter than
    `step` unless `count` is: the last block holds up to 2 * step - 1 items.
    """
    starts = list(range(0, max(1, count // step) * step, step))
    return list(zip(starts, starts[1:] + [count]))


def resample(spectrum: Spectrum, target: BandGrid) -> Spectrum:
    """Linearly interpolate a spectrum onto `target`.

    Target bands outside the source's valid wavelength range are marked
    invalid (value 0). Wavelengths shared by both grids reproduce the source
    values exactly. Raises AlignmentError when the ranges do not overlap.
    """
    src_mask = spectrum.valid_mask()
    if not src_mask.any():
        raise AlignmentError("spectrum %r has no valid bands to resample" % spectrum.name)
    src_wl = spectrum.grid.wavelengths[src_mask]
    src_val = spectrum.values[src_mask]
    lo, hi = src_wl[0], src_wl[-1]
    twl = target.wavelengths
    inside = (twl >= lo) & (twl <= hi)
    if not inside.any():
        raise AlignmentError(
            "no overlap: %r covers %.4f-%.4f um, target covers %.4f-%.4f um"
            % (spectrum.name, lo, hi, twl[0], twl[-1]))
    out = np.zeros(len(target))
    out[inside] = np.interp(twl[inside], src_wl, src_val)
    return Spectrum(spectrum.name, target, out, spectrum.class_path,
                    valid=inside if not inside.all() else None)


def resample_library(library: SpectralLibrary, target: BandGrid) -> SpectralLibrary:
    """Resample every member onto `target`; member masks fold into the band mask."""
    return SpectralLibrary(target, tuple(resample(s, target) for s in library.spectra))


def mix(components, noise_sigma: float = 0.0, seed: int = 0) -> Spectrum:
    """Linear mixture sum(a_i * x_i) plus per-band Gaussian noise.

    `components` is a sequence of (Spectrum, abundance) pairs on one shared
    grid. Deterministic for a given seed.
    """
    components = list(components)
    if not components:
        raise InputError("mix needs at least one component")
    if noise_sigma < 0:
        raise InputError("noise_sigma must be >= 0, got %r" % noise_sigma)
    grid = components[0][0].grid
    total = np.zeros(len(grid))
    valid = np.ones(len(grid), dtype=bool)
    for spec, abundance in components:
        if spec.grid != grid:
            raise AlignmentError("mixture component %r is on a different grid" % spec.name)
        total += float(abundance) * spec.values
        valid &= spec.valid_mask()
    if noise_sigma > 0:
        total = total + np.random.default_rng(seed).normal(0.0, noise_sigma, len(grid))
    return Spectrum("mixture", grid, total, (), valid=None if valid.all() else valid)


def extract_pixel(cube: ImageCube, row: int, col: int) -> Spectrum:
    """Pixel (row, col) as a Spectrum with an empty class path."""
    values, = _pixel_values(cube, [(row, col)])
    return Spectrum("pixel_%d_%d" % (row, col), cube.grid, values)


def average_pixels(cube: ImageCube, coords) -> Spectrum:
    """Mean spectrum over a set of (row, col) coordinates, summed in their order."""
    coords = list(coords)
    if not coords:
        raise InputError("average_pixels needs at least one coordinate")
    acc = np.zeros(len(cube.grid))
    for values in _pixel_values(cube, coords):
        acc += values
    return Spectrum("avg_%dpx" % len(coords), cube.grid, acc / len(coords))


def _pixel_values(cube: ImageCube, coords):
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
