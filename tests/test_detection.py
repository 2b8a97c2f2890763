"""Background statistics, whitened-cosine scoring, ROI grouping, removal."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_envi_cube
import specid.core
from specid.core import (PIXEL_BLOCK_STEP, BandGrid, ImageCube, Spectrum,
                         average_pixels)
from specid.detection import (BackgroundStats, DetectionMap, RegionOfInterest,
                              _score_block, annulus_coordinates, background_removal,
                              background_stats, detect)
from specid.errors import AlignmentError, InputError, NumericalError
from specid.io_formats import read_envi
from oracles import ace_score
from synth import make_scene


def noise_cube(rng, rows=8, cols=9, bands=4, loc=0.5, scale=0.05):
    grid = BandGrid(np.linspace(0.4, 1.0, bands))
    return ImageCube(grid, rng.normal(loc, scale, (rows, cols, bands)))


class TestBackgroundStats:
    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(1)
        cube = noise_cube(rng)
        for lam in (0.0, 0.01, 0.3):
            stats = background_stats(cube, shrinkage=lam)
            flat = cube.data.reshape(-1, 4)
            np.testing.assert_allclose(stats.mean, flat.mean(axis=0), rtol=1e-13)
            cov = np.cov(flat, rowvar=False, ddof=1)
            shrunk = (1 - lam) * cov + lam * np.diag(np.diag(cov))
            np.testing.assert_allclose(stats.covariance, shrunk, rtol=1e-10)
            assert stats.shrinkage == lam

    def test_full_shrinkage_is_diagonal(self):
        rng = np.random.default_rng(2)
        stats = background_stats(noise_cube(rng), shrinkage=1.0)
        off = stats.covariance - np.diag(np.diag(stats.covariance))
        assert np.abs(off).max() == 0.0

    def test_pixel_mask(self):
        rng = np.random.default_rng(3)
        cube = noise_cube(rng)
        mask = rng.random((8, 9)) < 0.4
        stats = background_stats(cube, mask=mask)
        flat = cube.data.reshape(-1, 4)[mask.reshape(-1)]
        np.testing.assert_allclose(stats.mean, flat.mean(axis=0), rtol=1e-13)

    def test_rejects(self):
        rng = np.random.default_rng(4)
        cube = noise_cube(rng)
        with pytest.raises(InputError):
            background_stats(cube, shrinkage=-0.1)
        with pytest.raises(InputError):
            background_stats(cube, shrinkage=1.5)
        with pytest.raises(InputError):
            background_stats(cube, mask=np.zeros((3, 3), dtype=bool))
        only_one = np.zeros((8, 9), dtype=bool)
        only_one[0, 0] = True
        with pytest.raises(InputError):
            background_stats(cube, mask=only_one)

    def test_constant_cube_is_singular(self):
        grid = BandGrid(np.linspace(0.4, 1.0, 4))
        # 0.25 is exactly representable: the centered data and covariance
        # are exactly zero rather than fp residue
        cube = ImageCube(grid, np.full((5, 5, 4), 0.25))
        with pytest.raises(NumericalError):
            background_stats(cube)

    def test_whitener_inverts_covariance(self):
        rng = np.random.default_rng(5)
        stats = background_stats(noise_cube(rng, rows=20, cols=20))
        ident = stats.whitener @ stats.covariance @ stats.whitener.T
        np.testing.assert_allclose(ident, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(stats.whiten(stats.mean), np.zeros(4), atol=1e-12)
        stack = rng.normal(0.5, 0.1, (6, 4))
        np.testing.assert_allclose(stats.whiten(stack),
                                   (stack - stats.mean) @ stats.whitener.T)

    def test_validation(self):
        with pytest.raises(InputError):
            BackgroundStats(np.zeros(3), np.eye(4), 0.0)
        lopsided = np.eye(3)
        lopsided[0, 1] = 0.5
        with pytest.raises(InputError):
            BackgroundStats(np.zeros(3), lopsided, 0.0)
        with pytest.raises(NumericalError):
            BackgroundStats(np.zeros(3), np.zeros((3, 3)), 0.0)


def reference_background_stats(cube, shrinkage=0.01, mask=None):
    """background_stats as it was before it summed in pixel blocks: whole-array steps."""
    if not 0.0 <= shrinkage <= 1.0:
        raise InputError("shrinkage must be in [0, 1], got %r" % shrinkage)
    flat = cube.data.reshape(-1, cube.data.shape[2])
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (cube.rows, cube.cols):
            raise InputError("pixel mask shape %r does not match cube %r"
                             % (mask.shape, (cube.rows, cube.cols)))
        flat = flat[mask.reshape(-1)]
    if flat.shape[0] < 2:
        raise InputError("need at least 2 pixels for background statistics, got %d"
                         % flat.shape[0])
    mean = flat.mean(axis=0)
    centered = flat - mean
    cov = (centered.T @ centered) / (flat.shape[0] - 1)
    shrunk = (1.0 - shrinkage) * cov + shrinkage * np.diag(np.diag(cov))
    return BackgroundStats(mean, shrunk, shrinkage)


def stats_bytes(function, *args):
    """mean, covariance and whitener bytes, or the error a call raised."""
    try:
        stats = function(*args)
    except (InputError, NumericalError) as exc:
        return type(exc), str(exc)
    return stats.mean.tobytes(), stats.covariance.tobytes(), stats.whitener.tobytes()


@st.composite
def stats_inputs(draw):
    """A cube, shrinkage and mask whose selected pixels span 1 to 4 blocks."""
    step = PIXEL_BLOCK_STEP
    count = draw(st.one_of(
        st.integers(2, 4 * step + 3),
        st.builds(lambda k, d: max(2, k * step + d), st.integers(1, 4),
                  st.integers(-3, 3))))
    # a band grid has at least 2 bands, so a cube can never be one band wide
    bands = draw(st.integers(2, 130))
    masked = draw(st.booleans())
    rows = count + (draw(st.integers(1, 50)) if masked else 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(0.4, 0.1, (rows, 1, bands)) * 10.0 ** rng.integers(-3, 4)
    cube = ImageCube(BandGrid(np.linspace(0.4, 2.4, bands)), data)
    mask = None
    if masked:
        mask = np.zeros((rows, 1), dtype=bool)
        mask[rng.choice(rows, count, replace=False)] = True
    shrinkage = draw(st.one_of(st.sampled_from([0.0, 0.01, 1.0]), st.floats(0.0, 1.0)))
    return cube, shrinkage, mask


class TestBlockedStats:
    """background_stats sums a cube's pixels a block at a time."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stats_inputs())
    def test_blocked_sums_match_the_whole_array_sums(self, inputs):
        cube, shrinkage, mask = inputs
        # one step per block: a few thousand pixels span several blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specid.core, "BLOCK_VALUES", 1)
            got = stats_bytes(background_stats, cube, shrinkage, mask)
        assert got == stats_bytes(reference_background_stats, cube, shrinkage, mask)

    def test_real_size_blocks_on_one_blas_thread(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", BLOCKED_STATS_MATCH_WHOLE],
                              capture_output=True, text=True, env=env,
                              cwd=os.path.dirname(__file__))
        assert proc.returncode == 0, proc.stderr

    def test_peak_is_two_blocks_and_the_band_matrices(self, monkeypatch):
        rows, cols, bands = 240, 100, 32
        monkeypatch.setattr(specid.core, "BLOCK_VALUES", PIXEL_BLOCK_STEP * bands)
        rng = np.random.default_rng(17)
        cube = ImageCube(BandGrid(np.linspace(0.4, 2.4, bands)),
                         rng.uniform(0.1, 0.6, (rows, cols, bands)))
        background_stats(cube)   # the lazy import is done
        tracemalloc.start()
        try:
            background_stats(cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * PIXEL_BLOCK_STEP * bands
        # 24,000 pixels are 6 blocks and a last one of 1.8: no block is 2
        # blocks long, and one block's centred copy, or its rows after the
        # running total, is all the pixel data held beside the cube. The
        # bands² matrices: the Gram matrix, its triangle indices and the
        # shrunk copy with two temporaries, then eigh's copy, eigenvectors
        # and workspace.
        matrices = 8 * 8 * bands ** 2
        assert peak <= (2 * block + matrices + TestRowBlocks.ufunc_buffer
                        + TestRowBlocks.objects)


class TestAceScore:
    """The one-pixel oracle's properties, and the scores detect writes equal it."""

    def stats(self):
        rng = np.random.default_rng(6)
        return background_stats(noise_cube(rng, rows=15, cols=15))

    def test_score_block_equals_the_oracle(self):
        stats = self.stats()
        rng = np.random.default_rng(11)
        target = stats.mean + np.array([0.1, -0.05, 0.08, 0.02])
        block = rng.normal(0.5, 0.2, (6, 7, 4))
        scores = _score_block(block, stats, stats.whiten(target))
        assert scores.shape == (6, 7)
        want = [[ace_score(pixel, target, stats) for pixel in row] for row in block]
        np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)

    def test_target_scores_one_against_itself(self):
        stats = self.stats()
        target = stats.mean + np.array([0.1, -0.05, 0.08, 0.02])
        assert ace_score(target, target, stats) == pytest.approx(1.0, abs=1e-12)

    def test_range_and_symmetry(self):
        stats = self.stats()
        rng = np.random.default_rng(7)
        target = stats.mean + np.array([0.1, -0.05, 0.08, 0.02])
        for _ in range(50):
            pixel = rng.normal(0.5, 0.2, 4)
            s = ace_score(pixel, target, stats)
            assert -1.0 <= s <= 1.0
            assert ace_score(target, pixel, stats) == pytest.approx(s, abs=1e-12)

    def test_invariant_to_scaling_about_the_mean(self):
        stats = self.stats()
        rng = np.random.default_rng(8)
        target = stats.mean + np.array([0.1, -0.05, 0.08, 0.02])
        pixel = rng.normal(0.5, 0.2, 4)
        base = ace_score(pixel, target, stats)
        stretched = stats.mean + 7.5 * (pixel - stats.mean)
        assert ace_score(stretched, target, stats) == pytest.approx(base, abs=1e-10)
        flipped = stats.mean - (pixel - stats.mean)
        assert ace_score(flipped, target, stats) == pytest.approx(-base, abs=1e-10)

    def test_spectrum_and_vector_agree(self):
        stats = self.stats()
        grid = BandGrid(np.linspace(0.4, 1.0, 4))
        target = np.array([0.6, 0.4, 0.7, 0.5])
        pixel = np.array([0.55, 0.5, 0.6, 0.45])
        as_spec = ace_score(Spectrum("px", grid, pixel),
                            Spectrum("t", grid, target), stats)
        assert as_spec == ace_score(pixel, target, stats)

    def test_zero_norm_and_alignment(self):
        stats = self.stats()
        target = stats.mean + 0.1
        with pytest.raises(NumericalError):
            ace_score(stats.mean, target, stats)
        with pytest.raises(NumericalError):
            ace_score(target, stats.mean, stats)
        with pytest.raises(AlignmentError):
            ace_score(np.zeros(7), target, stats)


def implant_cube(seed=9, bands=4):
    """Flat noisy background with a distinctive shape at chosen pixels."""
    rng = np.random.default_rng(seed)
    grid = BandGrid(np.linspace(0.4, 1.0, bands))
    data = rng.normal(0.5, 0.01, (12, 14, bands))
    target = np.array([0.9, 0.2, 0.85, 0.15])
    return grid, data, target


def test_detection_map_refuses_scores_that_are_not_a_map():
    with pytest.raises(InputError, match=r"^scores must be \(rows, cols\)$"):
        DetectionMap(np.zeros(6))


def test_detection_map_refuses_non_finite_scores():
    scores = np.zeros((2, 3))
    scores[1, 2] = np.nan
    with pytest.raises(NumericalError, match="^detection map contains non-finite scores$"):
        DetectionMap(scores)


class TestDetect:
    def test_threshold_validation(self):
        grid, data, target = implant_cube()
        cube = ImageCube(grid, data)
        stats = background_stats(cube)
        for bad in (-1.0, 1.0, 1.5):
            with pytest.raises(InputError):
                detect(cube, target, stats, threshold=bad)

    def test_target_grid_mismatch(self):
        grid, data, target = implant_cube()
        cube = ImageCube(grid, data)
        stats = background_stats(cube)
        other = BandGrid(np.linspace(1.4, 2.0, 4))
        with pytest.raises(AlignmentError):
            detect(cube, Spectrum("t", other, target), stats, threshold=0.5)

    def test_diagonal_pixels_join_one_roi(self):
        grid, data, target = implant_cube()
        for r, c in [(2, 2), (3, 3), (8, 10)]:
            data[r, c] = target
        cube = ImageCube(grid, data)
        stats = background_stats(cube)
        dmap, rois = detect(cube, target, stats, threshold=0.9)
        assert isinstance(dmap, DetectionMap)
        assert len(rois) == 2        # the diagonal pair is 8-connected
        assert rois[0].pixels in (((2, 2), (3, 3)), ((8, 10),))
        merged = next(r for r in rois if len(r.pixels) == 2)
        assert merged.pixels == ((2, 2), (3, 3))
        assert merged.peak_score >= merged.mean_score
        np.testing.assert_allclose(
            merged.average.values,
            average_pixels(cube, merged.pixels).values)

    def test_rois_sorted_by_peak_then_position(self):
        grid, data, target = implant_cube(seed=10)
        for r, c in [(1, 1), (5, 7), (9, 2)]:
            data[r, c] = 0.5 + (target - 0.5) * (0.5 + 0.1 * r)
        cube = ImageCube(grid, data)
        stats = background_stats(cube)
        _, rois = detect(cube, target, stats, threshold=0.6)
        ranks = [(-r.peak_score, r.pixels[0]) for r in rois]
        assert ranks == sorted(ranks)

    def test_target_at_the_mean_is_a_numerical_error(self):
        grid, data, _ = implant_cube(seed=11)
        cube = ImageCube(grid, data)
        stats = background_stats(cube)
        with pytest.raises(NumericalError, match="whitened target has zero norm"):
            detect(cube, stats.mean, stats, threshold=0.5)

    def test_mean_pixel_scores_zero(self):
        grid, data, target = implant_cube(seed=11)
        cube = ImageCube(grid, data)
        stats = background_stats(cube)
        data2 = data.copy()
        data2[4, 4] = stats.mean        # exactly the background mean
        cube2 = ImageCube(grid, data2)
        dmap, _ = detect(cube2, target, stats, threshold=0.5)
        assert dmap.scores[4, 4] == 0.0

    def test_thread_split_matches_single_thread(self):
        cube, library, target_names, _, _ = make_scene(0)
        values = np.mean([library.spectrum(n).values for n in target_names], axis=0)
        target = Spectrum("target", library.grid, values)
        stats = background_stats(cube)
        one, _ = detect(cube, target, stats, threshold=0.5, threads=1)
        four, _ = detect(cube, target, stats, threshold=0.5, threads=4)
        np.testing.assert_array_equal(one.scores, four.scores)

    def test_rois_partition_the_pixels_above_threshold(self):
        rng = np.random.default_rng(20)
        cube = noise_cube(rng, rows=40, cols=30, bands=6)
        stats = background_stats(cube)
        dmap, rois = detect(cube, cube.data[7, 11], stats, threshold=0.3)
        assert len(rois) > 10
        above = {tuple(p) for p in np.argwhere(dmap.scores > 0.3).tolist()}
        seen = set()
        for roi in rois:
            assert list(roi.pixels) == sorted(roi.pixels)   # row-major
            assert seen.isdisjoint(roi.pixels)
            seen.update(roi.pixels)
            vals = np.array([dmap.scores[p] for p in roi.pixels])
            assert roi.peak_score == vals.max() and roi.mean_score == vals.mean()
            np.testing.assert_array_equal(roi.average.values,
                                          average_pixels(cube, roi.pixels).values)
        assert seen == above

    @pytest.mark.parametrize("seed", [0, 1])
    def test_implanted_scene_yields_single_roi(self, seed):
        cube, library, target_names, _, implant_pixels = make_scene(seed)
        values = np.mean([library.spectrum(n).values for n in target_names], axis=0)
        target = Spectrum("target", library.grid, values)
        stats = background_stats(cube)
        first, _ = detect(cube, target, stats, threshold=0.0)
        cut = float(np.quantile(first.scores, 0.999))
        _, rois = detect(cube, target, stats, threshold=cut)
        assert len(rois) == 1
        assert set(rois[0].pixels) == set(implant_pixels)


# 5 columns by 124 bands at the real block size: blocks of 420 rows. Two
# blocks and 1 row: alone, the last row would be a block of 5 pixels, which
# OpenBLAS whitens with its small-matrix kernels, not the whole cube's.
BLOCKS_MATCH_WHOLE_CUBE = """
import numpy as np
from specid.core import BandGrid, ImageCube, block_rows
from specid.detection import _score_block, background_stats, detect

step = block_rows(5 * 124)
assert step == 420, step
rng = np.random.default_rng(14)
grid = BandGrid(np.linspace(0.4, 2.4, 124))
cube = ImageCube(grid, rng.normal(0.5, 0.05, (2 * step + 1, 5, 124)))
stats = background_stats(cube)
target = rng.normal(0.5, 0.1, 124)
whole = _score_block(cube.data, stats, stats.whiten(target))
for threads in (1, 3):
    dmap, _ = detect(cube, target, stats, threshold=0.5, threads=threads)
    assert dmap.scores.tobytes() == whole.tobytes(), threads
"""


# 124 bands at the real block size: blocks of 3,072 pixels. 49 x 193 pixels
# are 3 blocks and a tail of 241 that joins the last, and 3,072 is no
# multiple of 193, so every block boundary falls inside a row; the mask keeps
# about 2.8 blocks of them.
BLOCKED_STATS_MATCH_WHOLE = """
import numpy as np
from specid.core import PIXEL_BLOCK_STEP, BandGrid, ImageCube
from specid.detection import background_stats
from test_detection import reference_background_stats, stats_bytes

assert PIXEL_BLOCK_STEP == 3072, PIXEL_BLOCK_STEP
rng = np.random.default_rng(18)
grid = BandGrid(np.linspace(0.4, 2.4, 124))
cube = ImageCube(grid, rng.normal(0.5, 0.05, (49, 193, 124)))
for mask in (None, rng.random((49, 193)) < 0.9):
    got = stats_bytes(background_stats, cube, 0.01, mask)
    assert got == stats_bytes(reference_background_stats, cube, 0.01, mask)
"""


# A 50 x 193 cube as an int16 BIL file whose one bad band leaves 63, opened
# file-backed (and read once its directory is gone): 50 x 193 pixels are 3
# pixel blocks of 3,072 and a tail, and 3,072 is no multiple of 193, so every
# block boundary falls inside a row; row blocks of 20 rows
# (block_rows(193 * 63)) make 2 scoring blocks, one per worker at 3 threads.
# Above 85 bands a pixel block holds more values than a row block, so no
# cube there has 3 pixel blocks in 2 row blocks: hence 63 bands.
FILE_BACKED_MATCHES_WHOLE = """
import tempfile
import numpy as np
from conftest import write_envi_cube
from specid.core import PIXEL_BLOCK_STEP, BandGrid, ImageCube, average_pixels, block_rows
from specid.detection import _score_block, background_stats, detect
from specid.io_formats import read_envi
from test_detection import reference_background_stats, stats_bytes
from test_io_formats import reference_read_envi

assert block_rows(193 * 63) == 20 and PIXEL_BLOCK_STEP == 3072
rng = np.random.default_rng(24)
grid = BandGrid(np.linspace(0.4, 2.4, 64))
source = ImageCube(grid, rng.normal(0.5, 0.05, (50, 193, 64)))
with tempfile.TemporaryDirectory() as tmp:
    hdr, _ = write_envi_cube(tmp, source, interleave="bil", data_type=2,
                             bbl=[1] * 30 + [0] + [1] * 33)
    cube = read_envi(str(hdr))
    whole = reference_read_envi(str(hdr))
for mask in (None, rng.random((50, 193)) < 0.9):
    got = stats_bytes(background_stats, cube, 0.01, mask)
    assert got == stats_bytes(reference_background_stats, whole, 0.01, mask)
stats = background_stats(cube)
target = whole.data[25, 60]
want = _score_block(whole.data, stats, stats.whiten(target))
for threads in (1, 3):
    dmap, rois = detect(cube, target, stats, threshold=0.5, threads=threads)
    assert dmap.scores.tobytes() == want.tobytes(), threads
    assert rois and all(roi.average.values.tobytes() == average_pixels(whole, roi.pixels)
                        .values.tobytes() for roi in rois)
assert cube._data is None   # read a block at a time, never whole
"""


@st.composite
def file_cubes(draw):
    """An ENVI file of a cube a few pixel blocks long, and a mask or None."""
    rows, cols = draw(st.integers(20, 90)), draw(st.integers(40, 130))
    bands = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = BandGrid(np.linspace(0.4, 2.4, bands))
    cube = ImageCube(grid, rng.uniform(0.0, 0.6, (rows, cols, bands)))
    layout = {"interleave": draw(st.sampled_from(["bsq", "bil", "bip"])),
              "data_type": draw(st.sampled_from([2, 4, 5, 12])),
              "byte_order": draw(st.sampled_from([0, 1])),
              "header_offset": draw(st.sampled_from([0, 9]))}
    mask = None
    if draw(st.booleans()):
        mask = rng.random((rows, cols)) < draw(st.sampled_from([0.05, 0.5, 0.97]))
    block_values = draw(st.integers(1, 16 * cols * bands))
    return cube, layout, mask, block_values


class TestFileBacked:
    """A file-backed cube gives the bits of the same values held as an array."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(file_cubes())
    def test_stats_and_detect_match_an_array_cube(self, tmp_path_factory, inputs):
        source, layout, mask, block_values = inputs
        hdr, _ = write_envi_cube(tmp_path_factory.mktemp("cube"), source, **layout)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specid.core, "BLOCK_VALUES", block_values)
            cube = read_envi(str(hdr))
            array = ImageCube(cube.grid, read_envi(str(hdr)).data)
            got = stats_bytes(background_stats, cube, 0.01, mask)
            assert got == stats_bytes(reference_background_stats, array, 0.01, mask)
            if isinstance(got[0], type):
                return
            stats = background_stats(array, 0.01, mask)
            target = array.data[-1, -1]
            want, _ = detect(array, target, stats, threshold=0.2)
            for threads in (1, 3):
                dmap, rois = detect(cube, target, stats, threshold=0.2, threads=threads)
                assert dmap.scores.tobytes() == want.scores.tobytes()
                for roi in rois:
                    assert roi.average.values.tobytes() == \
                        average_pixels(array, roi.pixels).values.tobytes()
        assert cube._data is None

    def test_real_size_blocks_match_whole_arrays_on_one_blas_thread(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", FILE_BACKED_MATCHES_WHOLE],
                              capture_output=True, text=True, env=env,
                              cwd=os.path.dirname(__file__))
        assert proc.returncode == 0, proc.stderr


class TestRowBlocks:
    """detect() scores, and read_envi() converts, a cube a row block at a time."""

    rows, cols, bands = 240, 100, 32     # 6.1 MB as float64, 30 blocks of 8 rows
    block_rows = 8
    # fixed costs, whatever the cube: one numpy ufunc buffer per worker, and
    # the interpreter's own objects (executor, threads, futures, one ROI)
    ufunc_buffer = np.getbufsize() * 8
    objects = 64 * 1024

    def cube(self, seed):
        rng = np.random.default_rng(seed)
        grid = BandGrid(np.linspace(0.4, 2.4, self.bands))
        return ImageCube(grid, rng.uniform(0.1, 0.6, (self.rows, self.cols, self.bands)))

    def patch_blocks(self, monkeypatch):
        values = self.block_rows * self.cols * self.bands
        monkeypatch.setattr(specid.core, "BLOCK_VALUES", values)
        return 8 * values

    def test_blocks_and_threads_match_one_whole_cube_call(self):
        # With several BLAS threads, OpenBLAS splits a matrix-vector product
        # into per-thread chunks whose last pixels take its remainder kernel,
        # so even one whole-cube call changes bits with the thread count.
        # The comparison runs in a child process on one BLAS thread.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", BLOCKS_MATCH_WHOLE_CUBE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    # read_envi opens the file; the two tests below bind the conversion of
    # the whole cube, on first use of .data
    @pytest.mark.parametrize("data_type", [2, 5])
    def test_read_envi_holds_the_raw_data_the_cube_and_two_blocks(
            self, tmp_path, monkeypatch, data_type):
        block = self.patch_blocks(monkeypatch)
        hdr, data = write_envi_cube(tmp_path, self.cube(15), interleave="bil",
                                    data_type=data_type, bbl=[1] * 31 + [0])
        tracemalloc.start()
        try:
            data_bytes = read_envi(str(hdr)).data.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (os.path.getsize(data) + data_bytes + 2 * block
                        + self.ufunc_buffer + self.objects)

    @pytest.mark.parametrize("data_type", [2, 5])
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_read_envi_holds_the_cube_and_two_blocks(self, tmp_path, monkeypatch,
                                                      interleave, data_type):
        block = self.patch_blocks(monkeypatch)
        hdr, _ = write_envi_cube(tmp_path, self.cube(19), interleave=interleave,
                                 data_type=data_type, bbl=[1] * 31 + [0])
        tracemalloc.start()
        try:
            data_bytes = read_envi(str(hdr)).data.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's bytes as read, and its kept bands as selected; no
        # value is wider than the float64 the block size counts
        assert peak <= data_bytes + 2 * block + self.ufunc_buffer + self.objects

    @pytest.mark.parametrize("data_type", [2, 4, 5])
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_read_envi_holds_no_cube(self, tmp_path, monkeypatch, interleave, data_type):
        self.patch_blocks(monkeypatch)
        hdr, _ = write_envi_cube(tmp_path, self.cube(20), interleave=interleave,
                                 data_type=data_type, bbl=[1] * 31 + [0])
        tracemalloc.start()
        try:
            cube = read_envi(str(hdr))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cube.shape == (self.rows, self.cols, self.bands - 1)
        assert peak <= self.objects

    @pytest.mark.parametrize("threads", [1, 3])
    def test_detect_holds_the_scores_and_two_blocks_per_worker(self, monkeypatch,
                                                                threads):
        block = self.patch_blocks(monkeypatch)
        cube = self.cube(16)
        stats = background_stats(cube)
        target = cube.data[3, 4]
        _, rois = detect(cube, target, stats, threshold=0.9, threads=threads)
        assert len(rois) == 1   # and the lazy imports are done
        tracemalloc.start()
        try:
            detect(cube, target, stats, threshold=0.9, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pixels = self.rows * self.cols
        # 240 rows are 30 whole blocks, so no block is longer than `block`;
        # while scoring, each worker holds a block's centred copy and its
        # whitened copy; labelling then holds a boolean mask, int32 labels
        # and one ROI's boolean mask, 6 bytes a pixel
        scoring = threads * (2 * block + self.ufunc_buffer)
        assert peak <= 8 * pixels + max(scoring, 6 * pixels) + self.objects


class TestFileBackedMemory:
    """detect() on a file-backed cube holds the scores, the labels and a few
    blocks per worker, whatever the cube's rows and bands."""

    cols = 100
    block_values = 8 * 100 * 32          # blocks of 8 rows of 32 bands

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("rows,bands", [(240, 32), (480, 64), (960, 16)])
    def test_detect_holds_the_scores_and_four_blocks_per_worker(
            self, tmp_path, monkeypatch, rows, bands, threads):
        monkeypatch.setattr(specid.core, "BLOCK_VALUES", self.block_values)
        block = 8 * self.block_values
        rng = np.random.default_rng(16)
        grid = BandGrid(np.linspace(0.4, 2.4, bands))
        source = ImageCube(grid, rng.uniform(0.1, 0.6, (rows, self.cols, bands)))
        hdr, _ = write_envi_cube(tmp_path, source, interleave="bil", data_type=5,
                                 bbl=[1] * (bands - 1) + [0])
        cube = read_envi(str(hdr))
        stats = background_stats(cube)
        target = source.data[3, 4, :-1]
        _, rois = detect(cube, target, stats, threshold=0.9, threads=threads)
        assert len(rois) == 1   # and the lazy imports are done
        tracemalloc.start()
        try:
            detect(cube, target, stats, threshold=0.9, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pixels = rows * self.cols
        # every row block is whole, at most `block` as float64. Each worker
        # keeps a reader's buffers, a block's raw bytes and its float64
        # values, and scores through a centred and a whitened copy; while
        # converting, the kept bands as selected take the copies' place.
        # Labelling then holds 6 bytes a pixel (see TestRowBlocks).
        scoring = threads * (4 * block + TestRowBlocks.ufunc_buffer)
        assert peak <= 8 * pixels + max(scoring, 6 * pixels) + TestRowBlocks.objects
        assert cube._data is None

    @pytest.mark.parametrize("threads", [1, 3])
    def test_detect_holds_8_mib_per_worker_at_the_real_block_size(self, tmp_path,
                                                                  threads):
        # 96 x 256 x 128 int16 values are 12 row blocks of 2 MiB as float64,
        # 3 of 8 MiB at blocks of 2**20 values; the block size is not patched
        rows, cols, bands = 96, 256, 128
        rng = np.random.default_rng(21)
        grid = BandGrid(np.linspace(0.4, 2.4, bands))
        source = ImageCube(grid, rng.uniform(0.1, 0.6, (rows, cols, bands)))
        hdr, _ = write_envi_cube(tmp_path, source, interleave="bil", data_type=2)
        cube = read_envi(str(hdr))
        stats = background_stats(cube)
        target = cube.reader()(3, 4)[0, 4].copy()
        _, rois = detect(cube, target, stats, threshold=0.9, threads=threads)
        assert len(rois) == 1   # and the lazy imports are done
        tracemalloc.start()
        try:
            detect(cube, target, stats, threshold=0.9, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the scores, the labels and the masks take 14 bytes a pixel; each
        # worker holds a block's int16 bytes, its float64 values, and a
        # centred and a whitened copy: 6.5 MiB
        assert peak - 14 * rows * cols <= threads * 8 * 2 ** 20


class TestBackgroundRemoval:
    grid = BandGrid(np.linspace(0.4, 2.4, 20))

    def spectra(self, seed=12):
        rng = np.random.default_rng(seed)
        target = Spectrum("t", self.grid, rng.uniform(0.2, 0.9, 20))
        b1 = Spectrum("b1", self.grid, rng.uniform(0.2, 0.9, 20))
        b2 = Spectrum("b2", self.grid, rng.uniform(0.2, 0.9, 20))
        return target, b1, b2

    def test_noiseless_mixture_recovered(self):
        target, b1, b2 = self.spectra()
        mixed = 0.3 * target.values + 0.5 * b1.values + 0.2 * b2.values
        pixel = Spectrum("px", self.grid, mixed)
        out = background_removal(pixel, target, [b1, b2])
        assert out.target_coefficient == pytest.approx(0.3, abs=1e-9)
        np.testing.assert_allclose(out.background_coefficients, [0.5, 0.2],
                                   atol=1e-9)
        assert out.background_names == ("b1", "b2")
        np.testing.assert_allclose(out.spectrum.values, 0.3 * target.values,
                                   atol=1e-9)
        assert out.spectrum.name == "bkgr_px"
        assert out.rss == pytest.approx(0.0, abs=1e-16)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(13)
        target, b1, b2 = self.spectra()
        mixed = 0.3 * target.values + 0.5 * b1.values + 0.2 * b2.values \
            + rng.normal(0, 0.01, 20)
        pixel = Spectrum("px", self.grid, mixed)
        out = background_removal(pixel, target, [b1, b2])
        columns = np.column_stack([target.values, b1.values, b2.values])
        coefs = np.concatenate([[out.target_coefficient],
                                out.background_coefficients])
        resid = pixel.values - columns @ coefs
        assert out.rss == pytest.approx(float(resid @ resid), rel=1e-9)
        for j in range(3):
            bound = 1e-8 * np.linalg.norm(columns[:, j]) * np.linalg.norm(pixel.values)
            assert abs(float(columns[:, j] @ resid)) <= bound
        # removed spectrum keeps the target share plus the residual
        np.testing.assert_allclose(
            out.spectrum.values,
            out.target_coefficient * target.values + resid, atol=1e-12)

    def test_valid_masks_fold_into_the_fit(self):
        target, b1, b2 = self.spectra()
        valid = np.ones(20, dtype=bool)
        valid[[3, 7]] = False
        mixed = 0.4 * target.values + 0.6 * b1.values
        mixed[3] = 99.0              # junk on the masked band must not matter
        pixel = Spectrum("px", self.grid, mixed, valid=valid)
        out = background_removal(pixel, target, [b1])
        assert out.target_coefficient == pytest.approx(0.4, abs=1e-9)
        np.testing.assert_array_equal(out.spectrum.valid_mask(), valid)

    def test_error_paths(self):
        target, b1, b2 = self.spectra()
        pixel = Spectrum("px", self.grid, 0.5 * b1.values + 0.1 * target.values)
        with pytest.raises(InputError):
            background_removal(pixel, target, [])
        with pytest.raises(InputError):
            background_removal(pixel, target, [b1, Spectrum("b1", self.grid,
                                                            b2.values)])
        with pytest.raises(InputError):
            background_removal(pixel, target, [Spectrum("t", self.grid, b1.values)])
        other = BandGrid(np.linspace(1.0, 3.0, 20))
        with pytest.raises(AlignmentError):
            background_removal(pixel, Spectrum("t2", other, target.values), [b1])
        with pytest.raises(AlignmentError):
            background_removal(pixel, target, [Spectrum("b9", other, b1.values)])
        half = np.zeros(20, dtype=bool)
        half[:10] = True
        masked_pixel = Spectrum("px", self.grid, pixel.values, valid=half)
        masked_bkg = Spectrum("b3", self.grid, b1.values, valid=~half)
        with pytest.raises(InputError):
            background_removal(masked_pixel, target, [masked_bkg])

    def test_degenerate_design_names_the_culprits(self):
        target, b1, b2 = self.spectra()
        pixel = Spectrum("px", self.grid, 0.5 * b1.values + 0.1 * target.values)
        shadow = Spectrum("b1shadow", self.grid, 1e-12 * b1.values)
        with pytest.raises(NumericalError, match="b1~b1shadow"):
            background_removal(pixel, target, [b1, shadow])
        dead = Spectrum("dead", self.grid, np.zeros(20))
        with pytest.raises(NumericalError, match="linearly dependent"):
            background_removal(pixel, target, [b1, dead])


class TestAnnulus:
    def roi(self, *pixels):
        avg = Spectrum("avg", BandGrid(np.array([0.4, 0.5])), [0.1, 0.2])
        return RegionOfInterest(pixels=tuple(pixels), peak_score=1.0,
                                mean_score=1.0, average=avg)

    def test_bounding_box(self):
        assert self.roi((2, 3), (4, 1)).bounding_box == (2, 4, 1, 3)

    def test_single_pixel_ring(self):
        coords = annulus_coordinates(self.roi((3, 3)), (10, 10), inner=1, outer=1)
        assert coords == [(2, 2), (2, 3), (2, 4), (3, 2), (3, 4),
                          (4, 2), (4, 3), (4, 4)]

    def test_guard_band_excluded(self):
        # inner=2 leaves a one-pixel guard between the box and the ring
        coords = annulus_coordinates(self.roi((3, 3)), (10, 10), inner=2, outer=2)
        cheb = {max(abs(r - 3), abs(c - 3)) for r, c in coords}
        assert cheb == {2}
        assert len(coords) == 16

    def test_clipped_at_the_image_edge(self):
        coords = annulus_coordinates(self.roi((0, 0)), (6, 6), inner=1, outer=2)
        assert all(0 <= r < 6 and 0 <= c < 6 for r, c in coords)
        assert (1, 1) in coords and (2, 2) in coords
        assert (0, 0) not in coords

    def test_stride_keeps_order_and_endpoints(self):
        full = annulus_coordinates(self.roi((5, 5)), (20, 20), inner=1, outer=3,
                                   max_spectra=10_000)
        some = annulus_coordinates(self.roi((5, 5)), (20, 20), inner=1, outer=3,
                                   max_spectra=7)
        assert len(some) <= 7
        assert some[0] == full[0] and some[-1] == full[-1]
        positions = [full.index(c) for c in some]
        assert positions == sorted(positions)

    def test_errors(self):
        with pytest.raises(InputError):
            annulus_coordinates(self.roi((3, 3)), (10, 10), inner=0)
        with pytest.raises(InputError):
            annulus_coordinates(self.roi((3, 3)), (10, 10), inner=3, outer=2)
        with pytest.raises(InputError):
            annulus_coordinates(self.roi((3, 3)), (10, 10), max_spectra=0)
        with pytest.raises(InputError):
            annulus_coordinates(self.roi((0, 0)), (1, 1))
