"""ENVI headers and cubes, library/table CSVs, and the result writers."""

import itertools
import json
import math
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model_set, write_envi_cube, write_library_csv
import specid.core
from specid.aggregate import (IdentificationTree, InclusionReport, ModelPosterior,
                              TreeNode, normalize)
from specid.core import (BandGrid, ImageCube, Spectrum, SpectralLibrary, average_pixels,
                         extract_pixel)
from specid.detection import RegionOfInterest
from specid.errors import InputError, ParseError
from specid.io_formats import (DATA_TYPES, INTEGER_SCALE_DEFAULT, EnviHeader,
                               _find_data_file, parse_envi_header, read_envi,
                               read_library,
                               read_rois_json, read_spectrum_csv, read_table,
                               render_tree_dot, results_payload,
                               write_inclusion_csv, write_results_json,
                               write_rois_json, write_scores, write_tree_dot)
from specid.search import ModelSet

HEADER = """ENVI
description = {small test cube}
samples = 4
lines = 3
bands = 5
interleave = bsq
data type = 5
byte order = 0
wavelength = {0.40, 0.55, 0.70, 0.85, 1.00}
"""


class TestHeaderParsing:
    def test_minimal_header(self):
        h = parse_envi_header(HEADER)
        assert (h.samples, h.lines, h.bands) == (4, 3, 5)
        assert h.interleave == "bsq" and h.data_type == 5 and h.byte_order == 0
        assert h.wavelength == (0.40, 0.55, 0.70, 0.85, 1.00)
        assert h.wavelength_units == "um"     # inferred from the magnitudes
        assert h.bbl is None and h.header_offset == 0

    def test_magic_required(self):
        with pytest.raises(ParseError, match="ENVI"):
            parse_envi_header(HEADER.replace("ENVI", "INVE"))

    @pytest.mark.parametrize("key", ["samples", "bands", "interleave",
                                     "data type", "byte order", "wavelength"])
    def test_missing_required_key(self, key):
        broken = "\n".join(line for line in HEADER.splitlines()
                           if not line.startswith(key))
        with pytest.raises(ParseError):
            parse_envi_header(broken)

    def test_non_integer_field(self):
        with pytest.raises(ParseError, match="integer"):
            parse_envi_header(HEADER.replace("samples = 4", "samples = four"))

    def test_unterminated_list(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_envi_header(HEADER.replace("1.00}", "1.00"))

    def test_non_numeric_wavelength(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_envi_header(HEADER.replace("0.55", "snap"))

    def test_wavelength_count_mismatch(self):
        with pytest.raises(ParseError, match="wavelength"):
            parse_envi_header(HEADER.replace("bands = 5", "bands = 6"))

    def test_nanometer_units_scaled(self):
        text = HEADER.replace("wavelength = {0.40, 0.55, 0.70, 0.85, 1.00}",
                              "wavelength = {400, 550, 700, 850, 1000}")
        inferred = parse_envi_header(text)  # >100, so treated as nanometers
        assert inferred.wavelength_units == "nm"
        np.testing.assert_allclose(inferred.wavelength,
                                   (0.4, 0.55, 0.7, 0.85, 1.0))
        declared = parse_envi_header(text + "wavelength units = Nanometers\n")
        assert declared.wavelength == inferred.wavelength

    def test_declared_micrometers_kept(self):
        h = parse_envi_header(HEADER + "wavelength units = Micrometers\n")
        assert h.wavelength_units == "um"
        assert h.wavelength == (0.40, 0.55, 0.70, 0.85, 1.00)

    def test_unknown_units(self):
        with pytest.raises(ParseError, match="units"):
            parse_envi_header(HEADER + "wavelength units = Wavenumber\n")

    def test_bbl_and_scale_factor(self):
        h = parse_envi_header(HEADER + "bbl = {1, 0, 1, 1, 0}\n"
                              + "reflectance scale factor = 2000.0\n")
        assert h.bbl == (1.0, 0.0, 1.0, 1.0, 0.0)
        assert h.reflectance_scale_factor == 2000.0
        with pytest.raises(ParseError, match="bbl"):
            parse_envi_header(HEADER + "bbl = {1, 0, 1}\n")
        with pytest.raises(ParseError, match="scale factor"):
            parse_envi_header(HEADER + "reflectance scale factor = lots\n")
        with pytest.raises(ParseError, match="header offset"):
            parse_envi_header(HEADER + "header offset = abc\n")

    @pytest.mark.parametrize("old,new,message", [
        ("interleave = bsq", "interleave = weird", "interleave"),
        ("data type = 5", "data type = 3", "data type"),
        ("byte order = 0", "byte order = 2", "byte order"),
        ("lines = 3", "lines = 0", "positive"),
        pytest.param("byte order = 0", "byte order = 0\nreflectance scale factor = 0",
                     "scale factor must be positive and finite, got 0.0", id="factor-0"),
        pytest.param("byte order = 0", "byte order = 0\nreflectance scale factor = -1e4",
                     "scale factor", id="factor-negative"),
        pytest.param("byte order = 0", "byte order = 0\nreflectance scale factor = nan",
                     "scale factor", id="factor-nan"),
        pytest.param("byte order = 0", "byte order = 0\nreflectance scale factor = inf",
                     "scale factor", id="factor-inf"),
        pytest.param("byte order = 0", "byte order = 0\nheader offset = -8",
                     "header offset must be >= 0, got -8", id="offset-negative"),
    ])
    def test_field_validation(self, old, new, message):
        with pytest.raises(ParseError, match=message):
            parse_envi_header(HEADER.replace(old, new))

    def test_header_offset_parsed(self):
        assert parse_envi_header(HEADER + "header offset = 64\n").header_offset == 64

    def test_envi_header_constructor_checks(self):
        with pytest.raises(ParseError):
            EnviHeader(samples=2, lines=2, bands=2, interleave="bsq", data_type=5,
                       byte_order=0, wavelength=(0.4,), wavelength_units="um")


@pytest.fixture
def small_cube():
    rng = np.random.default_rng(20)
    grid = BandGrid(np.linspace(0.45, 2.35, 5))
    data = rng.integers(0, 3000, (3, 4, 5)).astype(np.float64) / 10000.0
    return ImageCube(grid, data)


class TestReadEnvi:
    def test_interleaves_agree(self, tmp_path, small_cube):
        cubes = []
        for interleave in ("bsq", "bil", "bip"):
            hdr, _ = write_envi_cube(tmp_path / interleave, small_cube,
                                     interleave=interleave)
            cubes.append(read_envi(str(hdr)))
        for cube in cubes:
            assert cube.grid == small_cube.grid
            np.testing.assert_array_equal(cube.data, small_cube.data)

    def test_int16_default_scale(self, tmp_path, small_cube):
        hdr, _ = write_envi_cube(tmp_path, small_cube, data_type=2)
        cube = read_envi(str(hdr))
        # values are integer multiples of 1/10000, so they survive exactly
        np.testing.assert_array_equal(cube.data, small_cube.data)

    def test_uint16_custom_scale(self, tmp_path, small_cube):
        hdr, _ = write_envi_cube(tmp_path, small_cube, data_type=12,
                                 scale_factor=20000.0)
        cube = read_envi(str(hdr))
        np.testing.assert_allclose(cube.data, small_cube.data, atol=1 / 40000)

    def test_big_endian(self, tmp_path, small_cube):
        hdr, _ = write_envi_cube(tmp_path, small_cube, byte_order=1)
        np.testing.assert_array_equal(read_envi(str(hdr)).data, small_cube.data)

    def test_nanometer_header(self, tmp_path, small_cube):
        hdr, _ = write_envi_cube(tmp_path, small_cube, wavelength_units="Nanometers")
        cube = read_envi(str(hdr))
        np.testing.assert_allclose(cube.grid.wavelengths,
                                   small_cube.grid.wavelengths, rtol=1e-12)

    def test_bbl_drops_bands(self, tmp_path, small_cube):
        hdr, _ = write_envi_cube(tmp_path, small_cube, bbl=[1, 0, 1, 1, 0])
        cube = read_envi(str(hdr))
        assert len(cube.grid) == 3
        np.testing.assert_array_equal(cube.grid.wavelengths,
                                      small_cube.grid.wavelengths[[0, 2, 3]])
        np.testing.assert_array_equal(cube.data, small_cube.data[:, :, [0, 2, 3]])

    def test_header_offset_skipped(self, tmp_path, small_cube):
        hdr, _ = write_envi_cube(tmp_path, small_cube, header_offset=48)
        np.testing.assert_array_equal(read_envi(str(hdr)).data, small_cube.data)

    def test_size_mismatch(self, tmp_path, small_cube):
        hdr, data = write_envi_cube(tmp_path, small_cube)
        with open(data, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ParseError, match="bytes"):
            read_envi(str(hdr))

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_short_read(self, tmp_path, monkeypatch, small_cube, interleave):
        # a file that shrinks after its size was checked: the last read
        # comes back short, and no cube of uninitialised values is returned
        hdr, data = write_envi_cube(tmp_path, small_cube, interleave=interleave,
                                    data_type=2, header_offset=16)
        full = os.path.getsize(data)
        with open(data, "r+b") as fh:
            fh.truncate(full - 3)
        getsize = os.path.getsize
        monkeypatch.setattr(os.path, "getsize",
                            lambda path: full if str(path) == str(data) else getsize(path))
        with pytest.raises(ParseError, match="ended early"):
            read_envi(str(hdr))

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_reads_that_stop_short_are_resumed(self, tmp_path, monkeypatch, small_cube,
                                               interleave):
        # network file systems may return fewer bytes than asked for before
        # the end of the file; only a read that returns nothing is an end
        hdr, _ = write_envi_cube(tmp_path, small_cube, interleave=interleave,
                                 data_type=4, header_offset=16)
        preadv = os.preadv
        calls = []

        def short(fd, buffers, position):
            calls.append(position)
            head = memoryview(buffers[0]).cast("B")[:3]
            return preadv(fd, [head], position)

        monkeypatch.setattr(os, "preadv", short)
        cube = read_envi(str(hdr))
        np.testing.assert_array_equal(cube.data, small_cube.data.astype(np.float32))
        assert len(calls) > small_cube.data.size  # 4-byte values, 3 bytes a read

    def test_file_shrunk_after_opening(self, tmp_path, small_cube):
        # the size is checked when the cube is opened; a read past the new
        # end fails then, and leaves no half-converted rows behind
        hdr, data = write_envi_cube(tmp_path, small_cube, interleave="bil", data_type=2)
        cube = read_envi(str(hdr))
        with open(data, "r+b") as fh:
            fh.truncate(os.path.getsize(data) - 3)
        read = cube.reader()
        np.testing.assert_array_equal(read(0, 2), small_cube.data[:2])
        with pytest.raises(ParseError, match="ended early"):
            read(2, 3)
        with pytest.raises(ParseError, match="ended early"):
            cube.data

    @pytest.mark.parametrize("data_type", [4, 5])
    def test_non_finite_value_fails_the_rows_that_hold_it(self, tmp_path, small_cube,
                                                          data_type):
        values = small_cube.data.copy()
        values[1, 2, 3] = np.nan if data_type == 4 else -np.inf
        # write_envi_cube reads only these four attributes; an ImageCube
        # would refuse the values
        raw = SimpleNamespace(grid=small_cube.grid, data=values, rows=3, cols=4)
        hdr, _ = write_envi_cube(tmp_path, raw, data_type=data_type)
        cube = read_envi(str(hdr))   # opening converts nothing
        want = values.astype(DATA_TYPES[data_type]).astype(np.float64)
        read = cube.reader()
        np.testing.assert_array_equal(read(0, 1), want[:1])
        np.testing.assert_array_equal(read(2, 3), want[2:])
        for rows in ((1, 2), (0, 3)):
            with pytest.raises(InputError, match="cube contains non-finite values"):
                read(*rows)
        with pytest.raises(InputError, match="cube contains non-finite values"):
            cube.data

    def test_integers_overflowing_their_scale_are_refused(self, tmp_path, small_cube):
        # a scale factor so small that the integers overflow float64
        hdr, _ = write_envi_cube(tmp_path, small_cube, data_type=12)
        hdr.write_text(hdr.read_text() + "reflectance scale factor = 1e-310\n")
        with np.errstate(over="ignore"), \
                pytest.raises(InputError, match="cube contains non-finite values"):
            read_envi(str(hdr)).data

    def test_data_file_discovery(self, tmp_path, small_cube):
        hdr, data = write_envi_cube(tmp_path, small_cube)
        assert read_envi(str(hdr), str(data)).rows == 3
        data.unlink()
        with pytest.raises(ParseError, match="no data file"):
            read_envi(str(hdr))


def reference_read_envi(header_path, data_path=None):
    """read_envi as it was before it converted in row blocks: whole-cube steps."""
    with open(header_path, "r", encoding="utf-8", errors="replace") as fh:
        header = parse_envi_header(fh.read())
    if data_path is None:
        data_path = _find_data_file(header_path)
    dtype = DATA_TYPES[header.data_type]
    dtype = dtype.newbyteorder("<" if header.byte_order == 0 else ">")
    count = header.samples * header.lines * header.bands
    expected = count * dtype.itemsize + header.header_offset
    actual = os.path.getsize(data_path)
    if actual != expected:
        raise ParseError("data file %r holds %d bytes, expected %d "
                         "(%dx%dx%d of %s plus offset %d)"
                         % (data_path, actual, expected, header.lines,
                            header.samples, header.bands, dtype, header.header_offset))
    raw = np.fromfile(data_path, dtype=dtype, count=count,
                      offset=header.header_offset)
    if header.interleave == "bsq":
        cube = raw.reshape(header.bands, header.lines, header.samples).transpose(1, 2, 0)
    elif header.interleave == "bil":
        cube = raw.reshape(header.lines, header.bands, header.samples).transpose(0, 2, 1)
    else:  # bip
        cube = raw.reshape(header.lines, header.samples, header.bands)
    cube = cube.astype(np.float64)
    if dtype.kind in "iu":
        factor = header.reflectance_scale_factor or INTEGER_SCALE_DEFAULT
        cube = cube / factor
    wavelengths = np.array(header.wavelength)
    if header.bbl is not None:
        good = np.array([b != 0 for b in header.bbl])
        cube = cube[:, :, good]
        wavelengths = wavelengths[good]
    return ImageCube(BandGrid(wavelengths), cube)


@st.composite
def envi_files(draw):
    """Raw ENVI data and header text, in any layout read_envi accepts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines, samples = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    bands = draw(st.integers(2, 7))
    code = draw(st.sampled_from(sorted(DATA_TYPES)))
    order = draw(st.sampled_from([0, 1]))
    dtype = DATA_TYPES[code].newbyteorder("<" if order == 0 else ">")
    shape = {"bsq": (bands, lines, samples), "bil": (lines, bands, samples),
             "bip": (lines, samples, bands)}
    interleave = draw(st.sampled_from(sorted(shape)))
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        raw = rng.integers(info.min, info.max, shape[interleave], endpoint=True)
    else:
        raw = rng.normal(0.3, 0.2, shape[interleave]) * 10.0 ** rng.integers(-3, 4)
    header = ["ENVI", "samples = %d" % samples, "lines = %d" % lines,
              "bands = %d" % bands, "interleave = %s" % interleave,
              "data type = %d" % code, "byte order = %d" % order,
              "wavelength = {%s}" % ", ".join(
                  repr(w) for w in np.linspace(0.4, 2.4, bands).tolist())]
    offset = draw(st.sampled_from([None, 0, 1, 7, 64]))
    if offset is not None:
        header.append("header offset = %d" % offset)
    if draw(st.booleans()):
        bbl = [1, 1] + [draw(st.sampled_from([0, 1])) for _ in range(bands - 2)]
        rng.shuffle(bbl)
        header.append("bbl = {%s}" % ", ".join(map(str, bbl)))
    factor = draw(st.one_of(st.none(), st.sampled_from([1.0, 3.0, 10000.0, 0.1]),
                            st.floats(1e-3, 1e6)))
    if factor is not None:
        header.append("reflectance scale factor = %r" % factor)
    data = b"\x5a" * (offset or 0) + raw.astype(dtype).tobytes()
    block_values = draw(st.integers(1, 10 * samples * bands))
    return "\n".join(header) + "\n", data, block_values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(envi_files())
def test_blocked_read_matches_whole_cube_read(files):
    header, data, block_values = files
    with tempfile.TemporaryDirectory() as tmp:
        hdr = os.path.join(tmp, "cube.hdr")
        with open(hdr, "w", encoding="utf-8") as fh:
            fh.write(header)
        with open(os.path.join(tmp, "cube.img"), "wb") as fh:
            fh.write(data)
        want = reference_read_envi(hdr)
        # blocks of a few rows, so most cubes span several
        with mock.patch.object(specid.core, "BLOCK_VALUES", block_values):
            got = read_envi(hdr)
    assert got.grid == want.grid
    assert got.data.shape == want.data.shape
    assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(envi_files(), st.data())
def test_file_backed_reads_match_whole_cube_read(files, data):
    header, raw, block_values = files
    with tempfile.TemporaryDirectory() as tmp:
        hdr = os.path.join(tmp, "cube.hdr")
        with open(hdr, "w", encoding="utf-8") as fh:
            fh.write(header)
        with open(os.path.join(tmp, "cube.img"), "wb") as fh:
            fh.write(raw)
        want = reference_read_envi(hdr)
        rows, cols, bands = want.data.shape
        with mock.patch.object(specid.core, "BLOCK_VALUES", block_values):
            cube = read_envi(hdr)
            assert cube.grid == want.grid and cube.shape == want.data.shape
            read = cube.reader()   # one reader, its buffer reused and regrown
            for _ in range(data.draw(st.integers(1, 4))):
                lo = data.draw(st.integers(0, rows - 1))
                hi = data.draw(st.integers(lo + 1, rows))
                out = np.empty((hi - lo, cols, bands)) if data.draw(st.booleans()) else None
                block = read(lo, hi, out=out)
                assert out is None or block is out
                assert block.flags.c_contiguous and block.shape == (hi - lo, cols, bands)
                assert block.tobytes() == want.data[lo:hi].tobytes()
            coords = data.draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                                  st.integers(0, cols - 1)),
                                        min_size=1, max_size=6))
            assert average_pixels(cube, coords).values.tobytes() == \
                average_pixels(want, coords).values.tobytes()
            for row, col in coords:
                assert extract_pixel(cube, row, col).values.tobytes() == \
                    want.data[row, col].tobytes()
            assert cube.data.tobytes() == want.data.tobytes()


@pytest.fixture
def tiny_library():
    grid = BandGrid(np.linspace(0.4, 1.2, 6))
    rng = np.random.default_rng(21)
    spectra = (
        Spectrum("ny1", grid, rng.uniform(0.1, 0.9, 6), ("Fabric", "Nylon")),
        Spectrum("ny2", grid, rng.uniform(0.1, 0.9, 6), ("Fabric", "Nylon")),
        Spectrum("grass", grid, rng.uniform(0.1, 0.9, 6), ("Vegetation",)),
    )
    return SpectralLibrary(grid, spectra)


class TestReadLibrary:
    def test_round_trip(self, tmp_path, tiny_library):
        csv_path, json_path = write_library_csv(tmp_path, tiny_library, "lib")
        lib = read_library(str(csv_path), str(json_path))
        assert lib.names == tiny_library.names
        assert lib.grid == tiny_library.grid        # repr() cells are lossless
        np.testing.assert_array_equal(lib.matrix(), tiny_library.matrix())
        for name in lib.names:
            assert lib.spectrum(name).class_path == \
                tiny_library.spectrum(name).class_path

    def test_missing_hierarchy_entry_is_unlabeled(self, tmp_path, tiny_library):
        csv_path, json_path = write_library_csv(tmp_path, tiny_library, "lib")
        mapping = json.loads(json_path.read_text())
        del mapping["grass"]
        json_path.write_text(json.dumps(mapping))
        lib = read_library(str(csv_path), str(json_path))
        assert lib.spectrum("grass").class_path == ("Unlabeled",)
        assert lib.spectrum("ny1").class_path == ("Fabric", "Nylon")

    def test_no_hierarchy_file(self, tmp_path, tiny_library):
        csv_path, _ = write_library_csv(tmp_path, tiny_library, "lib")
        lib = read_library(str(csv_path))
        assert all(s.class_path == ("Unlabeled",) for s in lib.spectra)

    def test_nanometer_wavelength_column(self, tmp_path):
        path = tmp_path / "nm.csv"
        path.write_text("wavelength_nm,s1\n400.0,0.5\n800.0,0.25\n1200.0,0.75\n")
        lib = read_library(str(path))
        np.testing.assert_allclose(lib.grid.wavelengths, [0.4, 0.8, 1.2])

    @pytest.mark.parametrize("text,message", [
        ("wavelength_um,s1\n0.4,0.5\n", "at least 2 band rows"),
        ("wavelength_km,s1\n0.4,0.5\n0.5,0.6\n", "wavelength_um or wavelength_nm"),
        ("wavelength_um\n0.4\n0.5\n", "no spectrum columns"),
        ("wavelength_um,s1\n0.4,0.5\n0.5,0.6,0.7\n", "cells"),
        ("wavelength_um,s1\n0.4,0.5\n0.5,soup\n", "soup"),
    ])
    def test_rejects(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_library(str(path))

    @pytest.mark.parametrize("payload,message", [
        ("{nope", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"ny1": "Fabric"}', "list of labels"),
        ('{"ny1": ["Fabric", 3]}', "list of labels"),
    ])
    def test_hierarchy_rejects(self, tmp_path, tiny_library, payload, message):
        csv_path, json_path = write_library_csv(tmp_path, tiny_library, "lib")
        json_path.write_text(payload)
        with pytest.raises(ParseError, match=message):
            read_library(str(csv_path), str(json_path))


def test_read_spectrum_csv(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("wavelength_um,pixel\n0.4,0.5\n0.8,0.25\n1.2,0.75\n")
    spec = read_spectrum_csv(str(path))
    assert spec.name == "pixel"
    np.testing.assert_array_equal(spec.values, [0.5, 0.25, 0.75])
    two = tmp_path / "two.csv"
    two.write_text("wavelength_um,a,b\n0.4,0.5,0.1\n0.8,0.25,0.2\n")
    with pytest.raises(ParseError, match="expected exactly 1"):
        read_spectrum_csv(str(two))


class TestReadTable:
    def test_reads_response_and_predictors(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        y, X, names = read_table(str(path), "y")
        np.testing.assert_array_equal(y, [3, 6, 9])
        np.testing.assert_array_equal(X, [[1, 2], [4, 5], [7, 8]])
        assert names == ("a", "b")
        # response column need not be last
        y2, X2, names2 = read_table(str(path), "a")
        np.testing.assert_array_equal(y2, [1, 4, 7])
        assert names2 == ("b", "y")

    @pytest.mark.parametrize("text,message", [
        ("a,b,y\n", "data rows"),
        ("a,a,y\n1,2,3\n", "duplicate column"),
        ("a,b,y\n1,2\n", "cells"),
        ("a,b,y\n1,x,3\n", "non-numeric"),
    ])
    def test_rejects(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_table(str(path), "y")

    def test_unknown_response(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError, match="response"):
            read_table(str(path), "z")


def demo_tree():
    nylon = TreeNode("Nylon", 0.25)
    fabric = TreeNode("Fabric", 0.5, children=(nylon,))
    veg = TreeNode("Vegetation", 0.75)
    return IdentificationTree(TreeNode("Library", 1.0, children=(fabric, veg)))


class TestTreeDot:
    def test_nodes_edges_and_labels(self):
        dot = render_tree_dot(demo_tree())
        assert dot.startswith("digraph identification {")
        assert '"/" [label="Library\\np=1.0000"];' in dot
        assert '"/Fabric" [label="Fabric\\np=0.5000"];' in dot
        assert '"/Fabric/Nylon" [label="Nylon\\np=0.2500"];' in dot
        assert '"/" -> "/Fabric";' in dot
        assert '"/" -> "/Vegetation";' in dot
        assert '"/Fabric" -> "/Fabric/Nylon";' in dot
        # every edge endpoint is a declared node
        declared = {line.split(" [")[0].strip().strip('"')
                    for line in dot.splitlines() if "[label=" in line}
        for line in dot.splitlines():
            if "->" in line:
                src, dst = [part.strip().strip(';').strip('"')
                            for part in line.split("->")]
                assert src in declared and dst in declared

    def test_conditional_divides_by_parent(self):
        dot = render_tree_dot(demo_tree(), conditional=True)
        assert '"/" [label="Library\\np=1.0000"];' in dot
        assert '"/Fabric" [label="Fabric\\np=0.5000"];' in dot
        assert '"/Fabric/Nylon" [label="Nylon\\np=0.5000"];' in dot  # 0.25/0.5

    def test_conditional_zero_parent(self):
        tree = IdentificationTree(
            TreeNode("Library", 1.0, children=(
                TreeNode("Empty", 0.0, children=(TreeNode("Leaf", 0.0),)),)))
        dot = render_tree_dot(tree, conditional=True)
        assert '"/Empty/Leaf" [label="Leaf\\np=0.0000"];' in dot

    def test_escaping(self):
        tree = IdentificationTree(
            TreeNode("Library", 1.0, children=(TreeNode('糸 "silk"', 0.5),)))
        dot = render_tree_dot(tree)
        assert '\\"silk\\"' in dot

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        write_tree_dot(demo_tree(), str(a))
        write_tree_dot(demo_tree(), str(b))
        assert a.read_bytes() == b.read_bytes()


def small_posterior():
    return normalize(make_model_set([(("a",), [2.0], None, 0.0),
                                     (("a", "b"), [1.0, 3.0], None, 2.0)], ("a", "b")))


# the streamed writer's chunk size while the byte test runs, so that model
# counts around it stay small
WRITER_CHUNK = 3
ESCAPED_NAMES = ["Größe", 'say "hi"', "back\\slash", "tab\tline\nend", "\x00\x1f\x7f",
                 "models", "tree", "inclusion", "ldpe_3", ""]
# a ModelSet row, an InclusionReport and a TreeNode hold finite numbers only
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-310, 1.7976931348623157e308, -1e300, 0.1, 1.0]
finite_floats = (st.sampled_from(SPECIAL_FLOATS)
                 | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def results_inputs(draw):
    """A posterior, report and tree (or None) holding every finite value that
    json spells in its own way."""
    names = draw(st.lists(st.sampled_from(ESCAPED_NAMES) | st.text(max_size=6),
                          min_size=3, max_size=5, unique=True))
    subsets = [s for k in range(1, len(names) + 1)
               for s in itertools.combinations(names, k)]
    count = draw(st.sampled_from([1, WRITER_CHUNK - 1, WRITER_CHUNK, WRITER_CHUNK + 1,
                                  2 * WRITER_CHUNK + 1]))
    models = []
    for subset in draw(st.permutations(subsets))[:count]:
        regressors = draw(st.permutations(subset))
        models.append((regressors, [draw(finite_floats) for _ in regressors],
                       draw(st.none() | finite_floats),
                       draw(finite_floats | st.integers(-3, 3))))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1e-300, 1.0 / 3, 1.0, 7.5]),
                                     min_size=count, max_size=count)))
    if not weights.any():
        weights[draw(st.integers(0, count - 1))] = 1.0
    models = make_model_set(models, names, "occam")
    posterior = ModelPosterior(models, weights / weights.sum())
    report = InclusionReport(names, [draw(finite_floats) for _ in names],
                             [draw(finite_floats) for _ in names])
    tree = None
    if draw(st.booleans()):
        leaves = [TreeNode(draw(st.sampled_from(ESCAPED_NAMES)), draw(finite_floats))
                  for _ in range(draw(st.integers(0, 2)))]
        tree = IdentificationTree(TreeNode("Library", 1.0, children=leaves))
    return posterior, report, tree


class TestResultWriters:
    def test_results_json_round_trip(self, tmp_path):
        post = small_posterior()
        report = InclusionReport(("a", "b"), np.array([1.0, 0.3]),
                                 np.array([1.7, 0.9]))
        path = tmp_path / "results.json"
        write_results_json(post, report, demo_tree(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded == results_payload(post, report, demo_tree())
        assert loaded["inclusion"] == {"a": 1.0, "b": pytest.approx(0.3)}
        assert [m["regressors"] for m in loaded["models"]] == [["a"], ["a", "b"]]
        assert loaded["models"][0]["probability"] == pytest.approx(
            1 / (1 + np.exp(-1.0)))
        assert loaded["tree"]["name"] == "Library"
        assert [c["name"] for c in loaded["tree"]["children"]] == \
            ["Fabric", "Vegetation"]
        assert path.read_text().endswith("\n")

    def test_results_json_without_tree(self, tmp_path):
        post = small_posterior()
        report = InclusionReport(("a", "b"), np.array([1.0, 0.3]),
                                 np.array([1.7, 0.9]), intercept=0.5)
        path = tmp_path / "results.json"
        write_results_json(post, report, None, str(path))
        assert json.loads(path.read_text())["tree"] is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        post = small_posterior()
        report = InclusionReport(("a", "b"), np.array([1.0, 0.3]),
                                 np.array([1.7, 0.9]))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_results_json(post, report, demo_tree(), str(a))
        write_results_json(post, report, demo_tree(), str(b))
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(inputs=results_inputs())
    def test_streamed_bytes_equal_json_dump(self, inputs):
        posterior, report, tree = inputs
        want = json.dumps(results_payload(posterior, report, tree),
                          sort_keys=True, indent=2) + "\n"
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(specid.io_formats, "RESULTS_CHUNK", WRITER_CHUNK):
            path = os.path.join(tmp, "results.json")
            write_results_json(posterior, report, tree, path)
            with open(path, "rb") as fh:
                assert fh.read() == want.encode("utf-8")

    def test_index_wider_than_its_rows(self, tmp_path):
        # width 6, rows of 1 to 4 candidates in one chunk: each row takes its
        # own size's template, and the padding cells never reach the file
        names = ("a", 'say "hi"', "c", "Größe", "e", "f")
        index = np.full((7, 6), -1, dtype=np.intp)
        coefficients = np.zeros(index.shape)
        rows = [(0,), (1, 0), (3, 2, 5), (4, 0, 1, 2), (5,), (2, 3), (1, 5, 4, 3)]
        for i, row in enumerate(rows):
            index[i, :len(row)] = row
            coefficients[i, :len(row)] = np.arange(1, len(row) + 1) * -0.1 - i
        models = ModelSet(index, coefficients, np.full(7, math.nan),
                          np.linspace(-3.0, 5e-324, 7), np.ones(7), np.ones(7), names,
                          "exhaustive")
        posterior = ModelPosterior(models, np.full(7, 1 / 7))
        report = InclusionReport(names, np.linspace(0, 1, 6), np.linspace(-1, 1e300, 6))
        assert max(models.sizes) == 4 and set(models.sizes.tolist()) == {1, 2, 3, 4}
        assert len(models) < specid.io_formats.RESULTS_CHUNK
        path = tmp_path / "results.json"
        write_results_json(posterior, report, demo_tree(), str(path))
        want = json.dumps(results_payload(posterior, report, demo_tree()),
                          sort_keys=True, indent=2) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_inclusion_csv_exact_text(self, tmp_path):
        report = InclusionReport(("a", "b"), np.array([0.5, 0.25]),
                                 np.array([1.5, -2.0]), intercept=3.0)
        path = tmp_path / "inclusion.csv"
        write_inclusion_csv(report, str(path))
        assert path.read_text() == (
            "regressor,inclusion_percent,averaged_coefficient\n"
            "a,50.0,1.5\n"
            "b,25.0,-2.0\n"
            "(intercept),100.0,3.0\n")

    def test_inclusion_csv_without_intercept(self, tmp_path):
        report = InclusionReport(("a",), np.array([1.0]), np.array([0.125]))
        path = tmp_path / "inclusion.csv"
        write_inclusion_csv(report, str(path))
        assert "(intercept)" not in path.read_text()

    def test_write_scores(self, tmp_path):
        rng = np.random.default_rng(22)
        scores = rng.normal(0, 1, (6, 7))
        bin_path, json_path = tmp_path / "scores.bin", tmp_path / "scores.json"
        write_scores(scores, str(bin_path), str(json_path), extra={"threshold": 0.9})
        raw = np.frombuffer(bin_path.read_bytes(), dtype=np.float64)
        np.testing.assert_array_equal(raw.reshape(6, 7), scores)
        meta = json.loads(json_path.read_text())
        assert meta == {"rows": 6, "cols": 7, "dtype": "float64",
                        "order": "row-major", "threshold": 0.9}

    def test_rois_round_trip(self, tmp_path):
        grid = BandGrid(np.array([0.4, 0.5, 0.6]))
        rois = [RegionOfInterest(pixels=((1, 2), (1, 3)), peak_score=0.9,
                                 mean_score=0.85,
                                 average=Spectrum("avg", grid, [0.1, 0.2, 0.3]))]
        path = tmp_path / "rois.json"
        write_rois_json(rois, str(path))
        loaded = read_rois_json(str(path))
        assert loaded[0]["rank"] == 1
        assert loaded[0]["pixels"] == [[1, 2], [1, 3]]
        assert loaded[0]["peak_score"] == 0.9
        assert loaded[0]["average"] == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("payload,message", [
        ("{broken", "not valid JSON"),
        ('{"pixels": []}', "JSON list"),
        ('[{"peak_score": 1.0}]', "pixel coordinates"),
        ('[5]', "pixel coordinates"),
        ('[{"pixels": [["a", 1]]}]', "integer pairs"),
        ('[{"pixels": [[1]]}]', "integer pairs"),
    ])
    def test_rois_rejects(self, tmp_path, payload, message):
        path = tmp_path / "rois.json"
        path.write_text(payload)
        with pytest.raises(ParseError, match=message):
            read_rois_json(str(path))


def test_integer_scale_constant():
    assert INTEGER_SCALE_DEFAULT == 10000.0
