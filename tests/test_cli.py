"""End-to-end command-line runs over a synthetic scene and table."""

import csv
import functools
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import write_envi_cube, write_library_csv
import specid.cli
from specid.cli import main
from specid.core import BandGrid, Spectrum, SpectralLibrary
from specid.detection import background_stats, detect
from specid.search import SearchConfig
from synth import make_scene, make_table_instance


def tree_lookup(node, name):
    if node["name"] == name:
        return node
    for child in node["children"]:
        found = tree_lookup(child, name)
        if found is not None:
            return found
    return None


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene")
    cube, library, target_names, _, implant_pixels = make_scene(0)
    hdr, _ = write_envi_cube(root, cube, stem="scene")
    lib_csv, lib_json = write_library_csv(root, library, "library")
    mean_values = np.mean([library.spectrum(n).values for n in target_names], axis=0)
    target_lib = SpectralLibrary(library.grid, (
        Spectrum("ldpe_mean", library.grid, mean_values, ("Target",)),))
    target_csv, _ = write_library_csv(root, target_lib, "target")
    # threshold at the top 0.1% of scores, computed once via the library API
    stats = background_stats(cube)
    dmap, _ = detect(cube, Spectrum("t", library.grid, mean_values), stats,
                     threshold=0.0)
    cut = float(np.quantile(dmap.scores, 0.999))
    return SimpleNamespace(root=root, hdr=str(hdr), lib_csv=str(lib_csv),
                           lib_json=str(lib_json), target_csv=str(target_csv),
                           cut=cut, implant=set(implant_pixels), cube=cube,
                           library=library, scores=dmap.scores)


@pytest.fixture(scope="module")
def detect_dir(scene, tmp_path_factory):
    out = tmp_path_factory.mktemp("detect")
    rc = main(["--output-dir", str(out), "detect",
               "--cube", scene.hdr, "--target-lib", scene.target_csv,
               "--target", "ldpe_mean", "--threshold", repr(scene.cut)])
    assert rc == 0
    return out


class TestDetect:
    def test_finds_the_implant(self, scene, detect_dir, capsys):
        rois = json.loads((detect_dir / "rois.json").read_text())
        assert len(rois) == 1
        assert {tuple(p) for p in rois[0]["pixels"]} == scene.implant
        assert rois[0]["rank"] == 1

    def test_scores_match_the_library_api(self, scene, detect_dir):
        raw = np.frombuffer((detect_dir / "scores.bin").read_bytes(),
                            dtype=np.float64)
        np.testing.assert_array_equal(raw.reshape(scene.scores.shape),
                                      scene.scores)
        meta = json.loads((detect_dir / "scores.json").read_text())
        assert meta["rows"] == 92 and meta["cols"] == 92
        assert meta["target"] == "ldpe_mean"
        assert meta["threshold"] == scene.cut

    def test_threads_do_not_change_the_bytes(self, scene, detect_dir, tmp_path):
        rc = main(["--threads", "4", "--output-dir", str(tmp_path), "detect",
                   "--cube", scene.hdr, "--target-lib", scene.target_csv,
                   "--target", "ldpe_mean", "--threshold", repr(scene.cut)])
        assert rc == 0
        assert (tmp_path / "scores.bin").read_bytes() == \
            (detect_dir / "scores.bin").read_bytes()
        assert (tmp_path / "rois.json").read_bytes() == \
            (detect_dir / "rois.json").read_bytes()

    def test_grid_mismatch_needs_resample(self, scene, tmp_path, capsys):
        # target library on a denser grid over the same range
        dense = np.linspace(0.4, 2.5, 61)
        from specid.core import BandGrid
        grid = BandGrid(dense)
        values = np.interp(dense, scene.library.grid.wavelengths,
                           scene.library.spectrum("ldpe_1").values)
        lib = SpectralLibrary(grid, (Spectrum("ldpe_dense", grid, values,
                                              ("Target",)),))
        csv_path, _ = write_library_csv(tmp_path, lib, "dense")
        argv = ["--output-dir", str(tmp_path), "detect", "--cube", scene.hdr,
                "--target-lib", str(csv_path), "--target", "ldpe_dense",
                "--threshold", "0.9"]
        assert main(argv) == 2
        assert "--resample" in capsys.readouterr().err
        assert main(argv + ["--resample"]) == 0

    def test_resampled_target_must_cover_the_cube(self, scene, tmp_path, capsys):
        from specid.core import BandGrid
        grid = BandGrid(np.linspace(0.6, 2.0, 30))
        values = np.interp(grid.wavelengths, scene.library.grid.wavelengths,
                           scene.library.spectrum("ldpe_1").values)
        lib = SpectralLibrary(grid, (Spectrum("ldpe_short", grid, values, ("Target",)),))
        csv_path, _ = write_library_csv(tmp_path, lib, "short")
        rc = main(["--output-dir", str(tmp_path), "detect", "--cube", scene.hdr,
                   "--target-lib", str(csv_path), "--target", "ldpe_short",
                   "--threshold", "0.9", "--resample"])
        assert rc == 2
        one_error_line(capsys, "'ldpe_short' does not cover the cube's wavelength range")
        assert not (tmp_path / "scores.bin").exists()

    def test_bad_threshold_is_an_input_error(self, scene, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "detect", "--cube", scene.hdr,
                   "--target-lib", scene.target_csv, "--target", "ldpe_mean",
                   "--threshold", "1.5"])
        assert rc == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, scene, tmp_path, capsys, threads):
        rc = main(["--threads", threads, "--output-dir", str(tmp_path), "detect",
                   "--cube", scene.hdr, "--target-lib", scene.target_csv,
                   "--target", "ldpe_mean", "--threshold", repr(scene.cut)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "threads must be >= 1, got %s" % threads in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "scores.bin").exists()

    def test_singular_background_is_a_numerical_error(self, scene, tmp_path):
        from specid.core import ImageCube
        flat = ImageCube(scene.library.grid,
                         np.full((4, 4, len(scene.library.grid)), 0.25))
        hdr, _ = write_envi_cube(tmp_path, flat, stem="flat")
        rc = main(["--output-dir", str(tmp_path), "detect", "--cube", str(hdr),
                   "--target-lib", scene.target_csv, "--target", "ldpe_mean"])
        assert rc == 3

    @pytest.mark.parametrize("line,fragment", [
        ("reflectance scale factor = 0", "scale factor must be positive and finite"),
        ("reflectance scale factor = -10000", "got -10000.0"),
        ("reflectance scale factor = nan", "got nan"),
        ("reflectance scale factor = inf", "got inf"),
        ("header offset = -8", "header offset must be >= 0, got -8"),
    ], ids=["factor-0", "factor-negative", "factor-nan", "factor-inf", "offset-negative"])
    def test_bad_header_values_exit_2(self, scene, tmp_path, capsys, line, fragment):
        from specid.core import ImageCube
        small = ImageCube(scene.cube.grid, scene.cube.data[:4, :3])
        hdr, _ = write_envi_cube(tmp_path, small, data_type=2, stem="small")
        key = line.split(" = ")[0]
        kept = [kept for kept in hdr.read_text().splitlines() if not kept.startswith(key)]
        hdr.write_text("\n".join(kept + [line]) + "\n")
        rc = main(["--output-dir", str(tmp_path), "detect", "--cube", str(hdr),
                   "--target-lib", scene.target_csv, "--target", "ldpe_mean"])
        assert rc == 2
        err = capsys.readouterr().err
        assert fragment in err and "small.hdr" in err

    def test_missing_cube_file(self, scene, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "detect",
                   "--cube", str(tmp_path / "missing.hdr"),
                   "--target-lib", scene.target_csv, "--target", "ldpe_mean"])
        assert rc == 2


@pytest.fixture(scope="module")
def identify_dir(scene, detect_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("identify")
    rc = main(["--output-dir", str(out), "identify",
               "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
               "--library", scene.lib_csv, "--hierarchy", scene.lib_json])
    assert rc == 0
    return out


class TestIdentify:
    def test_roi_average_identifies_the_target_class(self, identify_dir):
        results = json.loads((identify_dir / "results.json").read_text())
        ldpe = tree_lookup(results["tree"], "LDPE")
        assert ldpe is not None
        assert ldpe["p"] >= 0.9
        assert results["models"]
        assert abs(sum(m["probability"] for m in results["models"]) - 1) < 1e-9
        dot = (identify_dir / "tree.dot").read_text()
        assert dot.startswith("digraph identification {")
        assert '"/Polymer/Polyethylene/LDPE"' in dot

    def test_rerun_is_byte_identical(self, scene, detect_dir, identify_dir,
                                     tmp_path):
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
                   "--library", scene.lib_csv, "--hierarchy", scene.lib_json])
        assert rc == 0
        for name in ("results.json", "tree.dot"):
            assert (tmp_path / name).read_bytes() == \
                (identify_dir / name).read_bytes()

    def test_spectrum_csv_mode(self, scene, identify_dir, tmp_path):
        # feed the ROI-average spectrum back through the single-spectrum path
        from specid.core import average_pixels
        avg = average_pixels(scene.cube, sorted(scene.implant))
        spec_csv = tmp_path / "pixel.csv"
        with open(spec_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["wavelength_um", "pixel"])
            for wl, value in zip(scene.cube.grid.wavelengths, avg.values):
                writer.writerow([repr(float(wl)), repr(float(value))])
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--spectrum", str(spec_csv),
                   "--library", scene.lib_csv, "--hierarchy", scene.lib_json])
        assert rc == 0
        assert (tmp_path / "results.json").read_bytes() == \
            (identify_dir / "results.json").read_bytes()

    def test_background_removal_run(self, scene, detect_dir, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
                   "--library", scene.lib_csv, "--hierarchy", scene.lib_json,
                   "--background-removal", "--target", "ldpe_1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "background removed" in out
        results = json.loads((tmp_path / "results.json").read_text())
        assert tree_lookup(results["tree"], "LDPE")["p"] >= 0.9

    def test_explicit_background_coordinates(self, scene, detect_dir, tmp_path):
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
                   "--library", scene.lib_csv, "--hierarchy", scene.lib_json,
                   "--background-removal", "--target", "ldpe_1",
                   "--backgrounds", "0,0; 0,45; 45,0; 88,88"])
        assert rc == 0

    @pytest.mark.parametrize("strategy", ["occam", "exhaustive"])
    def test_summary_names_the_first_model(self, scene, detect_dir, tmp_path, capsys,
                                           strategy):
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
                   "--library", scene.lib_csv, "--hierarchy", scene.lib_json,
                   "--strategy", strategy, "--max-size", "3"])
        assert rc == 0
        first = json.loads((tmp_path / "results.json").read_text())["models"][0]
        best = re.search(r"\(best: (.*)\); wrote", capsys.readouterr().out).group(1)
        assert best == "+".join(first["regressors"])
        assert len(first["regressors"]) > 1

    def test_mc3_same_seed_is_byte_identical(self, scene, detect_dir, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["--seed", "5", "--output-dir", str(out), "identify",
                       "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
                       "--library", scene.lib_csv, "--hierarchy", scene.lib_json,
                       "--strategy", "mc3", "--iterations", "4000"])
            assert rc == 0
            outs.append((out / "results.json").read_bytes())
        assert outs[0] == outs[1]

    def test_conditional_tree_flag(self, scene, detect_dir, tmp_path):
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
                   "--library", scene.lib_csv, "--hierarchy", scene.lib_json,
                   "--conditional-tree"])
        assert rc == 0
        assert 'p=1.0000' in (tmp_path / "tree.dot").read_text()

    @pytest.mark.parametrize("extra,fragment", [
        (["--roi-index", "7"], "out of range"),
        (["--background-removal"], "--target"),
        (["--background-removal", "--target", "ldpe_1",
          "--backgrounds", "4"], "coordinate"),
        (["--roi", "{tmp}/bad_rois.json"], "integer pairs"),
        (["--library", "{tmp}/latin1.csv"], "latin1.csv' is not UTF-8 text: byte 0xff"),
        (["--hierarchy", "{tmp}/latin1.json"], "latin1.json' is not UTF-8 text: byte 0xff"),
        (["--roi", "{tmp}/latin1_rois.json"], "latin1_rois.json' is not UTF-8 text"),
        (["--roi", "{tmp}/twice_rois.json"], "lists a pixel twice in"),
    ])
    def test_input_errors_exit_2(self, scene, detect_dir, tmp_path, capsys,
                                 extra, fragment):
        (tmp_path / "bad_rois.json").write_text('[{"pixels": [[1]]}]')
        (tmp_path / "twice_rois.json").write_text('[{"pixels": [[40, 40], [40, 40]]}]')
        (tmp_path / "latin1.csv").write_bytes(b"wavelength_um,s\xff\n0.4,0.5\n0.5,0.6\n")
        (tmp_path / "latin1.json").write_bytes(b'{"s\xff": ["Fabric"]}')
        (tmp_path / "latin1_rois.json").write_bytes(b'[{"pixels": [[0, 0]], "n": "\xff"}]')
        extra = [arg.format(tmp=tmp_path) for arg in extra]
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
                   "--library", scene.lib_csv] + extra)
        assert rc == 2
        assert fragment in capsys.readouterr().err

    def test_library_on_another_grid_needs_resample(self, scene, detect_dir, tmp_path,
                                                    capsys):
        from specid.core import BandGrid, resample_library
        dense = resample_library(scene.library, BandGrid(np.linspace(0.4, 2.5, 61)))
        lib_csv, lib_json = write_library_csv(tmp_path, dense, "dense")
        argv = ["--output-dir", str(tmp_path), "identify", "--cube", scene.hdr,
                "--roi", str(detect_dir / "rois.json"), "--library", str(lib_csv),
                "--hierarchy", str(lib_json)]
        assert main(argv) == 2
        one_error_line(capsys, "library grid differs from the pixel grid; pass --resample")
        assert not (tmp_path / "results.json").exists()
        assert main(argv + ["--resample"]) == 0
        results = json.loads((tmp_path / "results.json").read_text())
        assert tree_lookup(results["tree"], "LDPE")["p"] >= 0.9

    def test_background_removal_needs_the_cube(self, scene, tmp_path, capsys):
        grid = scene.cube.grid
        pixel = SpectralLibrary(grid, (Spectrum("pixel", grid, scene.cube.data[0, 0],
                                                ("Pixel",)),))
        spec_csv, _ = write_library_csv(tmp_path, pixel, "pixel")
        rc = main(["--output-dir", str(tmp_path), "identify", "--spectrum", str(spec_csv),
                   "--library", scene.lib_csv, "--background-removal",
                   "--target", "ldpe_1"])
        assert rc == 2
        one_error_line(capsys, "--background-removal needs --cube and --roi")

    @pytest.mark.parametrize("backgrounds,fragment", [
        ("0,0; 1,x", "bad coordinate '1,x'; expected integers"),
        (";;", "no background coordinates given"),
    ])
    def test_bad_backgrounds_exit_2_in_one_line(self, scene, detect_dir, tmp_path, capsys,
                                                backgrounds, fragment):
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--cube", scene.hdr, "--roi", str(detect_dir / "rois.json"),
                   "--library", scene.lib_csv, "--background-removal",
                   "--target", "ldpe_1", "--backgrounds", backgrounds])
        assert rc == 2
        one_error_line(capsys, fragment)

    def test_spectrum_and_cube_conflict(self, scene, detect_dir, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--spectrum", "whatever.csv", "--cube", scene.hdr,
                   "--roi", str(detect_dir / "rois.json"),
                   "--library", scene.lib_csv])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_spectrum_nor_roi(self, scene, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--library", scene.lib_csv])
        assert rc == 2

    def test_empty_roi_file(self, scene, tmp_path, capsys):
        empty = tmp_path / "rois.json"
        empty.write_text("[]\n")
        rc = main(["--output-dir", str(tmp_path), "identify",
                   "--cube", scene.hdr, "--roi", str(empty),
                   "--library", scene.lib_csv])
        assert rc == 2
        assert "no regions" in capsys.readouterr().err


def one_error_line(capsys, fragment):
    """The run printed one stderr line holding `fragment`, and no traceback."""
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def write_cube_with_nan(root, scene, pixel):
    """The scene's cube as float32 ENVI, with a NaN in one band of `pixel`."""
    values = scene.cube.data.copy()
    values[pixel + (3,)] = np.nan
    # write_envi_cube reads only these four attributes; an ImageCube would
    # refuse the values
    cube = SimpleNamespace(grid=scene.cube.grid, data=values, rows=scene.cube.rows,
                           cols=scene.cube.cols)
    hdr, _ = write_envi_cube(root, cube, interleave="bil", data_type=4, stem="nan")
    return str(hdr)


class TestCubeValues:
    """Non-finite cube values and pixels outside the cube exit 2 in one line."""

    def identify(self, scene, cube, rois, tmp_path, extra=()):
        return main(["--output-dir", str(tmp_path / "out"), "identify", "--cube", cube,
                     "--roi", str(rois), "--library", scene.lib_csv] + list(extra))

    def test_detect_on_a_nan_exits_2_and_writes_nothing(self, scene, tmp_path, capsys):
        hdr = write_cube_with_nan(tmp_path, scene, (5, 7))
        out = tmp_path / "out"
        rc = main(["--output-dir", str(out), "detect", "--cube", hdr,
                   "--target-lib", scene.target_csv, "--target", "ldpe_mean"])
        assert rc == 2
        one_error_line(capsys, "cube contains non-finite values")
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["detect", "--threshold", "2"], "threshold must lie in (-1, 1), got 2.0"),
        (["--threads", "0", "detect"], "threads must be >= 1, got 0"),
    ], ids=["threshold", "threads"])
    def test_detect_options_are_checked_before_the_cube(self, scene, tmp_path, capsys,
                                                       option, message):
        hdr = write_cube_with_nan(tmp_path, scene, (5, 7))
        out = tmp_path / "out"
        rc = main(["--output-dir", str(out)] + option + [
            "--cube", hdr, "--target-lib", scene.target_csv, "--target", "ldpe_mean"])
        assert rc == 2
        one_error_line(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["identify", "--window-c", "0.5"], "window_ratio must be a number > 1, got 0.5"),
        (["identify", "--max-size", "0"], "max_size must be >= 1, got 0"),
        (["identify", "--iterations", "0"], "mc3_iterations must be >= 1"),
        (["--seed", "-1", "identify"], "seed must be an integer >= 0, got -1"),
    ], ids=["window-c", "max-size", "iterations", "seed"])
    def test_identify_options_are_checked_before_the_cube(self, scene, detect_dir, tmp_path,
                                                         capsys, option, message):
        hdr = write_cube_with_nan(tmp_path, scene, min(scene.implant))
        out = tmp_path / "out"
        rc = main(["--output-dir", str(out)] + option + [
            "--cube", hdr, "--roi", str(detect_dir / "rois.json"), "--library", scene.lib_csv])
        assert rc == 2
        one_error_line(capsys, message)
        assert not out.exists()

    def test_identify_with_a_nan_in_the_roi_exits_2(self, scene, detect_dir, tmp_path,
                                                     capsys):
        hdr = write_cube_with_nan(tmp_path, scene, min(scene.implant))
        rc = self.identify(scene, hdr, detect_dir / "rois.json", tmp_path)
        assert rc == 2
        one_error_line(capsys, "cube contains non-finite values")

    def test_identify_reads_only_the_rows_it_uses(self, scene, detect_dir, tmp_path):
        # the ROI and its annulus lie within 5 rows of the implant; a NaN in
        # a row outside them is never read
        top = min(r for r, _ in scene.implant)
        far = 0 if top > 6 else scene.cube.rows - 1
        assert not any(abs(far - r) <= 6 for r, _ in scene.implant)
        hdr = write_cube_with_nan(tmp_path, scene, (far, 0))
        rc = self.identify(scene, hdr, detect_dir / "rois.json", tmp_path,
                           ["--background-removal", "--target", "ldpe_1"])
        assert rc == 0

    def test_roi_pixel_outside_the_cube_exits_2(self, scene, tmp_path, capsys):
        rois = tmp_path / "rois.json"
        rois.write_text('[{"pixels": [[3, 4], [3, %d]]}]' % scene.cube.cols)
        rc = self.identify(scene, scene.hdr, rois, tmp_path)
        assert rc == 2
        one_error_line(capsys, "pixel (3, %d) outside 92x92 cube" % scene.cube.cols)

    def test_background_outside_the_cube_exits_2(self, scene, detect_dir, tmp_path,
                                                 capsys):
        rc = self.identify(scene, scene.hdr, detect_dir / "rois.json", tmp_path,
                           ["--background-removal", "--target", "ldpe_1",
                            "--backgrounds", "0,0; -1,5"])
        assert rc == 2
        one_error_line(capsys, "pixel (-1, 5) outside 92x92 cube")

    def test_identify_peaks_alike_on_a_cube_four_times_taller(self, scene, detect_dir,
                                                              tmp_path):
        # the pixels identify reads sit in the top copy of each cube
        from specid.core import ImageCube
        rois = detect_dir / "rois.json"
        peaks = []
        for times in (1, 4):
            tall = ImageCube(scene.cube.grid, np.concatenate([scene.cube.data] * times))
            hdr, _ = write_envi_cube(tmp_path / str(times), tall, interleave="bil",
                                     data_type=2, stem="tall")
            extra = ["--background-removal", "--target", "ldpe_1"]
            assert self.identify(scene, str(hdr), rois, tmp_path, extra) == 0
            tracemalloc.start()
            try:
                assert self.identify(scene, str(hdr), rois, tmp_path, extra) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the taller cube holds 6 MB more than the other; a row is 22 KB
        assert peaks[1] <= peaks[0] + 64 * 1024


def write_table_csv(path, y, X, names):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["y"])
        for i in range(y.size):
            writer.writerow([repr(float(v)) for v in X[i]]
                            + [repr(float(y[i]))])


@pytest.fixture(scope="module")
def table_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("table")
    y, X, names = make_table_instance(2)
    path = root / "table.csv"
    write_table_csv(path, y, X, names)
    return str(path)


class TestBmaTable:
    def test_occam_run_and_determinism(self, table_csv, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["--output-dir", str(out), "bma-table",
                       "--csv", table_csv, "--response", "y", "--max-size", "4"])
            assert rc == 0
            outs.append(out)
        assert "bma-table:" in capsys.readouterr().out
        for name in ("inclusion.csv", "results.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        text = (outs[0] / "inclusion.csv").read_text()
        assert text.startswith("regressor,inclusion_percent,averaged_coefficient\n")
        assert "(intercept)" in text
        results = json.loads((outs[0] / "results.json").read_text())
        assert results["tree"] is None

    def test_occam_strict_subset(self, table_csv, tmp_path):
        plain, strict = tmp_path / "plain", tmp_path / "strict"
        assert main(["--output-dir", str(plain), "bma-table", "--csv", table_csv,
                     "--response", "y", "--max-size", "4"]) == 0
        assert main(["--output-dir", str(strict), "bma-table", "--csv", table_csv,
                     "--response", "y", "--max-size", "4", "--occam-strict"]) == 0
        n_plain = len(json.loads((plain / "results.json").read_text())["models"])
        n_strict = len(json.loads((strict / "results.json").read_text())["models"])
        assert n_strict <= n_plain

    def test_mc3_same_seed_byte_identical(self, table_csv, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["--seed", "9", "--output-dir", str(out), "bma-table",
                       "--csv", table_csv, "--response", "y",
                       "--strategy", "mc3", "--max-size", "4",
                       "--iterations", "3000"])
            assert rc == 0
            blobs.append((out / "results.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mc3_size_limit_the_rows_cannot_fit_exits_2_at_every_seed(self, tmp_path,
                                                                    capsys, seed):
        # 5 predictors and the intercept on 7 rows: the full model needs 7
        # parameters; the chain refuses before it starts, wherever it would walk
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (7, 5))
        path = tmp_path / "seven.csv"
        write_table_csv(path, X @ [1.0, -1.0, 0.5, 0.0, 0.0] + 0.1 * rng.normal(0, 1, 7), X,
                        ("a", "b", "c", "d", "e"))
        rc = main(["--seed", str(seed), "bma-table", "--csv", str(path), "--response", "y",
                   "--strategy", "mc3", "--iterations", "20", "--out", str(tmp_path / "out")])
        assert rc == 2
        one_error_line(capsys, "model with 7 parameters needs more than 7 observations")

    def test_out_flag_overrides_output_dir(self, table_csv, tmp_path):
        main_dir, override = tmp_path / "main", tmp_path / "override"
        rc = main(["--output-dir", str(main_dir), "bma-table", "--csv", table_csv,
                   "--response", "y", "--max-size", "3",
                   "--out", str(override)])
        assert rc == 0
        assert (override / "results.json").exists()
        assert not main_dir.exists()

    def test_missing_csv(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "bma-table",
                   "--csv", str(tmp_path / "nope.csv"), "--response", "y"])
        assert rc == 2

    def test_unknown_response(self, table_csv, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "bma-table",
                   "--csv", table_csv, "--response", "zz"])
        assert rc == 2
        assert "response" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,fragment", [
        (["--max-size", "-3"], "max_size must be >= 1, got -3"),
        (["--csv", "{tmp}/latin1.csv"], "latin1.csv' is not UTF-8 text: byte 0xe9"),
    ])
    def test_input_errors_exit_2(self, table_csv, tmp_path, capsys, extra, fragment):
        (tmp_path / "latin1.csv").write_bytes(b"caf\xe9,y\n1,2\n3,4\n5,7\n")
        extra = [arg.format(tmp=tmp_path) for arg in extra]
        rc = main(["--output-dir", str(tmp_path), "bma-table",
                   "--csv", table_csv, "--response", "y"] + extra)
        assert rc == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("option,message", [
        (["bma-table", "--window-c", "0.5"], "window_ratio must be a number > 1, got 0.5"),
        (["bma-table", "--max-size", "-1"], "max_size must be >= 1, got -1"),
        (["bma-table", "--iterations", "0"], "mc3_iterations must be >= 1"),
        (["--seed", "-1", "bma-table"], "seed must be an integer >= 0, got -1"),
    ], ids=["window-c", "max-size", "iterations", "seed"])
    def test_options_are_checked_before_the_table(self, tmp_path, capsys, option, message):
        out = tmp_path / "out"
        rc = main(["--output-dir", str(out)] + option + [
            "--csv", str(tmp_path / "nothere.csv"), "--response", "y"])
        assert rc == 2
        one_error_line(capsys, message)
        assert not out.exists()

    def test_max_size_0_means_every_predictor(self, table_csv, tmp_path):
        runs = {}
        for size in ("0", str(len(make_table_instance(2)[2]))):
            out = tmp_path / size
            assert main(["--output-dir", str(out), "bma-table", "--csv", table_csv,
                         "--response", "y", "--max-size", size]) == 0
            runs[size] = (out / "results.json").read_bytes()
        assert len(set(runs.values())) == 1

    def test_negative_seed_exits_2_in_one_line(self, tmp_path):
        # numpy's generator would raise on it mid-run; the config refuses it first
        crime = str(Path(__file__).parent / "data" / "uscrime.csv")
        proc = subprocess.run([sys.executable, "-m", "specid", "--seed", "-1", "bma-table",
                               "--csv", crime, "--response", "y", "--strategy", "mc3",
                               "--out", str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "seed must be an integer >= 0, got -1" in proc.stderr

    def test_exhaustive_not_offered(self, table_csv, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["--output-dir", str(tmp_path), "bma-table", "--csv", table_csv,
                  "--response", "y", "--strategy", "exhaustive"])
        assert err.value.code == 2


class TestBeamCapWarning:
    @pytest.mark.parametrize("command", ["identify", "bma-table"])
    def test_warns_only_when_the_beam_was_capped(self, scene, detect_dir, table_csv,
                                                 tmp_path, capsys, monkeypatch, command):
        def argv(out):
            if command == "identify":
                return ["--output-dir", str(out), "identify", "--cube", scene.hdr,
                        "--roi", str(detect_dir / "rois.json"),
                        "--library", scene.lib_csv]
            return ["--output-dir", str(out), "bma-table", "--csv", table_csv,
                    "--response", "y", "--max-size", "4"]

        plain, capped = tmp_path / "plain", tmp_path / "capped"
        assert main(argv(plain)) == 0
        assert "warning" not in capsys.readouterr().err
        monkeypatch.setattr(specid.cli, "SearchConfig",
                            functools.partial(SearchConfig, beam_cap=1))
        assert main(argv(capped)) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "cut to a beam of 1 per level" in err
        assert sorted(p.name for p in capped.iterdir()) == \
            sorted(p.name for p in plain.iterdir())


class TestParsing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("specid ")

    def test_global_flags_must_precede_the_subcommand(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bma-table", "--csv", "x.csv", "--response", "y",
                  "--output-dir", str(tmp_path)])
        assert err.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "specid", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("specid ")

    def test_cli_module_runs_as_a_script(self):
        proc = subprocess.run([sys.executable, "-m", "specid.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "specid 0.1.0\n"


# `python -c LOADED_AT_EXIT ARGS...` runs `python -m specid ARGS...`, or with
# no ARGS only imports specid.cli, and at exit writes the names of the loaded
# modules to stderr as one JSON line.
LOADED_AT_EXIT = """
import atexit, json, runpy, sys
atexit.register(lambda: sys.stderr.write(json.dumps(sorted(sys.modules)) + "\\n"))
if len(sys.argv) > 1:
    runpy.run_module("specid", run_name="__main__", alter_sys=True)
else:
    import specid.cli
"""


class TestImportFootprint:
    """The fits and the background sums use scipy.linalg's compiled LAPACK and
    BLAS without its package import, and `detect` labels ROIs without
    scipy.ndimage: no command imports the scipy package."""

    @pytest.mark.parametrize("command", ["import", "version", "detect", "identify",
                                         "bma-table"])
    def test_no_scipy_linalg_package_is_loaded(self, scene, table_csv, tmp_path, command):
        spectrum = tmp_path / "pixel.csv"
        with open(spectrum, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["wavelength_um", "pixel"])
            for wl, value in zip(scene.cube.grid.wavelengths,
                                 scene.library.spectrum("ldpe_1").values):
                writer.writerow([repr(float(wl)), repr(float(value))])
        args = {"import": [], "version": ["--version"],
                "detect": ["--output-dir", str(tmp_path / "out"), "detect",
                           "--cube", scene.hdr, "--target-lib", scene.target_csv,
                           "--target", "ldpe_mean", "--threshold", repr(scene.cut)],
                "identify": ["--output-dir", str(tmp_path / "out"), "identify",
                             "--spectrum", str(spectrum), "--library", scene.lib_csv],
                "bma-table": ["bma-table", "--csv", table_csv, "--response", "y",
                              "--out", str(tmp_path / "out")]}[command]
        proc = subprocess.run([sys.executable, "-c", LOADED_AT_EXIT] + args,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stderr.splitlines()[-1]))
        assert "scipy.linalg._flapack" in loaded
        assert not loaded & {"scipy", "scipy._lib", "scipy.ndimage", "scipy.linalg",
                             "numpy.f2py"}
        # only detect's statistics and scoring load the compiled BLAS
        assert ("scipy.linalg._fblas" in loaded) == (command == "detect")
        if command == "detect":
            assert (tmp_path / "out" / "rois.json").exists()
        if command in ("identify", "bma-table"):
            assert (tmp_path / "out" / "results.json").exists()


class TestFailedRuns:
    """A run that fails writes nothing, not even its output directory."""

    @pytest.mark.parametrize("command", [
        ["--output-dir", "{out}", "detect", "--cube", "{tmp}/nothere.hdr",
         "--target-lib", "{tmp}/nolib.csv", "--target", "t"],
        ["--output-dir", "{out}", "identify", "--spectrum", "{tmp}/nothere.csv",
         "--library", "{tmp}/nolib.csv"],
        ["bma-table", "--csv", "{tmp}/nothere.csv", "--response", "y", "--out", "{out}"],
    ], ids=["detect", "identify", "bma-table"])
    def test_missing_input_exits_2_and_makes_no_directory(self, tmp_path, capsys,
                                                          command):
        out = tmp_path / "od" / "x"
        rc = main([arg.format(tmp=tmp_path, out=out) for arg in command])
        assert rc == 2
        one_error_line(capsys, "nothere")
        assert not (tmp_path / "od").exists()

    @pytest.mark.parametrize("command", [
        ["detect", "--cube", "{tmp}/nothere.hdr", "--target-lib", "{tmp}/nolib.csv",
         "--target", "t", "--out", "{out}"],
        ["identify", "--spectrum", "{tmp}/nothere.csv", "--library", "{tmp}/nolib.csv",
         "--out", "{out}"],
        ["bma-table", "--csv", "{tmp}/nothere.csv", "--response", "y", "--out", "{out}"],
    ], ids=["detect", "identify", "bma-table"])
    @pytest.mark.parametrize("option,message", [
        (["--threads", "0"], "threads must be >= 1, got 0"),
        (["--threads", "-5"], "threads must be >= 1, got -5"),
        (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ], ids=["threads-0", "threads-negative", "seed"])
    def test_global_options_are_checked_before_any_input(self, tmp_path, capsys, command,
                                                         option, message):
        # the inputs do not exist: the message shows the option was checked first
        out = tmp_path / "od" / "x"
        rc = main(option + [arg.format(tmp=tmp_path, out=out) for arg in command])
        assert rc == 2
        one_error_line(capsys, message)
        assert not (tmp_path / "od").exists()

    @pytest.mark.parametrize("strategy,message", [
        ("occam", "every single-regressor model is degenerate"),
        ("exhaustive", "no usable models: every candidate design is degenerate"),
    ])
    def test_a_library_of_zero_spectra_exits_3(self, tmp_path, capsys, strategy,
                                               message):
        grid = BandGrid(np.linspace(0.4, 1.2, 6))
        zeros = SpectralLibrary(grid, tuple(Spectrum("z%d" % i, grid, np.zeros(6), ("Zero",))
                                            for i in range(3)))
        lib_csv, _ = write_library_csv(tmp_path, zeros, "zeros")
        pixel = SpectralLibrary(grid, (Spectrum("pixel", grid, np.linspace(0.2, 0.7, 6),
                                                ("Pixel",)),))
        spectrum_csv, _ = write_library_csv(tmp_path, pixel, "pixel")
        out = tmp_path / "out"
        rc = main(["--output-dir", str(out), "identify", "--spectrum", str(spectrum_csv),
                   "--library", str(lib_csv), "--strategy", strategy])
        assert rc == 3
        one_error_line(capsys, "SearchError: " + message)
        assert not out.exists()
