"""Seeded inputs for the four benchmark workloads, cached per seed.

Every file the program reads is generated here, outside any timed region,
from the spectra of tests/synth.py (imported, not copied) and the crime table
in tests/data. Each workload's inputs live in their own directory under
.bench_work/inputs/, finished by a manifest.json that is written last, so a
directory without one is an interrupted build and is rebuilt.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
WORK = REPO / ".bench_work"
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

import synth  # noqa: E402  (tests/synth.py)
from conftest import write_envi_cube, write_library_csv  # noqa: E402
from specid.core import mix  # noqa: E402

TARGET = "ldpe_1"
LDPE_PATH = ["Polymer", "Polyethylene", "LDPE"]

# detect_scene: 704 x 704 x 128 int16 BIL; the float64 cube read_envi builds
# (507 MB) is more than 4x a 105 MiB L3, so scoring streams from memory
SCENE_SIDE = 704
SCENE_BANDS = 128
IMPLANT_GRID = 10              # 10 x 10 = 100 planted 3x3 implants
DROPPED_BANDS = 4
# planted implants score 0.78-0.92 against ldpe_1 and background pixels
# below 0.2 (measured on 128-band scenes), so 0.5 finds every implant and
# no false alarm: the ROI count, and with it the extraction cost, is fixed
DETECT_THRESHOLD = 0.5

# identify_pixels: a fixed batch, synth scenes 0-9 with their libraries (two
# implant averages each), plus background pixels drawn from the seed. Scenes
# drawn from the seed would make the batch's work differ by +-20% from seed
# to seed, since the number of fits per pixel depends on the library.
PIXEL_SCENES = 10
BACKGROUND_PER_SCENE = 18
MAX_SIZE = 4
EXHAUSTIVE_MODELS = sum(math.comb(40, k) for k in range(1, MAX_SIZE + 1))
MC3_ITERATIONS = 100_000
KEEP_PER_WORKLOAD = 3          # input sets kept per workload (the scene is 127 MB)


def library_on(n_bands: int, seed: int):
    """synth.make_library on an n_bands grid (make_library reads synth.default_grid)."""
    saved = synth.default_grid
    synth.default_grid = lambda: saved(n_bands)
    try:
        return synth.make_library(seed)
    finally:
        synth.default_grid = saved


def _write_int16_bil(directory: Path, blocks, rows: int, cols: int, grid, bbl) -> Path:
    """Stream (rows_in_block, cols, bands) float blocks into an int16 BIL cube."""
    data_path = directory / "scene.img"
    with open(data_path, "wb") as fh:
        for block in blocks:
            scaled = np.round(block * 10000.0).astype("<i2")
            fh.write(np.ascontiguousarray(scaled.transpose(0, 2, 1)).tobytes())
    header = ["ENVI", "samples = %d" % cols, "lines = %d" % rows,
              "bands = %d" % len(grid), "interleave = bil", "data type = 2",
              "byte order = 0", "header offset = 0",
              "wavelength units = Micrometers",
              "wavelength = { %s }" % ", ".join(repr(float(w)) for w in grid.wavelengths),
              "bbl = { %s }" % ", ".join(str(int(b)) for b in bbl),
              "reflectance scale factor = 10000.0"]
    hdr_path = directory / "scene.hdr"
    hdr_path.write_text("\n".join(header) + "\n", encoding="utf-8")
    return hdr_path


def _detect_scene(directory: Path, seed: int) -> dict:
    """synth's scene recipe at 128 bands and 704 x 704, with 100 implants."""
    library, _, implant, bg_names = library_on(SCENE_BANDS, seed)
    write_library_csv(directory, library)
    rng = np.random.default_rng(seed + 1_000_003)
    side, cell = SCENE_SIDE, SCENE_SIDE // IMPLANT_GRID
    corners = [(gr * cell + int(rng.integers(6, cell - 9)),
                gc * cell + int(rng.integers(6, cell - 9)))
               for gr in range(IMPLANT_GRID) for gc in range(IMPLANT_GRID)]
    bbl = np.ones(SCENE_BANDS, dtype=int)
    bbl[rng.choice(np.arange(1, SCENE_BANDS - 1), DROPPED_BANDS, replace=False)] = 0
    bg_matrix = np.array([library.spectrum(n).values for n in bg_names])
    bg_spectra = [library.spectrum(n) for n in bg_names]
    block_rows = 32

    def blocks():
        for r_lo in range(0, side, block_rows):
            weights = rng.dirichlet((6.0, 4.0, 3.0), size=block_rows * side)
            data = weights @ bg_matrix + rng.normal(
                0.0, synth.NOISE_SIGMA, (block_rows * side, SCENE_BANDS))
            data = data.reshape(block_rows, side, SCENE_BANDS)
            weights = weights.reshape(block_rows, side, 3)
            for k, (r0, c0) in enumerate(corners):
                for r in range(max(r0, r_lo), min(r0 + 3, r_lo + block_rows)):
                    for c in range(c0, c0 + 3):
                        components = [(implant, synth.IMPLANT_ABUNDANCE)] + [
                            (spec, (1.0 - synth.IMPLANT_ABUNDANCE) * w)
                            for spec, w in zip(bg_spectra, weights[r - r_lo, c])]
                        data[r - r_lo, c] = mix(
                            components, noise_sigma=synth.NOISE_SIGMA,
                            seed=seed * 997 + k * 9 + (r - r0) * 3 + (c - c0)).values
            yield data

    hdr = _write_int16_bil(directory, blocks(), side, side, library.grid, bbl)
    return {"cube": hdr.name, "library": "library.csv", "target": TARGET,
            "threshold": DETECT_THRESHOLD, "shape": [side, side],
            "implants": [list(c) for c in corners]}


def _write_synth_scene(directory: Path, scene_seed: int, stem: str):
    """One test-size synth.make_scene as a float64 ENVI cube plus its library."""
    cube, library, _, _, pixels = synth.make_scene(scene_seed)
    hdr, _ = write_envi_cube(directory, cube, stem=stem)
    lib_csv, lib_json = write_library_csv(directory, library, stem=stem + "_library")
    return hdr.name, lib_csv.name, lib_json.name, [list(p) for p in pixels]


def _identify_pixels(directory: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    scenes = []
    for i in range(PIXEL_SCENES):
        hdr, lib_csv, lib_json, implant = _write_synth_scene(directory, i, "scene%d" % i)
        r0, c0 = implant[0]
        background = []
        while len(background) < BACKGROUND_PER_SCENE:
            r, c = (int(v) for v in rng.integers(0, synth.SCENE_ROWS, 2))
            if abs(r - r0 - 1) > 6 or abs(c - c0 - 1) > 6:
                background.append([r, c])
        scenes.append({"cube": hdr, "library": lib_csv, "hierarchy": lib_json,
                       "implant": implant, "background": background})
    return {"scenes": scenes, "target": TARGET, "ldpe_path": LDPE_PATH,
            "max_size": MAX_SIZE}


def _identify_exhaustive(directory: Path, seed: int) -> dict:
    hdr, lib_csv, lib_json, implant = _write_synth_scene(directory, seed, "scene")
    rois = [{"rank": 1, "pixels": implant}]
    (directory / "rois.json").write_text(json.dumps(rois) + "\n", encoding="utf-8")
    return {"cube": hdr, "roi": "rois.json", "library": lib_csv,
            "hierarchy": lib_json, "max_size": MAX_SIZE,
            "models": EXHAUSTIVE_MODELS}


def _bma_crime_mc3(directory: Path, seed: int) -> dict:
    """The crime table as tests/test_acceptance.py::crime_run builds it."""
    with open(REPO / "tests" / "data" / "uscrime.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    with open(directory / "uscrime_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in body:
            # the southern-state indicator stays raw; every other column is logged
            writer.writerow([repr(float(v) if name == "So" else math.log(float(v)))
                             for name, v in zip(header, row)])
    return {"csv": "uscrime_log.csv", "response": "y",
            "iterations": MC3_ITERATIONS, "mc3_seed": seed}


GENERATORS = {
    "detect_scene": _detect_scene,
    "identify_pixels": _identify_pixels,
    "identify_exhaustive": _identify_exhaustive,
    "bma_crime_mc3": _bma_crime_mc3,
}


def inputs_for(workload: str, seed: int) -> tuple:
    """(directory, manifest) for a workload and seed, building them if missing.

    The directory name carries a hash of this file, so inputs made by an
    earlier version of the generator are never reused.
    """
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:8]
    directory = WORK / "inputs" / ("%s-%d-%s" % (workload, seed, version))
    manifest_path = directory / "manifest.json"
    if manifest_path.is_file():
        manifest_path.touch()
        return directory, json.loads(manifest_path.read_text())
    _prune(workload)
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    manifest = GENERATORS[workload](directory, seed)
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    return directory, manifest


def _prune(workload: str) -> None:
    """Drop the least recently used input sets beyond KEEP_PER_WORKLOAD - 1."""
    root = WORK / "inputs"
    if not root.is_dir():
        return
    sets = sorted(root.glob(workload + "-*"),
                  key=lambda p: (p / "manifest.json").stat().st_mtime
                  if (p / "manifest.json").is_file() else 0.0)
    for stale in sets[:max(0, len(sets) - KEEP_PER_WORKLOAD + 1)]:
        shutil.rmtree(stale, ignore_errors=True)
