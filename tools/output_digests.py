"""sha256 of every output file of a fixed set of specid commands, as JSON.

    python tools/output_digests.py [--src DIR] [--work DIR] [--against OTHER_SRC]
                                   [--detect HDR LIB TARGET THRESHOLD]...

Compares two versions of specid output for output: run it once with --src
pointing at each checkout's src directory (default: this checkout's) and
compare the two JSON objects. They are equal exactly when every output file
is byte-identical. With --against, one command does both: the specid in
OTHER_SRC runs in a child process on the same inputs, each differing
"<run>/<file>" is printed, and the exit status is 1 on any difference.

Inputs are built from this checkout's tests/synth.py and tests/conftest.py,
the same for both runs:
  scene1  synth scene 1 at test size, a float64 BSQ cube;
  scene7  synth scene 7 at 300 x 250, an int16 BIL cube with two bad bands,
          so read_envi converts it in several row blocks and detect scores
          it in several;
  scene11 synth scene 11 at 300 x 250, a big-endian int16 BSQ cube after a
          128-byte header offset, so read_envi reads it band by band in
          several row blocks;
  scene13 synth scene 13 at 300 x 250, a float32 BIP cube with one bad
          band, so the finite check of every converted row runs;
  scene17 synth scene 17 at 301 x 257, an int16 BIL cube with one bad band,
          detect only: at 2**18 values per block, 9 scoring blocks of 32
          rows and more; at an odd width the last (45 rows) holds an odd
          count of pixels, so its split between BLAS threads falls off the
          4-pixel grid of OpenBLAS's matrix-vector kernel; and once more,
          at --threads 1 and --threshold 0.0, for 280 irregular ROIs, many
          of several row runs, 35 joined only through corner-touching pixels;
  crime   tests/data/uscrime.csv with every column but So logged;
  names   synth table instance 5, its columns renamed so that the results
          writer must escape them: non-ASCII, a '"', a '\\', and one named
          "models" like a section of results.json.
Every command runs in process through specid.cli.main:
  detect on each scene (and on each --detect input) at --threads 1, 2 and 4,
  at --threshold 0.9 (a --detect input's own threshold);
  identify --cube --roi on the top ROI of scenes 1 and 7: occam, occam
  --occam-strict, mc3, exhaustive at max size 3, occam with background
  removal, occam with --conditional-tree, all at --seed 0; on scene 1's
  also exhaustive at max size 4, mc3 at max size 28, mc3 at --seed 11, and
  exhaustive at max size 3 with a library that holds an exact copy of the
  target spectrum ("ldpe_1.copy", its last column, of the same class), and
  exhaustive at max size 2 (3,240 fits) with scene 1's library followed by
  scene 7's, each of its names ending in ".scene7": 80 candidates, so every
  row of the model set is packed into two 64-bit words, and occam on an ROI
  file that lists the top ROI's pixels in reverse raster order, so that the
  ROI average gathers every row's pixels out of column order, bottom row
  first; on scene 11's: occam; on scene 13's: occam, and background removal
  with explicit --backgrounds pixels spread over the cube, out of row order;
  bma-table on the crime table: occam --occam-strict, occam and mc3 at
  --seed 3, occam at max size 6 with a window so wide (--window-c 1e300)
  that it keeps all 9,948 models, occam --occam-strict with an unbounded
  window (--window-c inf), so that the sub-model rule runs on all 32,767
  subsets and keeps 263, and mc3 at the benchmark's size (100,000
  iterations, no size cap) at --seed 5 and --seed 4294967296 (2**32), whose
  chains start without and with a kept 32-bit half of PCG64's output; on the
  names table: occam.
The exhaustive runs at max size 3 keep 10,700 models each, so they cover
several of the chunks in which io_formats.write_results_json writes
results.json; the one at max size 4 keeps 102,090, so it covers the search's
fourth level and about a hundred chunks. The mc3 run at max size 28 (the
largest the 30 bands can fit) grows models large enough that its chain
proposes flagged designs (134 of its 2,940 distinct proposals; its largest
model holds 18 candidates), so it covers the rejection of degenerate moves.
The wide Occam run fits its levels of sizes 4 to 6 (1,365, 3,003 and 5,005
children) in more than one of the chunks in which the search writes its fits.
The copy run grows, in its third level (10,660 fits, ten full chunks of
the search's fits and part of an eleventh), a factor holding ldpe_1 by its
copy 39 times, all in the first chunk: each meets a dependent column and is
refitted from the Gram matrix in the middle of a full-size chunk.
The printed object maps "<run>/<file>" to the file's sha256: 106 sums, and 9
more for each --detect input. Output files and inputs are kept under --work
(default: a temporary directory).

Every hashed .json file must also be strict JSON (RFC 8259): it must parse
with json's NaN, Infinity and -Infinity tokens refused. Each file that does
not is printed on stderr as "<run>/<file>: not strict JSON", and the exit
status is then 1, with or without --against.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
THREADS = (1, 2, 4)
# (label, --seed, subcommand options)
IDENTIFY_RUNS = (
    ("occam", 0, []),
    ("strict", 0, ["--occam-strict"]),
    ("mc3", 0, ["--strategy", "mc3", "--iterations", "3000"]),
    ("exhaustive", 0, ["--strategy", "exhaustive", "--max-size", "3"]),
    ("removal", 0, ["--background-removal", "--target", "{target}"]),
    ("conditional", 0, ["--conditional-tree"]),
)
EXHAUSTIVE_4 = ("exhaustive4", 0, ["--strategy", "exhaustive", "--max-size", "4"])
MC3_WIDE = ("mc3-wide", 0, ["--strategy", "mc3", "--iterations", "3000", "--max-size", "28"])
MC3_SEEDED = ("mc3-seed11", 11, ["--strategy", "mc3", "--iterations", "3000"])
BACKGROUNDS = ("backgrounds", 0, ["--background-removal", "--target", "{target}",
                                  "--backgrounds",
                                  "299,249;0,0;150,3;150,200;7,120;0,249;299,0;150,4"])
# (seed, scene size, ENVI layout, identify runs on the top ROI)
SCENES = ((1, {}, {}, IDENTIFY_RUNS + (EXHAUSTIVE_4, MC3_WIDE, MC3_SEEDED)),
          (7, {"rows": 300, "cols": 250},
           {"interleave": "bil", "data_type": 2, "bad_bands": (3, 17)}, IDENTIFY_RUNS),
          (11, {"rows": 300, "cols": 250},
           {"interleave": "bsq", "data_type": 2, "byte_order": 1, "header_offset": 128},
           IDENTIFY_RUNS[:1]),
          (13, {"rows": 300, "cols": 250},
           {"interleave": "bip", "data_type": 4, "bad_bands": (20,)},
           IDENTIFY_RUNS[:1] + (BACKGROUNDS,)),
          (17, {"rows": 301, "cols": 257},
           {"interleave": "bil", "data_type": 2, "bad_bands": (11,)}, ()))
BMA_RUNS = (
    ("occam", 3, ["--occam-strict"]),
    ("occam-window", 3, []),
    ("mc3", 3, ["--strategy", "mc3", "--iterations", "5000", "--max-size", "6"]),
    # every model of up to 6 predictors: levels of more than one fit chunk
    ("occam-wide", 3, ["--window-c", "1e300", "--max-size", "6"]),
    # the sub-model rule over every subset: an unbounded window keeps all 32,767
    ("occam-strict-all", 3, ["--window-c", "inf", "--occam-strict"]),
    # the benchmark's chain: its first draw without, then with, a kept 32-bit half
    ("mc3-seed5", 5, ["--strategy", "mc3", "--iterations", "100000"]),
    ("mc3-seed4294967296", 2**32, ["--strategy", "mc3", "--iterations", "100000"]),
)
ESCAPED_NAMES = ("Größe", 'say "hi"', "back\\slash", "models")


def _run(main, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise SystemExit("specid %s exited with %d" % (" ".join(argv), status))


def _digests(directory: Path, run: str, digests: dict) -> None:
    for path in sorted(directory.iterdir()):
        digests["%s/%s" % (run, path.name)] = hashlib.sha256(path.read_bytes()).hexdigest()


def _refuse(token: str):
    raise ValueError("%s is not JSON" % token)


def strict_json(path: Path) -> bool:
    """Whether the file parses as JSON with NaN, Infinity and -Infinity refused."""
    try:
        json.loads(path.read_bytes(), parse_constant=_refuse)
    except ValueError:
        return False
    return True


def _write_scene(work: Path, seed: int, size: dict, layout: dict):
    """One synth scene as an ENVI cube plus its library; returns detect/identify inputs."""
    import numpy as np
    import synth
    from conftest import write_envi_cube, write_library_csv

    cube, library, target_names, _, _ = synth.make_scene(seed, **size)
    directory = work / ("scene%d" % seed)
    layout = dict(layout)
    bbl = None
    if "bad_bands" in layout:
        bbl = np.ones(len(cube.grid), dtype=int)
        bbl[list(layout.pop("bad_bands"))] = 0
    hdr, _ = write_envi_cube(directory, cube, bbl=bbl, stem="scene", **layout)
    lib_csv, lib_json = write_library_csv(directory, library)
    return {"hdr": str(hdr), "library": str(lib_csv), "hierarchy": str(lib_json),
            "target": target_names[0]}


def _library(scene: dict, stem: str, header: list, rows: list, classes: dict) -> tuple:
    """A library CSV and hierarchy JSON beside the scene's; returns their paths."""
    directory = Path(scene["library"]).parent
    library = directory / (stem + ".csv")
    with open(library, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    hierarchy = directory / (stem + "_classes.json")
    with open(hierarchy, "w") as fh:
        json.dump(classes, fh)
    return str(library), str(hierarchy)


def _read_library(scene: dict) -> tuple:
    with open(scene["library"], newline="") as fh:
        rows = list(csv.reader(fh))
    with open(scene["hierarchy"]) as fh:
        return rows, json.load(fh)


def _with_copy(scene: dict) -> tuple:
    """The scene's library and hierarchy with its target spectrum copied into a
    last column, named "<target>.copy", of the same class; returns their paths."""
    rows, classes = _read_library(scene)
    target = rows[0].index(scene["target"])
    classes[scene["target"] + ".copy"] = classes[scene["target"]]
    return _library(scene, "library_copy", rows[0] + [scene["target"] + ".copy"],
                    [row + [row[target]] for row in rows[1:]], classes)


def _joined(scene: dict, other: dict, suffix: str) -> tuple:
    """The scene's library and hierarchy followed by other's, on the same
    wavelengths, each of other's names followed by suffix; returns their paths."""
    rows, classes = _read_library(scene)
    more, more_classes = _read_library(other)
    if [row[0] for row in rows[1:]] != [row[0] for row in more[1:]]:
        raise SystemExit("%s and %s differ in wavelengths" % (scene["library"], other["library"]))
    classes.update((name + suffix, path) for name, path in more_classes.items())
    return _library(scene, "library_joined", rows[0] + [name + suffix for name in more[0][1:]],
                    [row + extra[1:] for row, extra in zip(rows[1:], more[1:])], classes)


def _crime_table(work: Path) -> str:
    with open(REPO / "tests" / "data" / "uscrime.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    path = work / "uscrime_log.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in body:
            writer.writerow([repr(float(v) if name == "So" else math.log(float(v)))
                             for name, v in zip(header, row)])
    return str(path)


def _names_table(work: Path) -> str:
    import synth

    y, X, names = synth.make_table_instance(5)
    names = ESCAPED_NAMES + names[len(ESCAPED_NAMES):]
    path = work / "names.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("y",) + names)
        writer.writerows([repr(float(v)) for v in row]
                         for row in zip(y, *X.T))
    return str(path)


def collect(work: Path, detect_inputs) -> dict:
    from specid.cli import main

    digests = {}
    detects = [("scene%d" % seed, _write_scene(work, seed, size, layout), runs)
               for seed, size, layout, runs in SCENES]
    for i, (hdr, lib, target, threshold) in enumerate(detect_inputs):
        detects.append(("detect%d" % i, {"hdr": hdr, "library": lib, "target": target,
                                         "threshold": threshold}, ()))

    def detect(scene, threshold, threads, run):
        out = work / run
        _run(main, ["--threads", str(threads), "detect", "--cube", scene["hdr"],
                    "--target-lib", scene["library"], "--target", scene["target"],
                    "--threshold", threshold, "--resample", "--out", str(out)])
        _digests(out, run, digests)

    for name, scene, identify_runs in detects:
        for n in THREADS:
            detect(scene, scene.get("threshold", "0.9"), n, "%s/detect-t%d" % (name, n))
        rois = str(work / ("%s/detect-t%d" % (name, THREADS[0])) / "rois.json")
        for label, seed, extra in identify_runs:
            run = "%s/identify-%s" % (name, label)
            out = work / run
            _run(main, ["--seed", str(seed), "identify", "--cube", scene["hdr"], "--roi", rois,
                        "--library", scene["library"], "--hierarchy", scene["hierarchy"],
                        "--resample", "--out", str(out)]
                 + [arg.format(target=scene["target"]) for arg in extra])
            _digests(out, run, digests)
    # scene 17 at threshold 0: 280 ROIs of irregular shape, 86 of them over
    # several rows, 35 held together only through pixels touching at a corner
    detect(detects[4][1], "0.0", THREADS[0], "scene17/detect-low")
    # exhaustive search with an exact copy of scene 1's target in its library:
    # growing a factor that holds one of the two by the other meets a dependent
    # column, and those rows are refitted inside full-size fit chunks; and over
    # scene 1's library joined by scene 7's, 80 candidates, so each model's
    # candidates are packed into two 64-bit words
    name, scene, _ = detects[0]
    rois = str(work / ("%s/detect-t%d" % (name, THREADS[0])) / "rois.json")
    for label, (library, hierarchy), size in (
            ("exhaustive-copy", _with_copy(scene), "3"),
            ("exhaustive-80", _joined(scene, detects[1][1], ".scene7"), "2")):
        run = "%s/identify-%s" % (name, label)
        out = work / run
        _run(main, ["identify", "--cube", scene["hdr"], "--library", library, "--roi", rois,
                    "--hierarchy", hierarchy, "--resample", "--strategy", "exhaustive",
                    "--max-size", size, "--out", str(out)])
        _digests(out, run, digests)
    # scene 1's top ROI with its pixels in reverse raster order: each row's
    # pixels are gathered out of column order, and the rows come bottom-up
    with open(rois) as fh:
        pixels = json.load(fh)[0]["pixels"]
    reversed_rois = work / name / "rois_reversed.json"
    reversed_rois.write_text(json.dumps([{"pixels": pixels[::-1]}]))
    run = "%s/identify-reversed" % name
    _run(main, ["identify", "--cube", scene["hdr"], "--roi", str(reversed_rois),
                "--library", scene["library"], "--hierarchy", scene["hierarchy"],
                "--resample", "--out", str(work / run)])
    _digests(work / run, run, digests)
    table = _crime_table(work)
    for label, seed, extra in BMA_RUNS:
        run = "crime/bma-%s" % label
        out = work / run
        _run(main, ["--seed", str(seed), "bma-table", "--csv", table, "--response", "y",
                    "--out", str(out)] + extra)
        _digests(out, run, digests)
    out = work / "names" / "bma-occam"
    _run(main, ["bma-table", "--csv", _names_table(work), "--response", "y",
                "--out", str(out)])
    _digests(out, "names/bma-occam", digests)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="directory holding the specid package to run")
    parser.add_argument("--work", default=None,
                        help="directory for inputs and outputs (default: temporary)")
    parser.add_argument("--detect", nargs=4, action="append", default=[],
                        metavar=("HDR", "LIB", "TARGET", "THRESHOLD"),
                        help="one more detect input (repeatable)")
    parser.add_argument("--against", default=None, metavar="OTHER_SRC",
                        help="compare with the specid package in OTHER_SRC: print "
                             "each differing <run>/<file>, exit 1 on any difference")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(REPO / "tests")]
    with contextlib.ExitStack() as stack:
        work = Path(args.work or stack.enter_context(tempfile.TemporaryDirectory()))
        work.mkdir(parents=True, exist_ok=True)
        digests = collect(work, args.detect)
        # each key is its file's path under work
        loose = [key for key in sorted(digests)
                 if key.endswith(".json") and not strict_json(work / key)]
        if args.against is not None:
            other = _child_digests(args.against, work / "against", args.detect)
    for key in loose:
        print("%s: not strict JSON" % key, file=sys.stderr)
    if args.against is None:
        json.dump(digests, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
        return 1 if loose else 0
    keys = digests.keys() | other.keys()
    differ = sorted(k for k in keys if digests.get(k) != other.get(k))
    for key in differ:
        print(key)
    print("%d of %d sums differ" % (len(differ), len(keys)), file=sys.stderr)
    return 1 if differ or loose else 0


def _child_digests(src: str, work: Path, detect_inputs) -> dict:
    """This script's digests for the specid package in `src`, from a child process.

    The child runs this same file, so it builds the same inputs from this
    checkout's tests; one process cannot import two specid packages.
    """
    argv = [sys.executable, __file__, "--src", src, "--work", str(work)]
    for inputs in detect_inputs:
        argv += ["--detect", *inputs]
    child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if child.returncode != 0:
        raise SystemExit("output_digests.py --src %s exited with %d" % (src, child.returncode))
    return json.loads(child.stdout)


if __name__ == "__main__":
    sys.exit(main())
