"""Batch command line: detect targets, identify pixels, run tabular averaging.

Subcommands write fixed filenames under the output directory:
  detect    -> scores.bin, scores.json, rois.json
  identify  -> results.json, tree.dot
  bma-table -> inclusion.csv, results.json
Exit codes: 0 success, 2 input or validation error, 3 numerical or search
error. Outputs are deterministic for a given seed regardless of --threads, at
a fixed BLAS thread count: the bits of scores.bin depend on the number of
OpenBLAS threads.
A search whose beam cap dropped models prints a "warning:" line on stderr.
Cubes are read from their files a few rows at a time, never held whole. A
cube value that is not finite exits 2: detect meets every pixel in its first
pass, before it writes any file; identify --cube reads only the rows that
hold the ROI's pixels and its background pixels, so a non-finite value in
any other row does not stop it. identify and bma-table check their search
options before they read any input. The output directory is made just
before the first write, so a run that fails before it leaves nothing behind.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .aggregate import averaged_coefficients, build_tree, normalize
from .core import average_pixels, extract_pixel, resample, resample_library
from .detection import (RegionOfInterest, annulus_coordinates, background_removal,
                        background_stats, check_detect_options, detect)
from .errors import InputError, NumericalError, SpecidError
from .io_formats import (read_envi, read_library, read_rois_json, read_spectrum_csv,
                         read_table, write_inclusion_csv, write_results_json,
                         write_rois_json, write_scores, write_tree_dot)
from .regression import Workspace
from .search import SearchConfig, run_search


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specid",
        description="Material identification for hyperspectral pixels by "
                    "Bayesian model averaging over a spectral library.")
    parser.add_argument("--version", action="version", version="specid " + __version__)
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for stochastic strategies (default 0)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for pixel scoring, at least 1; outputs "
                             "do not depend on it (default 1)")
    parser.add_argument("--output-dir", default=".",
                        help="directory for output files (default .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="score a cube against a target spectrum")
    p.add_argument("--cube", required=True, help="ENVI header path")
    p.add_argument("--data", default=None, help="ENVI data path (default: inferred)")
    p.add_argument("--target-lib", required=True, help="library CSV holding the target")
    p.add_argument("--target", required=True, help="target spectrum name")
    p.add_argument("--threshold", type=float, default=0.95,
                   help="ACE score threshold in (-1, 1) (default 0.95)")
    p.add_argument("--shrinkage", type=float, default=0.01,
                   help="covariance shrinkage toward its diagonal (default 0.01)")
    p.add_argument("--resample", action="store_true",
                   help="resample the target onto the cube grid when they differ")
    p.add_argument("--out", default=None, help="output directory (overrides global)")
    p.set_defaults(handler=cmd_detect)

    p = sub.add_parser("identify", help="identify the materials in one spectrum")
    p.add_argument("--spectrum", default=None, help="single-spectrum CSV to identify")
    p.add_argument("--cube", default=None, help="ENVI header path (with --roi)")
    p.add_argument("--data", default=None, help="ENVI data path (default: inferred)")
    p.add_argument("--roi", default=None, help="rois.json from a detect run")
    p.add_argument("--roi-index", type=int, default=0,
                   help="which ROI to identify, 0 = top ranked (default 0)")
    p.add_argument("--library", required=True, help="library CSV")
    p.add_argument("--hierarchy", default=None, help="hierarchy JSON (name -> class path)")
    p.add_argument("--background-removal", action="store_true",
                   help="remove fitted background contributions before the search")
    p.add_argument("--backgrounds", default="auto",
                   help="'auto' (annulus around the ROI) or explicit 'r,c;r,c;...' "
                        "pixel coordinates (default auto)")
    p.add_argument("--target", default=None,
                   help="library spectrum that triggered the detection "
                        "(required with --background-removal)")
    p.add_argument("--strategy", choices=("occam", "mc3", "exhaustive"),
                   default="occam")
    p.add_argument("--max-size", type=int, default=4,
                   help="maximum spectra per model (default 4)")
    p.add_argument("--window-c", type=float, default=20.0,
                   help="Occam window ratio C (default 20)")
    p.add_argument("--iterations", type=int, default=20000,
                   help="MC3 iterations (default 20000)")
    p.add_argument("--occam-strict", action="store_true",
                   help="also drop models beaten by one of their own sub-models")
    p.add_argument("--conditional-tree", action="store_true",
                   help="render tree labels as branch-conditional probabilities")
    p.add_argument("--resample", action="store_true",
                   help="resample the library onto the pixel grid when they differ")
    p.add_argument("--out", default=None, help="output directory (overrides global)")
    p.set_defaults(handler=cmd_identify)

    p = sub.add_parser("bma-table", help="model averaging over a numeric CSV")
    p.add_argument("--csv", required=True, help="table CSV, first row headers")
    p.add_argument("--response", required=True, help="response column name")
    p.add_argument("--strategy", choices=("occam", "mc3"), default="occam")
    p.add_argument("--max-size", type=int, default=0,
                   help="maximum predictors per model; 0 = no limit (default 0)")
    p.add_argument("--window-c", type=float, default=20.0,
                   help="Occam window ratio C (default 20)")
    p.add_argument("--iterations", type=int, default=20000,
                   help="MC3 iterations (default 20000)")
    p.add_argument("--occam-strict", action="store_true",
                   help="also drop models beaten by one of their own sub-models")
    p.add_argument("--out", default=None, help="output directory (overrides global)")
    p.set_defaults(handler=cmd_bma_table)
    return parser


def _outdir(args) -> str:
    """The output directory, made here: called just before a subcommand's first write."""
    out = args.out if getattr(args, "out", None) else args.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_detect(args) -> None:
    check_detect_options(args.threshold, args.threads)  # before any pass over the cube
    cube = read_envi(args.cube, args.data)
    library = read_library(args.target_lib)
    target = library.spectrum(args.target)
    if target.grid != cube.grid:
        if not args.resample:
            raise InputError("target grid differs from the cube grid; "
                             "pass --resample to interpolate")
        target = resample(target, cube.grid)
        if target.valid is not None and not target.valid.all():
            raise InputError("target %r does not cover the cube's wavelength range"
                             % target.name)
    stats = background_stats(cube, shrinkage=args.shrinkage)
    dmap, rois = detect(cube, target, stats, args.threshold, threads=args.threads)
    out = _outdir(args)
    write_scores(dmap.scores, os.path.join(out, "scores.bin"),
                 os.path.join(out, "scores.json"),
                 extra={"target": args.target, "threshold": args.threshold,
                        "shrinkage": args.shrinkage})
    write_rois_json(rois, os.path.join(out, "rois.json"))
    print("detect: %d ROI(s); wrote scores.bin, scores.json, rois.json to %s"
          % (len(rois), out))


def _identify_pixel(args):
    """The spectrum to identify, plus the cube and ROI when present."""
    if args.spectrum and (args.cube or args.roi):
        raise InputError("give either --spectrum or --cube with --roi, not both")
    if args.spectrum:
        return read_spectrum_csv(args.spectrum), None, None
    if not (args.cube and args.roi):
        raise InputError("identify needs --spectrum, or --cube together with --roi")
    cube = read_envi(args.cube, args.data)
    rois = read_rois_json(args.roi)
    if not rois:
        raise InputError("ROI file %r holds no regions" % args.roi)
    if not 0 <= args.roi_index < len(rois):
        raise InputError("--roi-index %d out of range (file has %d ROIs)"
                         % (args.roi_index, len(rois)))
    pixels = tuple((int(r), int(c)) for r, c in rois[args.roi_index]["pixels"])
    roi = RegionOfInterest(pixels=pixels, peak_score=0.0, mean_score=0.0,
                           average=average_pixels(cube, pixels))
    return roi.average, cube, roi


def cmd_identify(args) -> None:
    config = _config(args, args.max_size)  # before any input is read
    pixel, cube, roi = _identify_pixel(args)
    library = read_library(args.library, args.hierarchy)
    if library.grid != pixel.grid:
        if not args.resample:
            raise InputError("library grid differs from the pixel grid; "
                             "pass --resample to interpolate")
        library = resample_library(library, pixel.grid)
    if args.background_removal:
        if cube is None:
            raise InputError("--background-removal needs --cube and --roi")
        if not args.target:
            raise InputError("--background-removal needs --target (the library "
                             "spectrum that triggered the detection)")
        target = library.spectrum(args.target)
        if args.backgrounds == "auto":
            coords = annulus_coordinates(roi, (cube.rows, cube.cols))
        else:
            coords = _parse_coords(args.backgrounds)
        backgrounds = [extract_pixel(cube, r, c) for r, c in coords]
        removal = background_removal(pixel, target, backgrounds)
        pixel = removal.spectrum
        print("identify: background removed (target abundance %.4f over %d spectra)"
              % (removal.target_coefficient, len(backgrounds)))
    models, _, tree = _aggregate(args, config, pixel, library, library.hierarchy)
    out = _outdir(args)
    write_tree_dot(tree, os.path.join(out, "tree.dot"),
                   conditional=args.conditional_tree)
    best = models.index[0, :models.sizes[0]].tolist()
    print("identify: %d models retained (best: %s); wrote results.json, tree.dot to %s"
          % (len(models), "+".join(models.candidates[j] for j in best), out))


def _config(args, max_size: int) -> SearchConfig:
    return SearchConfig(
        max_size=max_size, window_ratio=args.window_c, strategy=args.strategy,
        mc3_iterations=args.iterations, seed=args.seed,
        submodel_exclusion=args.occam_strict)


def _aggregate(args, config, y, library, hierarchy=None):
    """Search (a stderr line if the beam cap cut it), average, write results.json."""
    models = run_search(y, library, config)
    if models.strategy_metadata.get("beam_capped"):
        print("warning: the Occam search was cut to a beam of %d per level; the "
              "posterior is approximate" % config.beam_cap, file=sys.stderr)
    posterior = normalize(models)
    report = averaged_coefficients(posterior)
    tree = None if hierarchy is None else build_tree(posterior, hierarchy)
    write_results_json(posterior, report, tree, os.path.join(_outdir(args), "results.json"))
    return models, report, tree


def _parse_coords(text: str):
    coords = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise InputError("bad coordinate %r; expected 'row,col'" % part)
        try:
            coords.append((int(pieces[0]), int(pieces[1])))
        except ValueError:
            raise InputError("bad coordinate %r; expected integers" % part) from None
    if not coords:
        raise InputError("no background coordinates given")
    return coords


def cmd_bma_table(args) -> None:
    # before the table is read; a limit above the predictor count means all of them
    config = _config(args, args.max_size or sys.maxsize)
    y, X, names = read_table(args.csv, args.response)
    workspace = Workspace(y, X, names, with_intercept=True)
    models, report, _ = _aggregate(args, config, None, workspace)
    out = _outdir(args)
    write_inclusion_csv(report, os.path.join(out, "inclusion.csv"))
    print("bma-table: %d models retained over %d predictors; wrote inclusion.csv, "
          "results.json to %s" % (len(models), len(names), out))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except NumericalError as exc:
        _report(exc)
        return 3
    except SpecidError as exc:
        _report(exc)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


def _report(exc: Exception) -> None:
    print("error: %s.%s: %s" % (type(exc).__module__, type(exc).__name__, exc),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
