"""Child process: one workload's path through specid, with optional spans.

    python perfbench/pipelines.py <pipeline> --inputs DIR --out RESULT.json
                                  [--trace] [--setup-only] [--cli ARGS...]

detect_scene, identify_exhaustive and bma_crime_mc3 run `specid.cli.main`
in this process on the arguments after --cli, so they make exactly the
calls the `specid` command makes. identify_pixels runs the README's library
use over a batch of pixels. detect_memory and regression_micro measure what
would disturb a timed path: tracemalloc peaks and a fit microbenchmark.

With --trace every call into a specid module (for the CLI paths, every
specid function cli.py imports) is wrapped in a span named
"<module>.<function>", kept in memory with start, end, parent and run id,
and written to RESULT.json with the pipeline's counts when it ends. The
spans live here, outside the program, so they time each module from its
public functions. Without --trace there are no spans, and only the
per-pixel timings that identify_pixels reports end to end are taken.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time

# work the traced detect_scene path does beyond what `specid detect` does
EXTRA_SPAN = "detection.detect_no_roi"
SPAN_COST_CALLS = 20_000   # wrapped no-op calls timed for the cost of one span


class Tracer:
    """Spans with name, start, end, parent and run id, kept in memory."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, calls: dict = None, name: str = None):
        """fn, each call in a span "<module>.<function>" (or `name`).

        The last call's (args, kwargs, result) is kept in `calls` under the
        span name, when given.
        """
        if not self.enabled:
            return fn
        name = name or "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name):
                result = fn(*args, **kwargs)
            if calls is not None:
                calls[name] = (args, kwargs, result)
            return result
        return traced


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None
    wrapped = Tracer("cost", True).wrap(noop)
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_CALLS):
        noop()
    t1 = time.perf_counter()
    for _ in range(SPAN_COST_CALLS):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / SPAN_COST_CALLS


def _import(tr: Tracer) -> None:
    """Pay the full import the CLI pays (specid.cli pulls in every module)."""
    with tr.span("cli.import"):
        import specid.cli  # noqa: F401


def _path(inputs: str, name: str) -> str:
    return os.path.join(inputs, name)


def traced_cli(tr: Tracer):
    """specid.cli with every specid function it imports wrapped in a span.

    Returns the module and a dict of the wrapped functions' last calls
    (args, kwargs, result), from which the counts are read. Workspace is
    wrapped too: cmd_bma_table builds its design through it.
    """
    import specid.cli as cli
    from specid.regression import Workspace

    calls = {}
    for attr, value in list(vars(cli).items()):
        if ((inspect.isfunction(value) or value is Workspace)
                and value.__module__.startswith("specid.")
                and value.__module__ != cli.__name__):
            setattr(cli, attr, tr.wrap(value, calls))
    return cli, calls


def _cli_main(tr: Tracer, cli, cli_args) -> None:
    with tr.span("cli.main"):
        status = cli.main(cli_args)
    if status != 0:
        raise RuntimeError("specid %s exited with %d" % (cli_args[0], status))


def _cli_out(cli_args) -> str:
    return cli_args[cli_args.index("--out") + 1]


def detect_scene(tr, inputs, manifest, cli_args, result) -> None:
    """`specid detect`, then one scoring pass whose threshold no pixel reaches."""
    from specid.detection import detect

    cli, calls = traced_cli(tr)
    _cli_main(tr, cli, cli_args)
    if not tr.enabled:
        return
    (cube, target, stats, _), kwargs, (dmap, rois) = calls["detection.detect"]
    # scoring alone: the same detect with no pixel above the threshold;
    # not part of the CLI path
    above_max = math.nextafter(float(dmap.scores.max()), 1.0)
    with tr.span(EXTRA_SPAN):
        _, none = detect(cube, target, stats, above_max, **kwargs)
    if none:
        raise RuntimeError("%d ROIs above the map's maximum" % len(none))
    result["counts"] = {"rois": len(rois), "pixels": cube.rows * cube.cols}


def detect_memory(tr, inputs, manifest, cli_args, result) -> None:
    """tracemalloc peaks of read_envi and background_stats, in a pass of their own."""
    import tracemalloc

    from specid.detection import background_stats
    from specid.io_formats import read_envi

    hdr = _path(inputs, manifest["cube"])
    tracemalloc.start()
    with tr.span("io_formats.read_envi"):
        cube = read_envi(hdr)
    read_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    with tr.span("detection.background_stats"):
        background_stats(cube, shrinkage=0.01)
    stats_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    data_bytes = os.path.getsize(hdr[:-4] + ".img")
    result["counts"] = {"read_envi_peak_bytes": read_peak,
                        "background_stats_peak_bytes": stats_peak,
                        "file_bytes": data_bytes}


def identify_pixels(tr, inputs, manifest, cli_args, result, setup_only=False) -> None:
    """The README's library use over a fixed batch of pixels, one at a time."""
    from specid import aggregate, core, detection, io_formats, search

    read_envi, read_library = map(tr.wrap, (io_formats.read_envi, io_formats.read_library))
    background_removal, make_workspace, run_search, normalize = map(tr.wrap, (
        detection.background_removal, search.make_workspace, search.run_search,
        aggregate.normalize))
    averaged_coefficients, build_tree, results_payload = map(tr.wrap, (
        aggregate.averaged_coefficients, aggregate.build_tree, io_formats.results_payload))

    config = search.SearchConfig(strategy="occam", max_size=manifest["max_size"])
    batch = []  # (kind, library, pixel spectrum, background removal inputs)
    for scene in manifest["scenes"]:
        cube = read_envi(_path(inputs, scene["cube"]))
        library = read_library(_path(inputs, scene["library"]),
                               _path(inputs, scene["hierarchy"]))
        implant = [tuple(p) for p in scene["implant"]]
        average = core.average_pixels(cube, implant)
        roi = detection.RegionOfInterest(pixels=tuple(implant), peak_score=0.0,
                                         mean_score=0.0, average=average)
        ring = [core.extract_pixel(cube, r, c)
                for r, c in detection.annulus_coordinates(roi, (cube.rows, cube.cols))]
        target = library.spectrum(manifest["target"])
        batch.append(("raw", library, average, None))
        batch.append(("removed", library, average, (target, ring)))
        batch.extend(("background", library, core.extract_pixel(cube, r, c), None)
                     for r, c in scene["background"])
    result["t_first"] = time.monotonic()
    if setup_only:
        return

    def pixel(library, spectrum, removal):
        if removal is not None:
            spectrum = background_removal(spectrum, *removal).spectrum
        workspace = make_workspace(spectrum, library)
        models = run_search(spectrum, workspace, config)
        posterior = normalize(models)
        report = averaged_coefficients(posterior)
        tree = build_tree(posterior, library.hierarchy)
        return models, posterior, results_payload(posterior, report, tree)
    pixel = tr.wrap(pixel, name="bench.pixel")

    digest = hashlib.sha256()
    pixels = []
    for kind, library, spectrum, removal in batch:
        t0 = time.perf_counter()
        models, posterior, payload = pixel(library, spectrum, removal)
        latency = time.perf_counter() - t0
        digest.update(json.dumps(payload, sort_keys=True).encode())
        probs = posterior.probabilities
        meta = models.strategy_metadata
        pixels.append({
            "kind": kind, "latency_s": latency,
            "ldpe": aggregate.class_probability(posterior, library.hierarchy,
                                                tuple(manifest["ldpe_path"])),
            "finite": bool(all(math.isfinite(p) for p in probs)),
            "prob_sum": float(probs.sum()), "fits": meta["fits"],
            "retained": len(models), "beam_capped": bool(meta["beam_capped"])})
    result["t_end"] = time.monotonic()
    result["pixels"] = pixels
    result["digest"] = digest.hexdigest()


def regression_micro(tr, inputs, manifest, cli_args, result) -> None:
    """fit_subset and extend on one fixed design: 4 spectra of the first library."""
    from specid.core import average_pixels
    from specid.io_formats import read_envi, read_library
    from specid.search import make_workspace

    scene = manifest["scenes"][0]
    cube = read_envi(_path(inputs, scene["cube"]))
    library = read_library(_path(inputs, scene["library"]))
    pixel = average_pixels(cube, [tuple(p) for p in scene["implant"]])
    workspace = make_workspace(pixel, library)
    parent = workspace.fit_subset((0, 4, 8))
    calls, rounds = 500, 7
    for _ in range(rounds):
        with tr.span("regression.fit_subset"):
            for _ in range(calls):
                workspace.fit_subset((0, 4, 8, 12))
        with tr.span("regression.extend"):
            for _ in range(calls):
                workspace.extend(parent, 12)
    result["counts"] = {"calls_per_round": calls, "rounds": rounds}


def identify_exhaustive(tr, inputs, manifest, cli_args, result) -> None:
    """`specid identify --strategy exhaustive` on the ROI file's top region."""
    cli, calls = traced_cli(tr)
    _cli_main(tr, cli, cli_args)
    if tr.enabled:
        models = calls["search.run_search"][2]
        result["counts"] = {
            "models": len(models), "fits": models.strategy_metadata["fits"],
            "results_json_bytes": os.path.getsize(
                os.path.join(_cli_out(cli_args), "results.json"))}


def bma_crime_mc3(tr, inputs, manifest, cli_args, result) -> None:
    """`specid bma-table --strategy mc3`."""
    cli, calls = traced_cli(tr)
    _cli_main(tr, cli, cli_args)
    if tr.enabled:
        models = calls["search.run_search"][2]
        result["counts"] = dict(models.strategy_metadata, models=len(models))


PIPELINES = {
    "detect_scene": detect_scene,
    "detect_memory": detect_memory,
    "identify_pixels": identify_pixels,
    "regression_micro": regression_micro,
    "identify_exhaustive": identify_exhaustive,
    "bma_crime_mc3": bma_crime_mc3,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pipeline", choices=sorted(PIPELINES))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cli", nargs=argparse.REMAINDER, default=[],
                        help="specid's arguments, for the CLI paths (last)")
    args = parser.parse_args()
    tracer = Tracer("%s:%d" % (args.pipeline, os.getpid()), args.trace)
    result = {}
    with open(os.path.join(args.inputs, "manifest.json")) as fh:
        manifest = json.load(fh)
    with tracer.span("bench.pipeline"):
        _import(tracer)
        kwargs = {"setup_only": True} if args.setup_only else {}
        PIPELINES[args.pipeline](tracer, args.inputs, manifest, args.cli, result,
                                 **kwargs)
    if args.trace:
        result["span_cost_s"] = span_cost()
    result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
