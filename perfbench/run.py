"""specid benchmark: four workloads from cube read to BMA posterior.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is detect_scene, identify_pixels, identify_exhaustive, bma_crime_mc3, or
all (each in turn). Inputs are built from the seed before any timing
(perfbench/inputs.py). The load is a closed loop: one child process at a
time, one request in flight, all on one core with one BLAS thread. Times are
scaled to nominal core speed by perfbench/probe.py, run in this process on
that core just before and just after each child; the raw medians are
printed too, on the line before the last.

--trace 0 times whole operations for S seconds (and at least two, so repeats
can be compared byte for byte) and reports the end-to-end metrics.
--trace 1 runs every workload's path once with a span around each call into
a specid module (perfbench/pipelines.py; the CLI workloads run specid.cli
in-process) and reports the per-layer metrics; the spans go to
.bench_work/traces/.

Every output is checked. The table before the last lines gives each metric
with its unit and sample count; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/NOTES.md for what each metric means and why each workload is here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".bench_work"
WORKLOADS = ("detect_scene", "identify_pixels", "identify_exhaustive", "bma_crime_mc3")
NEEDED = ("src/specid/__init__.py", "src/specid/cli.py", "tests/synth.py",
          "tests/conftest.py", "tests/data/uscrime.csv")
SETUP_PROBES = 5        # fresh `specid --version` runs per CLI run (setup_s)
PIXEL_SETUP_PROBES = 3  # extra identify_pixels children that stop after setup
MIN_OPS = 2             # operations per run, so outputs can be compared
RUN_LIMIT_S = 170.0     # a run ends within 180 s; children are killed past this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_ROUNDS = 15       # speed probe rounds before and after each child
# perfbench/probe.py's two job times (python, blas), near their medians on a
# core of the reference machine (2-vCPU Xeon, L3 105 MiB) at a quiet time.
# Times are reported at this speed.
PROBE_NOMINAL_S = (0.00070, 0.00025)
PYTHON_JOB, BLAS_JOB = 0, 1
# The probe jobs whose speed a workload's operations follow: detect_scene's
# time is numpy and BLAS (covariance, whitening, scoring), identify_*'s is
# Python (search loops, tree building, JSON), and bma_crime_mc3's is both
# (100,000 small fits). Setup children (imports) follow the Python job. Over
# 76 children on the reference machine the matching job correlated with log
# wall time by 0.73-0.87 (the other job by 0.20-0.53); bma_crime_mc3 followed
# both about equally (0.56, 0.60; 0.65 for their mean).
WORKLOAD_JOBS = {"detect_scene": (BLAS_JOB,), "bma_crime_mc3": (PYTHON_JOB, BLAS_JOB)}
# The share of the probe's slowdown an operation feels: the slope of log wall
# time on log job time was 0.68-1.13 over those children.
PROBE_SENSITIVITY = 0.75


class Spawner:
    """perfbench/spawner.py, which starts every child (its docstring says why)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the child launcher exited")
        return json.loads(answer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=RUN_LIMIT_S)
        finally:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


class Run:
    """One workload's run: its children, what it counts and what it measures."""

    def __init__(self, directory: Path, spawner: Spawner):
        from probe import Probe
        self.directory = directory
        self.spawner = spawner
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.probe = Probe()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}   # name -> (value, unit, samples), the JSON result
        self.raw = {}       # unscaled medians of the scaled times, and the factor
        self.notes = {}     # printed in the table only

    def op(self, problems, what: str, count: int = 1) -> bool:
        """Count `count` operations, all failed when there are problems."""
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend("%s: %s" % (what, p) for p in problems)
        return not problems

    def put(self, name, value, unit, samples=1):
        self.metrics[name] = (float(value), unit, samples)

    def put_raw(self, name, value, unit, samples=1):
        self.raw[name] = (float(value), unit, samples)

    def note(self, name, value, unit, samples=1):
        self.notes[name] = (float(value), unit, samples)

    def time_left(self, op_wall: float) -> bool:
        """Whether two more operations of this length still end in time."""
        return time.monotonic() + 2 * op_wall < self.deadline

    def spawn(self, argv, name: str, jobs=(PYTHON_JOB,)) -> dict:
        """Run one child to completion: wall time from spawn to exit, its own peak RSS.

        "speed" is the core's speed around the child relative to nominal:
        the geometric mean over the probe `jobs` of nominal time over the
        median in the rounds run just before and just after the child,
        raised to PROBE_SENSITIVITY.
        Multiplying a time the child measured by it gives the time at
        nominal speed. The probe runs while no child does, so the program's
        own use of the core and its caches does not enter the factor; a
        neighbour that slows the core for longer than the child runs slows
        both.
        """
        out = self.directory / name
        out.mkdir(parents=True, exist_ok=True)
        before = self.probe.rounds(PROBE_ROUNDS)
        child = self.spawner.run({
            "argv": [str(a) for a in argv], "cwd": str(REPO),
            "stdout": str(out / "stdout.txt"), "stderr": str(out / "stderr.txt"),
            "timeout": max(self.deadline - time.monotonic(), 1.0)})
        after = self.probe.rounds(PROBE_ROUNDS)
        medians = self.probe.medians(before + after)
        speed = statistics.geometric_mean(
            PROBE_NOMINAL_S[job] / medians[job] for job in jobs) ** PROBE_SENSITIVITY
        returncode = os.waitstatus_to_exitcode(child["status"])
        problems = []
        if returncode != 0:
            tail = (out / "stderr.txt").read_text(errors="replace").strip()[-300:]
            problems.append("exit %d: %s" % (returncode, tail))
        # ru_maxrss of this child alone (wait4, not RUSAGE_CHILDREN), KiB on Linux
        return {"out": out, "t0": child["t0"], "wall": child["wall"],
                "rss_mib": child["maxrss_kib"] / 1024.0, "speed": speed, "problems": problems}


# --------------------------------------------------------------------------
# children

def child_env() -> dict:
    """Children find specid in src/ (and inherit main's one BLAS thread)."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def specid_argv(*args) -> list:
    return [sys.executable, "-m", "specid", *args]


def pipeline_argv(name, inputs, out_json, trace=False, setup_only=False,
                  cli_args=()) -> list:
    argv = [sys.executable, str(HERE / "pipelines.py"), name,
            "--inputs", str(inputs), "--out", str(out_json)]
    return (argv + (["--trace"] if trace else []) + (["--setup-only"] if setup_only else [])
            + (["--cli", *cli_args] if cli_args else []))


# --------------------------------------------------------------------------
# the CLI workloads: command line, output files, output checks

def detect_args(inputs, m, out):
    return ("detect", "--cube", str(inputs / m["cube"]),
            "--target-lib", str(inputs / m["library"]),
            "--target", m["target"], "--threshold", repr(m["threshold"]),
            "--resample", "--out", str(out))


def check_detect(m, out: Path) -> list:
    rows, cols = m["shape"]
    problems = []
    if (out / "scores.bin").stat().st_size != rows * cols * 8:
        problems.append("scores.bin is not %dx%d float64" % (rows, cols))
    found = set()
    for roi in json.loads((out / "rois.json").read_text()):
        found.update((r, c) for r, c in roi["pixels"])
    missed = [(r0, c0) for r0, c0 in m["implants"]
              if not any((r0 + dr, c0 + dc) in found for dr in range(3) for dc in range(3))]
    if missed:
        problems.append("%d planted implants overlap no ROI, first at %r"
                        % (len(missed), missed[0]))
    return problems


def exhaustive_args(inputs, m, out):
    return ("identify", "--cube", str(inputs / m["cube"]),
            "--roi", str(inputs / m["roi"]),
            "--library", str(inputs / m["library"]),
            "--hierarchy", str(inputs / m["hierarchy"]),
            "--strategy", "exhaustive", "--max-size", str(m["max_size"]),
            "--out", str(out))


def _posterior_problems(results: dict, models=None) -> list:
    probs = [model["probability"] for model in results["models"]]
    problems = []
    if models is not None and len(probs) != models:
        problems.append("%d models, expected %d" % (len(probs), models))
    if not all(math.isfinite(p) for p in probs) or abs(math.fsum(probs) - 1.0) > 1e-9:
        problems.append("model probabilities sum to %r" % math.fsum(probs))
    return problems


def check_exhaustive(m, out: Path) -> list:
    results = json.loads((out / "results.json").read_text())
    return _posterior_problems(results, m["models"])


def bma_args(inputs, m, out):
    return ("--seed", str(m["mc3_seed"]), "bma-table",
            "--csv", str(inputs / m["csv"]), "--response", m["response"],
            "--strategy", "mc3", "--iterations", str(m["iterations"]),
            "--out", str(out))


def check_bma(m, out: Path) -> list:
    problems = _posterior_problems(json.loads((out / "results.json").read_text()))
    lines = (out / "inclusion.csv").read_text().splitlines()
    if len(lines) != 1 + 15 + 1:   # header, 15 predictors, intercept
        problems.append("inclusion.csv has %d lines" % len(lines))
    return problems


class Command(NamedTuple):
    """How a CLI workload runs one operation and how its outputs are judged."""

    args: Callable           # (inputs, manifest, out) -> specid's arguments
    outputs: tuple           # files compared byte for byte across repeats
    check: Callable          # (manifest, out) -> problems
    pixels: Callable         # manifest -> spectra handled per operation


CLI = {
    "detect_scene": Command(detect_args, ("scores.bin", "rois.json"), check_detect,
                            lambda m: m["shape"][0] * m["shape"][1]),
    "identify_exhaustive": Command(exhaustive_args, ("results.json", "tree.dot"),
                                   check_exhaustive, lambda m: 1),
    "bma_crime_mc3": Command(bma_args, ("results.json", "inclusion.csv"), check_bma,
                             lambda m: 1),
}


def batch_size(m) -> int:
    """identify_pixels: a raw and a background-removed implant, plus backgrounds."""
    return sum(2 + len(scene["background"]) for scene in m["scenes"])


def check_pixels(m, result: dict) -> list:
    problems = []
    pixels = result["pixels"]
    expected = batch_size(m)
    if len(pixels) != expected:
        problems.append("%d pixels identified, expected %d" % (len(pixels), expected))
    # criterion 6: the raw implant average puts >= 0.9 on the LDPE class
    low = [p["ldpe"] for p in pixels if p["kind"] == "raw" and not p["ldpe"] >= 0.9]
    if low:
        problems.append("%d raw implant averages with LDPE class probability "
                        "below 0.9 (lowest %r)" % (len(low), min(low)))
    bad = [p for p in pixels if not p["finite"] or abs(p["prob_sum"] - 1.0) > 1e-9]
    if bad:
        problems.append("%d posteriors not finite or not summing to 1" % len(bad))
    return problems


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((REPO / "src" / "specid").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def file_digest(out: Path, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + (out / name).read_bytes())
    return digest.hexdigest()


class Repeats:
    """Outputs of one seed must repeat byte for byte, within and across runs."""

    def __init__(self, inputs: Path):
        # keyed by the program's source, so a changed program starts afresh
        self.path = inputs / ("outputs-%s.json" % source_digest())
        self.first = json.loads(self.path.read_text()) if self.path.is_file() else None

    def check(self, digest: str) -> list:
        if self.first is None:
            self.first = digest
            self.path.write_text(json.dumps(digest))
            return []
        if digest == self.first:
            return []
        return ["outputs differ from an earlier repeat of this seed"]


# --------------------------------------------------------------------------
# end-to-end runs

def quantile(values, q: float) -> float:
    """Inverse-CDF quantile: the smallest sample with at least q of all at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def operation(run: Run, name: str, inputs: Path, manifest: dict, repeats: Repeats,
              label: str, trace: bool = False) -> dict:
    """Spawn one operation of a workload and check its outputs.

    CLI workloads run `specid` itself unless traced; identify_pixels, and
    every traced path, run perfbench/pipelines.py, whose result is returned
    under "result". Problems found are added to the child's "problems".
    """
    out = run.directory / label
    cli_args = CLI[name].args(inputs, manifest, out) if name in CLI else ()
    via_pipeline = trace or name not in CLI
    argv = (pipeline_argv(name, inputs, out / "result.json", trace=trace, cli_args=cli_args)
            if via_pipeline else specid_argv(*cli_args))
    child = run.spawn(argv, label, WORKLOAD_JOBS.get(name, (PYTHON_JOB,)))
    if child["problems"]:
        return child
    try:
        if via_pipeline:
            child["result"] = json.loads((out / "result.json").read_text())
        if name == "identify_pixels":
            problems = check_pixels(manifest, child["result"])
            digest = child["result"]["digest"]
        else:
            problems = CLI[name].check(manifest, out)
            digest = file_digest(out, CLI[name].outputs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        child["problems"] = ["output check failed: %r" % exc]
        return child
    child["problems"] = problems + repeats.check(digest)
    return child


def median_of(pairs, k: int) -> float:
    return statistics.median(pair[k] for pair in pairs) if pairs else math.nan


def put_common(run: Run, walls, setup, rss, pixels_per_op: int, busy) -> None:
    """The end-to-end metrics every workload reports, each a median over the run.

    walls, setup and busy hold (time at nominal core speed, raw time) pairs.
    Other tenants of a shared machine slow its cores by up to 1.7x for a
    minute at a time, which no number of repeats averages away (see
    NOTES.md), so the metrics are the scaled times; the raw medians go to
    run.raw. pixels_per_s is spectra handled per second of busy time: the
    whole process for a CLI command, the pixel loop for identify_pixels.
    """
    for k, put in ((0, run.put), (1, run.put_raw)):
        put("wall_s", median_of(walls, k), "s", len(walls))
        put("setup_s", median_of(setup, k), "s", len(setup))
        put("pixels_per_s", statistics.median(pixels_per_op / b[k] for b in busy), "1/s",
            len(busy))
    run.put("peak_rss_mb", statistics.median(rss), "MiB", len(rss))
    run.put_raw("core_speed", statistics.median(w / raw for w, raw in walls), "x", len(walls))


def scaled(child: dict, seconds: float) -> tuple:
    """(seconds at nominal core speed, seconds) for a time the child measured."""
    return seconds * child["speed"], seconds


def cli_run(run: Run, name: str, seed: int, seconds: float) -> None:
    from inputs import inputs_for
    inputs, manifest = inputs_for(name, seed)
    setup = []
    for i in range(SETUP_PROBES):
        child = run.spawn(specid_argv("--version"), "setup%d" % i)
        if run.op(child["problems"], "specid --version"):
            setup.append(scaled(child, child["wall"]))
    repeats = Repeats(inputs)
    walls, rss, elapsed = [], [], 0.0
    while len(walls) < MIN_OPS or (elapsed < seconds and run.time_left(child["wall"])):
        child = operation(run, name, inputs, manifest, repeats, "op%d" % len(walls))
        run.op(child["problems"], "%s operation %d" % (name, len(walls) + 1))
        walls.append(scaled(child, child["wall"]))
        rss.append(child["rss_mib"])
        elapsed += child["wall"]
        shutil.rmtree(child["out"])
    put_common(run, walls, setup, rss, CLI[name].pixels(manifest), walls)


def pixels_run(run: Run, seed: int, seconds: float) -> None:
    from inputs import inputs_for
    inputs, manifest = inputs_for("identify_pixels", seed)
    setup = []
    for i in range(PIXEL_SETUP_PROBES):
        label = "setup%d" % i
        child = run.spawn(pipeline_argv("identify_pixels", inputs,
                                        run.directory / label / "result.json",
                                        setup_only=True), label)
        if run.op(child["problems"], "identify_pixels setup"):
            result = json.loads((child["out"] / "result.json").read_text())
            setup.append(scaled(child, result["t_first"] - child["t0"]))
    repeats = Repeats(inputs)
    walls, rss, latencies, busy, elapsed = [], [], [], [], 0.0
    while len(walls) < MIN_OPS or (elapsed < seconds and run.time_left(child["wall"])):
        child = operation(run, "identify_pixels", inputs, manifest, repeats,
                          "op%d" % len(walls))
        # each pixel of the batch is one operation
        run.op(child["problems"], "identify_pixels child %d" % (len(walls) + 1),
               batch_size(manifest))
        if "result" not in child:
            break
        result = child["result"]
        walls.append(scaled(child, child["wall"]))
        rss.append(child["rss_mib"])
        elapsed += child["wall"]
        setup.append(scaled(child, result["t_first"] - child["t0"]))
        latencies += [p["latency_s"] * child["speed"] for p in result["pixels"]]
        busy.append(scaled(child, result["t_end"] - result["t_first"]))
    if not walls:
        return
    put_common(run, walls, setup, rss, batch_size(manifest), busy)
    # per-pixel latency; the p95 is reported only with >= 10 pixels beyond it
    run.note("pixel_p50_ms", 1000.0 * quantile(latencies, 0.50), "ms", len(latencies))
    if len(latencies) - math.ceil(0.95 * len(latencies)) >= 10:
        run.note("pixel_p95_ms", 1000.0 * quantile(latencies, 0.95), "ms", len(latencies))


def untraced_run(run: Run, name: str, seed: int, seconds: float) -> None:
    if name == "identify_pixels":
        pixels_run(run, seed, seconds)
    else:
        cli_run(run, name, seed, seconds)


# --------------------------------------------------------------------------
# the traced run

# pipeline -> the workload whose inputs it reads
TRACED = (("detect_scene", "detect_scene"), ("detect_memory", "detect_scene"),
          ("identify_pixels", "identify_pixels"), ("regression_micro", "identify_pixels"),
          ("identify_exhaustive", "identify_exhaustive"),
          ("bma_crime_mc3", "bma_crime_mc3"))
LAYERS = ("bench", "cli", "core", "io_formats", "detection", "regression",
          "search", "aggregate")


def self_times(spans) -> None:
    """Annotate each span with its self time: duration minus its children's."""
    for span in spans:
        span["self"] = span["end"] - span["start"]
    for span in spans:
        if span["parent"] is not None:
            spans[span["parent"]]["self"] -= span["end"] - span["start"]


def traced_run(run: Run, names, seed: int) -> None:
    """Every traced path once; per-layer metrics, and the tracing cost on `names`."""
    from inputs import inputs_for
    res, walls, all_spans = {}, {}, []
    for pipeline, workload in TRACED:
        inputs, manifest = inputs_for(workload, seed)
        if pipeline in WORKLOADS:
            child = operation(run, pipeline, inputs, manifest, Repeats(inputs),
                              pipeline, trace=True)
        else:
            child = run.spawn(pipeline_argv(pipeline, inputs,
                                            run.directory / pipeline / "result.json",
                                            trace=True), pipeline)
            if not child["problems"]:
                child["result"] = json.loads((child["out"] / "result.json").read_text())
        if run.op(child["problems"], "traced " + pipeline):
            res[pipeline], walls[pipeline] = child["result"], child["wall"]
            self_times(child["result"]["spans"])
            all_spans += child["result"]["spans"]
    if run.failed:
        return

    def spans(pipeline, span_name):
        return [s["end"] - s["start"] for s in res[pipeline]["spans"]
                if s["name"] == span_name]

    def one(pipeline, span_name):
        return spans(pipeline, span_name)[0]

    # what the spans add to the named workloads' paths: the cost of one span,
    # measured in each traced child, times the spans it recorded
    span_counts = [len(res[n]["spans"]) for n in names]
    run.put("trace_overhead_s", sum(res[n]["span_cost_s"] * len(res[n]["spans"])
                                    for n in names), "s", sum(span_counts))
    run.note("traced_wall_s", sum(walls[n] for n in names), "s", len(names))
    imports = [d for p in res for d in spans(p, "cli.import")]
    run.put("cli.import_s", statistics.median(imports), "s", len(imports))

    from pipelines import EXTRA_SPAN
    d, counts = "detect_scene", res["detect_scene"]["counts"]
    score = one(d, EXTRA_SPAN)
    for call in ("read_envi", "write_scores", "write_rois_json"):
        run.put(call + "_s", one(d, "io_formats." + call), "s")
    run.put("background_stats_s", one(d, "detection.background_stats"), "s")
    run.put("score_s", score, "s")
    run.put("score_mpix_per_s", counts["pixels"] / 1e6 / score, "Mpix/s")
    run.put("roi_extract_s", one(d, "detection.detect") - score, "s")
    run.put("rois", counts["rois"], "count")
    run.put("roi_extract_ms_per_roi",
            1000.0 * (one(d, "detection.detect") - score) / max(counts["rois"], 1), "ms")
    mem = res["detect_memory"]["counts"]
    run.put("read_envi_peak_mb", mem["read_envi_peak_bytes"] / 2**20, "MiB")
    run.put("read_envi_peak_x_file", mem["read_envi_peak_bytes"] / mem["file_bytes"], "x")
    run.put("background_stats_peak_mb", mem["background_stats_peak_bytes"] / 2**20, "MiB")

    p, pixels = "identify_pixels", res["identify_pixels"]["pixels"]
    occam = spans(p, "search.run_search")
    fits = sum(px["fits"] for px in pixels)
    retained = sum(px["retained"] for px in pixels)
    for metric, span_name in (("background_removal_ms", "detection.background_removal"),
                              ("workspace_ms", "search.make_workspace"),
                              ("occam_ms", "search.run_search")):
        values = spans(p, span_name)
        run.put(metric, 1000.0 * statistics.median(values), "ms", len(values))
    run.put("occam_fits", fits / len(pixels), "count", len(pixels))
    run.put("occam_us_per_fit", 1e6 * sum(occam) / fits, "us", fits)
    run.put("occam_retained", retained / len(pixels), "count", len(pixels))
    run.put("occam_retained_ratio", retained / fits, "ratio", fits)
    run.put("beam_capped_pixels", sum(px["beam_capped"] for px in pixels), "count",
            len(pixels))
    aggregate = sum(sum(spans(p, "aggregate." + call))
                    for call in ("normalize", "averaged_coefficients", "build_tree"))
    run.put("aggregate_share", aggregate / sum(spans(p, "bench.pixel")), "ratio",
            len(pixels))
    calls = res["regression_micro"]["counts"]["calls_per_round"]
    for call in ("fit_subset", "extend"):
        rounds = spans("regression_micro", "regression." + call)
        run.put(call + "_us", 1e6 * statistics.median(rounds) / calls, "us",
                len(rounds) * calls)
    libraries = spans(p, "io_formats.read_library") + spans(
        "identify_exhaustive", "io_formats.read_library")
    run.put("read_library_s", statistics.mean(libraries), "s", len(libraries))

    e, counts = "identify_exhaustive", res["identify_exhaustive"]["counts"]
    exhaustive = one(e, "search.run_search")
    run.put("exhaustive_s", exhaustive, "s")
    run.put("exhaustive_fits", counts["fits"], "count")
    run.put("exhaustive_us_per_fit", 1e6 * exhaustive / counts["fits"], "us")
    for call in ("normalize", "averaged_coefficients", "build_tree"):
        run.put(call + "_s", one(e, "aggregate." + call), "s")
    run.put("build_tree_us_per_model",
            1e6 * one(e, "aggregate.build_tree") / counts["models"], "us")
    run.put("write_results_json_s", one(e, "io_formats.write_results_json"), "s")
    run.put("results_json_mb", counts["results_json_bytes"] / 1e6, "MB")
    run.put("write_tree_dot_s", one(e, "io_formats.write_tree_dot"), "s")

    b, counts = "bma_crime_mc3", res["bma_crime_mc3"]["counts"]
    mc3 = one(b, "search.run_search")
    run.put("read_table_s", one(b, "io_formats.read_table"), "s")
    run.put("write_inclusion_csv_s", one(b, "io_formats.write_inclusion_csv"), "s")
    run.put("mc3_s", mc3, "s")
    run.put("mc3_us_per_iter", 1e6 * mc3 / counts["iterations"], "us")
    run.put("mc3_accept_ratio", counts["accepted"] / counts["iterations"], "ratio")
    run.put("mc3_unique_ratio", counts["unique_fits"] / counts["iterations"], "ratio")

    # self time per layer over the four workload paths (the tracemalloc pass
    # and the microbenchmark are left out: they are not a workload's time)
    workload_spans = [s for s in all_spans if s["run"].split(":")[0] in WORKLOADS]
    for layer in LAYERS:
        own = [s["self"] for s in workload_spans if s["name"].split(".")[0] == layer]
        run.put("self.%s_s" % layer, math.fsum(own), "s", len(own))
    trace_path = WORK / "traces" / ("%s-%d.json" % ("+".join(names), seed))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(all_spans) + "\n")
    print("spans (%d): %s" % (len(all_spans), trace_path.relative_to(REPO)))


# --------------------------------------------------------------------------
# reporting

def fastest_core() -> int:
    """The core on which the probe's Python job runs fastest right now.

    Other tenants slow one core at a time, for a minute or more; running on
    the faster core keeps the speed correction small.
    """
    from probe import python_job
    timings = {}
    for core in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {core})
        timings[core] = statistics.median(python_job() for _ in range(100))
    return min(timings, key=timings.get)


def machine() -> dict:
    import numpy as np

    def first_line(path, prefix):
        try:
            with open(path) as fh:
                return next((ln.split(":", 1)[1].strip() for ln in fh
                             if ln.startswith(prefix)), "?")
        except OSError:
            return "?"

    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "?"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": first_line("/proc/cpuinfo", "model name"),
            "l3": l3, "ram": first_line("/proc/meminfo", "MemTotal"),
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": int(child_env()[BLAS_VARS[0]]),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy")}


def report(name: str, run: Run) -> None:
    print("== %s: %d attempted, %d failed, fail_ratio %.4f"
          % (name, run.attempted, run.failed, run.failed / max(run.attempted, 1)))
    for problem in run.problems[:20]:
        print("   FAIL " + problem)
    rows = list(run.metrics.items()) + [("raw " + k, v) for k, v in run.raw.items()]
    for metric, (value, unit, samples) in rows + list(run.notes.items()):
        print("   %-26s %16.6f %-7s n=%d" % (metric, value, unit, samples))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in NEEDED if not (REPO / p).is_file()]
    if missing:
        print("error: run from a specid checkout; missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    # one BLAS thread here and in the children, set before numpy is imported:
    # a second thread would run on the other core, and the probe's matrix
    # product would wait for whatever runs there
    os.environ.update({var: "1" for var in BLAS_VARS})
    # one core for the benchmark, its children and the speed probe, so the
    # probe sees what slows the operations
    core = fastest_core()
    os.sched_setaffinity(0, {core})
    print("machine: " + json.dumps(dict(machine(), core=core)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # one run for the traced paths, which cover every workload; one per workload else
    groups = [names] if args.trace else [(name,) for name in names]
    with Spawner(child_env()) as spawner:
        total = Run(WORK, spawner)
        for group in groups:
            label = "+".join(group)
            run = Run(WORK / "runs" / ("%s-%d-%d" % (label, args.seed, os.getpid())), spawner)
            shutil.rmtree(run.directory, ignore_errors=True)
            try:
                if args.trace:
                    traced_run(run, group, args.seed)
                else:
                    untraced_run(run, group[0], args.seed, args.seconds)
            finally:
                shutil.rmtree(run.directory, ignore_errors=True)
            report(label, run)
            total.attempted += run.attempted
            total.failed += run.failed
            prefix = "" if len(groups) == 1 else label + "."
            for into, measured in ((total.metrics, run.metrics), (total.raw, run.raw)):
                into.update({prefix + k: v for k, v in measured.items()})
    if total.raw:
        print("raw: " + json.dumps({k: {"value": v, "unit": u, "samples": n}
                                     for k, (v, u, n) in total.raw.items()}))
    print(json.dumps({
        "correct": total.failed == 0, "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in total.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
