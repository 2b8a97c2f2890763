"""Acceptance gates: one test per numbered criterion, one summary line each.

Every test computes its gate quantities first, appends a single
"[criterion N] PASS/FAIL" line to the terminal summary (see conftest), and
only then asserts, so the summary block always reports all eight outcomes
even when one gate is red.
"""
import csv
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import spearmanr

import conftest
from specid.aggregate import (ModelPosterior, build_tree, class_probability,
                              inclusion_probability, normalize)
from specid.core import ClassHierarchy, Spectrum, average_pixels, extract_pixel
from specid.detection import (annulus_coordinates, background_removal,
                              background_stats, detect)
from specid.regression import Workspace, check_residual, fit
from specid.search import (SearchConfig, exhaustive_search, make_workspace, mc3_search,
                           occam_search, run_search)
from synth import make_scene, make_table_instance


def keys(rows) -> list:
    """Each ModelRow's regressor names, sorted, in row order."""
    return [tuple(sorted(row.regressors)) for row in rows]


def record(num: int, passed: bool, detail: str) -> None:
    line = "[criterion %d] %s — %s" % (num, "PASS" if passed else "FAIL", detail)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


# --------------------------------------------------------------------------
# criteria 1-2: the 47-state 1960 crime benchmark

CRIME_COLUMNS = ("M", "So", "Ed", "Po1", "Po2", "LF", "M.F", "Pop", "NW",
                 "U1", "U2", "GDP", "Ineq", "Prob", "Time")
# reference occam-window inclusion percentages for this benchmark, in
# CRIME_COLUMNS order, used only for the rank-correlation gate
CRIME_REFERENCE = (73, 2, 99, 64, 36, 0, 0, 12, 53, 0, 43, 1, 100, 83, 0)


@pytest.fixture(scope="module")
def crime_run(tmp_path_factory):
    """One batch CLI run over the log-transformed crime table."""
    root = tmp_path_factory.mktemp("crime")
    src = Path(__file__).parent / "data" / "uscrime.csv"
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    table = {name: np.array([float(r[i]) for r in body])
             for i, name in enumerate(header)}
    # the binary southern-state indicator stays raw; every other column,
    # response included, is natural-logged (the customary form of this data)
    logged = {name: (vals if name == "So" else np.log(vals))
              for name, vals in table.items()}
    csv_path = root / "uscrime_log.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(body)):
            writer.writerow([repr(float(logged[name][i])) for name in header])
    out = root / "out"
    cmd = [sys.executable, "-m", "specid", "bma-table",
           "--csv", str(csv_path), "--response", "y", "--strategy", "occam",
           "--window-c", "20", "--max-size", "0", "--occam-strict",
           "--out", str(out)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    runtime = time.time() - t0
    assert proc.returncode == 0, proc.stderr
    results = json.loads((out / "results.json").read_text())
    return SimpleNamespace(results=results, runtime=runtime, table=logged)


def rebuild_posterior(results: dict) -> ModelPosterior:
    """Reconstruct a posterior object from a results.json payload."""
    model_set = conftest.make_model_set(
        [(m["regressors"], m["coefficients"], None, m["bic"]) for m in results["models"]],
        tuple(results["inclusion"]), "occam")
    return ModelPosterior(model_set,
                          np.array([m["probability"] for m in results["models"]]))


def test_criterion_1_crime_benchmark(crime_run):
    inclusion = crime_run.results["inclusion"]
    pip = {name: 100.0 * inclusion.get(name, 0.0) for name in CRIME_COLUMNS}
    rho = float(spearmanr([pip[n] for n in CRIME_COLUMNS],
                          CRIME_REFERENCE).statistic)
    gates = [
        ("Ineq>=95", pip["Ineq"] >= 95.0),
        ("Ed>=85", pip["Ed"] >= 85.0),
        ("Prob>=60", pip["Prob"] >= 60.0),
        ("LF<=25", pip["LF"] <= 25.0),
        ("M.F<=25", pip["M.F"] <= 25.0),
        ("spearman>=0.75", rho >= 0.75),
        ("runtime<=60s", crime_run.runtime <= 60.0),
    ]
    failed = [name for name, ok in gates if not ok]
    record(1, not failed,
           "Ineq=%.0f%% Ed=%.0f%% Prob=%.0f%% LF=%.0f%% M.F=%.0f%% "
           "spearman=%.4f runtime=%.1fs%s"
           % (pip["Ineq"], pip["Ed"], pip["Prob"], pip["LF"], pip["M.F"],
              rho, crime_run.runtime,
              "" if not failed else "; failed gates: " + ", ".join(failed)))


def test_criterion_2_overlapping_regressors(crime_run):
    results = crime_run.results
    inclusion = results["inclusion"]
    pair_sum = inclusion.get("Po1", 0.0) + inclusion.get("Po2", 0.0)
    posterior = rebuild_posterior(results)
    police = ClassHierarchy([("Po1", ("Police",)), ("Po2", ("Police",))])
    grouped = class_probability(posterior, police, "Police")
    corr = float(np.corrcoef(crime_run.table["Po1"], crime_run.table["Po2"])[0, 1])
    n_both = sum(1 for m in results["models"]
                 if {"Po1", "Po2"} <= set(m["regressors"]))
    gates = [
        ("Po1+Po2>=0.85", pair_sum >= 0.85),
        ("group>=0.95", grouped >= 0.95),
        ("corr>0.99", corr > 0.99),
        ("never-together", n_both == 0),
        ("group>max-single", grouped > max(inclusion.get("Po1", 0.0),
                                           inclusion.get("Po2", 0.0))),
    ]
    failed = [name for name, ok in gates if not ok]
    record(2, not failed,
           "PIP(Po1)+PIP(Po2)=%.3f, two-member class prob %.3f, "
           "corr(Po1,Po2)=%.4f, models holding both: %d%s"
           % (pair_sum, grouped, corr, n_both,
              "" if not failed else "; failed gates: " + ", ".join(failed)))


# --------------------------------------------------------------------------
# criterion 3: hand-built singleton posterior over a toy hierarchy

TOY_PATHS = {
    "n1": ("Fabric", "Polymer", "Nylon"), "n2": ("Fabric", "Polymer", "Nylon"),
    "p1": ("Fabric", "Polymer", "Polyester"), "p2": ("Fabric", "Polymer", "Polyester"),
    "c1": ("Fabric", "Cotton"), "c2": ("Fabric", "Cotton"),
    "v1": ("Vegetation",), "v2": ("Vegetation",),
}


def singleton_posterior(weights: dict) -> ModelPosterior:
    model_set = conftest.make_model_set([((name,), [1.0], None, 0.0) for name in weights],
                                        tuple(TOY_PATHS), "occam")
    return ModelPosterior(model_set, np.array(list(weights.values())))


def test_criterion_3_toy_class_probabilities():
    hierarchy = ClassHierarchy(sorted(TOY_PATHS.items()))
    first = singleton_posterior({"n1": 0.4, "n2": 0.3, "p1": 0.2, "p2": 0.1})
    second = singleton_posterior({"c1": 0.1, "v1": 0.4, "v2": 0.5})
    stated = [
        (first, "Nylon", 0.7), (first, "Polyester", 0.3),
        (first, "Polymer", 1.0), (first, "Fabric", 1.0),
        (first, "Vegetation", 0.0),
        (second, "Fabric", 0.1), (second, "Vegetation", 0.9),
    ]
    worst = max(abs(class_probability(post, hierarchy, label) - want)
                for post, label, want in stated)
    record(3, worst <= 1e-12,
           "all %d stated class probabilities reproduced, worst |err| %.2e "
           "(tol 1e-12)" % (len(stated), worst))


# --------------------------------------------------------------------------
# criterion 4: search strategies agree with the enumeration oracle

def test_criterion_4_search_oracles():
    worst_occam, worst_mc3 = 0.0, 0.0
    mismatched = []
    for seed in range(50):
        y, X, names = make_table_instance(seed)
        cfg = SearchConfig(max_size=3, window_ratio=20.0, strategy="occam")
        occ = occam_search(y, Workspace(y, X, names=names), cfg)
        exh = exhaustive_search(y, Workspace(y, X, names=names),
                                SearchConfig(max_size=3, strategy="exhaustive"))
        kept = [row for row in conftest.model_rows(exh)
                if row.bic - exh.best_bic <= cfg.window]
        if sorted(keys(conftest.model_rows(occ))) != sorted(keys(kept)):
            mismatched.append(seed)
            continue
        post_occ = normalize(occ)
        post_win = normalize(conftest.make_model_set(kept, exh.candidates, "occam"))
        post_exh = normalize(exh)
        post_mc3 = normalize(mc3_search(
            y, Workspace(y, X, names=names),
            SearchConfig(max_size=3, strategy="mc3", mc3_iterations=20000,
                         seed=seed)))
        for name in names:
            worst_occam = max(worst_occam,
                              abs(inclusion_probability(post_occ, name)
                                  - inclusion_probability(post_win, name)))
            worst_mc3 = max(worst_mc3,
                            abs(inclusion_probability(post_mc3, name)
                                - inclusion_probability(post_exh, name)))
    ok = not mismatched and worst_occam <= 1e-10 and worst_mc3 <= 0.05
    record(4, ok,
           "50 instances: occam vs windowed enumeration max |dPIP| %.1e "
           "(tol 1e-10), mc3 vs enumeration max |dPIP| %.3f (tol 0.05)%s"
           % (worst_occam, worst_mc3,
              "" if not mismatched
              else "; retained-set mismatch at seeds %r" % mismatched))


# --------------------------------------------------------------------------
# criteria 5-7: one pass over 100 seeded scenes feeds all three gates

LDPE_PATH = ("Polymer", "Polyethylene", "LDPE")
SCENE_COUNT = 100


def whitened_cosine(u, v, stats) -> float:
    """Cosine between whitened vectors, without mean removal.

    Background-removed spectra live near the origin rather than near the
    background mean, so the mean-centered ACE score is the wrong yardstick
    for them; the uncentered whitened angle is comparable for both inputs.
    """
    wu = stats.whitener @ np.asarray(u, dtype=np.float64)
    wv = stats.whitener @ np.asarray(v, dtype=np.float64)
    return float((wu @ wv) / (np.linalg.norm(wu) * np.linalg.norm(wv)))


def tree_invariants_hold(tree) -> bool:
    """Root mass 1, monotone down every edge, sibling union bound.

    Every class path in the synthetic library has depth 3, so each branch
    node's members are exactly the union of its children's and the union
    bound applies at every branch.
    """
    if abs(tree.root.probability - 1.0) > 1e-12:
        return False
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.children:
            if node.probability > sum(c.probability for c in node.children) + 1e-9:
                return False
        for child in node.children:
            if child.probability > node.probability + 1e-12:
                return False
            stack.append(child)
    return True


@pytest.fixture(scope="module")
def scene_survey():
    tally = SimpleNamespace(class_hits=0, min_class_prob=1.0, fragmented=0,
                            tree_ok=0, toprank=0, clean_roi=0, lift_hits=0,
                            lifts=[])
    for seed in range(SCENE_COUNT):
        cube, library, target_names, implant, pixels = make_scene(seed)
        hierarchy = library.hierarchy

        # identification over the implant footprint
        avg = average_pixels(cube, pixels)
        posterior = normalize(run_search(
            avg, make_workspace(avg, library),
            SearchConfig(max_size=4, window_ratio=20.0, strategy="occam")))
        p_class = class_probability(posterior, hierarchy, LDPE_PATH)
        tally.min_class_prob = min(tally.min_class_prob, p_class)
        tally.class_hits += p_class >= 0.9
        tally.fragmented += max(inclusion_probability(posterior, n)
                                for n in target_names) < 0.5
        tally.tree_ok += tree_invariants_hold(build_tree(posterior, hierarchy))

        # detection with the library's class-mean signature; the threshold is
        # set from a first scoring pass so every scene uses its own top 0.1%
        stats = background_stats(cube, shrinkage=0.01)
        mean_values = np.mean([library.spectrum(n).values
                               for n in target_names], axis=0)
        target = Spectrum("target_mean", library.grid, mean_values)
        scored, _ = detect(cube, target, stats, threshold=0.0)
        cut = float(np.percentile(scored.scores, 99.9))
        _, rois = detect(cube, target, stats, threshold=cut)
        hit = bool(rois) and set(rois[0].pixels) == set(pixels)
        tally.toprank += hit
        tally.clean_roi += hit and len(rois) == 1
        if rois:
            roi = rois[0]
            ring = annulus_coordinates(roi, (cube.rows, cube.cols), 1, 5, 24)
            removal = background_removal(
                roi.average, target, [extract_pixel(cube, r, c) for r, c in ring])
            raw = whitened_cosine(roi.average.values, implant.values, stats)
            cleaned = whitened_cosine(removal.spectrum.values, implant.values,
                                      stats)
            tally.lifts.append(cleaned - raw)
            tally.lift_hits += cleaned > raw
    return tally


def test_criterion_5_tree_invariants(scene_survey):
    record(5, scene_survey.tree_ok == SCENE_COUNT,
           "root=1, child<=parent, sibling union bound held on %d/%d "
           "identification trees" % (scene_survey.tree_ok, SCENE_COUNT))


def test_criterion_6_identification_power(scene_survey):
    s = scene_survey
    record(6, s.class_hits >= 90,
           "target class prob >= 0.9 in %d/%d scenes (min %.4f, gate >= 90); "
           "mass split so far that no single variant reached PIP 0.5 in %d"
           % (s.class_hits, SCENE_COUNT, s.min_class_prob, s.fragmented))


def test_criterion_7_detection_and_removal_lift(scene_survey):
    s = scene_survey
    ok = s.toprank >= 99 and s.lift_hits >= 95
    record(7, ok,
           "implant ROI top-ranked in %d/%d (gate >= 99; clean single-ROI "
           "scenes %d), background-removal whitened-match lift > 0 in %d/%d "
           "(gate >= 95, median %+.4f)"
           % (s.toprank, SCENE_COUNT, s.clean_roi, s.lift_hits, SCENE_COUNT,
              float(np.median(s.lifts))))


# --------------------------------------------------------------------------
# criterion 8: numerical invariants

def test_criterion_8_numerical_invariants(tmp_path):
    worst_scale, worst_orth, worst_norm = 0.0, 0.0, 0.0
    for seed in range(10):
        y, X, names = make_table_instance(seed)
        cfg = SearchConfig(max_size=3, window_ratio=20.0, strategy="occam")
        base = normalize(occam_search(y, Workspace(y, X, names=names), cfg))
        worst_norm = max(worst_norm,
                         abs(float(base.probabilities.sum()) - 1.0))
        probs = dict(zip(keys(conftest.model_rows(base.models)), base.probabilities))
        for alpha in (7.0, 0.03):
            scaled = normalize(occam_search(
                alpha * y, Workspace(alpha * y, X, names=names), cfg))
            rescaled = dict(zip(keys(conftest.model_rows(scaled.models)),
                                scaled.probabilities))
            if set(rescaled) != set(probs):
                worst_scale = 1.0
            else:
                worst_scale = max(worst_scale,
                                  max(abs(probs[k] - rescaled[k]) for k in probs))
        worst_orth = max(worst_orth, check_residual(fit(y, X, names)))

    # same-seed mc3 runs through the CLI must be byte-identical
    y, X, names = make_table_instance(3)
    csv_path = tmp_path / "table.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("y",) + names)
        for i in range(y.size):
            writer.writerow([repr(float(y[i]))] + [repr(float(v)) for v in X[i]])
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        cmd = [sys.executable, "-m", "specid", "--seed", "11", "bma-table",
               "--csv", str(csv_path), "--response", "y", "--strategy", "mc3",
               "--iterations", "4000", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "results.json").read_bytes()
                       + (out / "inclusion.csv").read_bytes())
    deterministic = outputs[0] == outputs[1]

    gates = [
        ("scaling<=1e-12", worst_scale <= 1e-12),
        ("orthogonality<=1e-8", worst_orth <= 1e-8),
        ("normalization<=1e-12", worst_norm <= 1e-12),
        ("mc3-determinism", deterministic),
    ]
    failed = [name for name, ok in gates if not ok]
    record(8, not failed,
           "response-scaling dev %.1e (tol 1e-12), residual orthogonality "
           "%.1e (tol 1e-8), normalization dev %.1e (tol 1e-12), same-seed "
           "mc3 reruns byte-identical: %s%s"
           % (worst_scale, worst_orth, worst_norm, deterministic,
              "" if not failed else "; failed gates: " + ", ".join(failed)))
