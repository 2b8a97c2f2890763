"""Shared test helpers: ENVI fixture writing, ModelSets from rows, and the
acceptance summary block."""

import csv
import json
import math
import os
from collections import namedtuple
from pathlib import Path

import numpy as np

# test_acceptance.py appends "[criterion N] PASS/FAIL — ..." lines here; the
# terminal-summary hook below prints them even when capture is on.
ACCEPTANCE_LINES = []


def write_envi_cube(dirpath, cube, interleave="bsq", data_type=5, byte_order=0,
                    wavelength_units="Micrometers", bbl=None, scale_factor=None,
                    header_offset=0, stem="cube", data_suffix=".img"):
    """Write an ImageCube as an ENVI header + raw data pair; returns (hdr, data).

    data_type follows the ENVI code table (2=int16, 4=float32, 5=float64,
    12=uint16). Integer types are written as value * scale_factor (default
    10000) so the reader's rescale inverts it.
    """
    dtypes = {2: "i2", 4: "f4", 5: "f8", 12: "u2"}
    order = "<" if byte_order == 0 else ">"
    dtype = np.dtype(order + dtypes[data_type])
    values = cube.data
    if data_type in (2, 12):
        factor = scale_factor if scale_factor is not None else 10000.0
        values = np.round(values * factor)
    arr = values.astype(dtype)
    if interleave == "bsq":
        arr = arr.transpose(2, 0, 1)
    elif interleave == "bil":
        arr = arr.transpose(0, 2, 1)
    elif interleave != "bip":
        raise ValueError(interleave)
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    hdr_path = dirpath / (stem + ".hdr")
    data_path = dirpath / (stem + data_suffix)
    with open(data_path, "wb") as fh:
        fh.write(b"\x00" * header_offset)
        fh.write(np.ascontiguousarray(arr).tobytes())
    lines = ["ENVI",
             "samples = %d" % cube.cols,
             "lines = %d" % cube.rows,
             "bands = %d" % len(cube.grid),
             "interleave = %s" % interleave,
             "data type = %d" % data_type,
             "byte order = %d" % byte_order,
             "header offset = %d" % header_offset]
    if wavelength_units:
        lines.append("wavelength units = %s" % wavelength_units)
    wl = cube.grid.wavelengths
    if wavelength_units and wavelength_units.strip().lower() in (
            "nanometers", "nanometer", "nm"):
        wl = wl * 1000.0
    lines.append("wavelength = { %s }" % ", ".join(repr(float(w)) for w in wl))
    if bbl is not None:
        lines.append("bbl = { %s }" % ", ".join(str(int(b)) for b in bbl))
    if scale_factor is not None:
        lines.append("reflectance scale factor = %s" % repr(float(scale_factor)))
    with open(hdr_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return hdr_path, data_path


def write_library_csv(dirpath, library, stem="library"):
    """Library CSV + hierarchy JSON with full-precision cells; returns (csv, json)."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    csv_path = dirpath / (stem + ".csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_um"] + list(library.names))
        matrix = library.matrix()
        for i, wl in enumerate(library.grid.wavelengths):
            writer.writerow([repr(float(wl))] + [repr(float(v)) for v in matrix[i]])
    json_path = dirpath / (stem + "_classes.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({s.name: list(s.class_path) for s in library.spectra}, fh)
    return csv_path, json_path


# one model of a ModelSet; an intercept of None means the model has none
ModelRow = namedtuple("ModelRow", "regressors coefficients intercept bic")


def make_model_set(rows, candidates, strategy="exhaustive", metadata=None, prior=None):
    """A ModelSet of (regressors, coefficients, intercept, bic) rows, in the
    order given; every rss and condition is 1.0. The prior defaults to uniform."""
    # imported here: perfbench imports this module
    from specid.regression import ModelPrior
    from specid.search import ModelSet
    rows, candidates = list(rows), tuple(candidates)
    index = np.full((len(rows), max((len(r[0]) for r in rows), default=0)), -1, dtype=np.intp)
    coefficients = np.zeros(index.shape)
    for i, (regressors, coefs, _, _) in enumerate(rows):
        index[i, :len(regressors)] = [candidates.index(name) for name in regressors]
        coefficients[i, :len(regressors)] = coefs
    intercepts = [math.nan if r[2] is None else r[2] for r in rows]
    ones = np.ones(len(rows))
    return ModelSet(index, coefficients, intercepts, [r[3] for r in rows], ones, ones,
                    candidates, strategy, metadata,
                    ModelPrior.uniform() if prior is None else prior)


def model_rows(models) -> list:
    """The ModelRows of a ModelSet, as make_model_set takes them."""
    names = models.candidates
    return [ModelRow(tuple(names[j] for j in sel[:k]), coefs[:k],
                     None if math.isnan(intercept) else intercept, bic)
            for sel, coefs, k, intercept, bic in zip(
                models.index.tolist(), models.coefficients.tolist(), models.sizes.tolist(),
                models.intercepts.tolist(), models.bic.tolist())]


def pytest_configure(config):
    # tests that start `python -m specid` need the source tree the in-process
    # tests import; pytest's pythonpath setting reaches sys.path only
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + paths)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
