"""File formats: ENVI cubes, library CSVs, hierarchy JSON, and result writers.

Wavelengths are converted to micrometers on load. All writers are
deterministic: two writes of the same objects are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import weakref
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .aggregate import IdentificationTree, InclusionReport, ModelPosterior
from .core import BandGrid, ImageCube, Spectrum, SpectralLibrary, block_bounds, block_rows
from .errors import InputError, ParseError

DATA_TYPES = {2: np.dtype("int16"), 4: np.dtype("float32"),
              5: np.dtype("float64"), 12: np.dtype("uint16")}
INTEGER_SCALE_DEFAULT = 10000.0
_MICRON_UNITS = {"micrometers", "micrometer", "microns", "micron", "um", "µm"}
_NANO_UNITS = {"nanometers", "nanometer", "nm"}


@dataclass(frozen=True, eq=False)
class EnviHeader:
    """Parsed subset of an ENVI header; wavelengths already in micrometers."""

    samples: int
    lines: int
    bands: int
    interleave: str
    data_type: int
    byte_order: int
    wavelength: tuple
    wavelength_units: str
    bbl: tuple | None = None
    reflectance_scale_factor: float | None = None
    header_offset: int = 0

    def __post_init__(self):
        if min(self.samples, self.lines, self.bands) <= 0:
            raise ParseError("samples, lines, and bands must be positive")
        if self.interleave not in ("bsq", "bil", "bip"):
            raise ParseError("unknown interleave %r" % self.interleave)
        if self.data_type not in DATA_TYPES:
            raise ParseError("unsupported data type code %r (known: %s)"
                             % (self.data_type, sorted(DATA_TYPES)))
        if self.byte_order not in (0, 1):
            raise ParseError("byte order must be 0 or 1, got %r" % self.byte_order)
        if len(self.wavelength) != self.bands:
            raise ParseError("wavelength lists %d values for %d bands"
                             % (len(self.wavelength), self.bands))
        if self.bbl is not None and len(self.bbl) != self.bands:
            raise ParseError("bbl lists %d values for %d bands"
                             % (len(self.bbl), self.bands))
        factor = self.reflectance_scale_factor
        if factor is not None and not (math.isfinite(factor) and factor > 0):
            raise ParseError("reflectance scale factor must be positive and "
                             "finite, got %r" % factor)
        if self.header_offset < 0:
            raise ParseError("header offset must be >= 0, got %d" % self.header_offset)


def _split_header_fields(text: str) -> dict:
    if not text.lstrip().lower().startswith("envi"):
        raise ParseError("not an ENVI header: missing ENVI magic line")
    fields = {}
    body = text.lstrip()[4:]
    for match in re.finditer(r"^\s*([A-Za-z][A-Za-z0-9 _]*?)\s*=", body, re.M):
        key = match.group(1).strip().lower()
        rest = body[match.end():]
        if rest.lstrip().startswith("{"):
            start = rest.index("{") + 1
            end = rest.find("}", start)
            if end < 0:
                raise ParseError("unterminated { list for ENVI key %r" % key)
            value = rest[start:end]
        else:
            value = rest.split("\n", 1)[0]
        fields[key] = value.strip()
    return fields


def _number_list(raw: str, key: str) -> tuple:
    items = [tok for tok in re.split(r"[,\s]+", raw.strip()) if tok]
    try:
        return tuple(float(tok) for tok in items)
    except ValueError:
        raise ParseError("non-numeric entry in %r list" % key) from None


def parse_envi_header(text: str) -> EnviHeader:
    """Parse ENVI header text (key = value lines, {...} for lists)."""
    fields = _split_header_fields(text)

    def need(key):
        if key not in fields:
            raise ParseError("ENVI header is missing required key %r" % key)
        return fields[key]

    def need_int(key, default=None):
        text = need(key) if default is None else (fields.get(key) or default)
        try:
            return int(text)
        except ValueError:
            raise ParseError("ENVI key %r must be an integer, got %r"
                             % (key, text)) from None

    raw_wl = _number_list(need("wavelength"), "wavelength")
    units = fields.get("wavelength units", "").strip().lower()
    if units in _MICRON_UNITS:
        scale = 1.0
        units = "um"
    elif units in _NANO_UNITS:
        scale = 1e-3
        units = "nm"
    elif units:
        raise ParseError("unknown wavelength units %r" % fields["wavelength units"])
    else:
        # undeclared: real band centers below ~100 can only be micrometers
        scale, units = (1e-3, "nm") if (raw_wl and max(raw_wl) > 100.0) else (1.0, "um")
    bbl = _number_list(fields["bbl"], "bbl") if "bbl" in fields else None
    factor = None
    if "reflectance scale factor" in fields:
        try:
            factor = float(fields["reflectance scale factor"])
        except ValueError:
            raise ParseError("reflectance scale factor must be numeric") from None
    return EnviHeader(
        samples=need_int("samples"),
        lines=need_int("lines"),
        bands=need_int("bands"),
        interleave=need("interleave").strip().lower(),
        data_type=need_int("data type"),
        byte_order=need_int("byte order"),
        wavelength=tuple(w * scale for w in raw_wl),
        wavelength_units=units,
        bbl=bbl,
        reflectance_scale_factor=factor,
        header_offset=need_int("header offset", default="0"),
    )


def _find_data_file(header_path: str) -> str:
    stem = header_path[:-4] if header_path.lower().endswith(".hdr") else header_path
    for candidate in (stem, stem + ".img", stem + ".dat", stem + ".raw", stem + ".bin"):
        if os.path.isfile(candidate) and os.path.abspath(candidate) != os.path.abspath(header_path):
            return candidate
    raise ParseError("no data file found next to header %r" % header_path)


def read_envi(header_path: str, data_path: str | None = None) -> ImageCube:
    """Open an ENVI cube in canonical (row, col, band) float64 order.

    The header and the data file's size are checked now, and the file's last
    byte read, so a short file fails here. The values stay in the file: the
    cube converts rows only when they are read (see _EnviCube), so opening
    it holds no part of it. Integer cubes are divided by the reflectance
    scale factor (default 10000); bad bands listed in bbl are dropped and the
    grid adjusted.
    """
    with open(header_path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    try:
        header = parse_envi_header(text)
    except ParseError as exc:
        raise ParseError("ENVI header %r: %s" % (header_path, exc)) from None
    if data_path is None:
        data_path = _find_data_file(header_path)
    dtype = DATA_TYPES[header.data_type]
    dtype = dtype.newbyteorder("<" if header.byte_order == 0 else ">")
    return _EnviCube(header, data_path, dtype)


class _EnviCube(ImageCube):
    """An ENVI cube whose values stay in its data file, converted to float64 when read.

    A read converts its rows in one pass: their bytes go into one buffer the
    size of the read, by one positional read for BIL and BIP and one per band
    for BSQ, so threads can read the file at once. Callers read a row block,
    a pixel block's rows or one row. Casting, band selection and division
    act element by element, so the values equal a whole-cube conversion bit
    for bit, whatever the rows read. Each row's values are checked to be
    finite the first time it is converted (threads at once may check a row
    twice, never skip it); integers divided by a factor that keeps the
    widest of them finite need no check. A file that ends before the rows
    read raises ParseError. `data` converts the whole cube once, on first
    use, a row block (core.block_rows) at a time; reads never become views.
    """

    def __init__(self, header: EnviHeader, path: str, dtype: np.dtype):
        lines, samples, bands = header.lines, header.samples, header.bands
        end = header.header_offset + lines * samples * bands * dtype.itemsize
        actual = os.path.getsize(path)
        if actual != end:
            raise ParseError("data file %r holds %d bytes, expected %d "
                             "(%dx%dx%d of %s plus offset %d)"
                             % (path, actual, end, lines, samples, bands, dtype,
                                header.header_offset))
        self.header, self.path, self.dtype, self.good = header, path, dtype, None
        wavelengths = np.array(header.wavelength)
        if header.bbl is not None and 0 in header.bbl:
            self.good = np.array([b != 0 for b in header.bbl])
            wavelengths = wavelengths[self.good]
        self.grid = BandGrid(wavelengths)
        self.shape, self._data = (lines, samples, len(self.grid)), None
        # the file stays open, and readable even once unlinked, until the
        # cube is collected
        self.fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self.fd)
        # read the last byte, so that data shorter than its reported size
        # fails now, as it would when the whole cube is read
        _read_into(self.fd, end - 1, np.empty(1, dtype=np.uint8), path)
        self.factor, finite = None, False   # finite: no value can be NaN or infinite
        if dtype.kind in "iu":
            self.factor = header.reflectance_scale_factor or INTEGER_SCALE_DEFAULT
            info = np.iinfo(dtype)
            finite = math.isfinite(max(-float(info.min), float(info.max)) / self.factor)
        self.row_bytes = samples * bands * dtype.itemsize
        self.checked = np.full(lines, finite)   # rows known to be finite

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            data, read = np.empty(self.shape), self.reader()
            step = block_rows(self.header.samples * self.header.bands)
            for lo, hi in block_bounds(self.rows, step):
                read(lo, hi, out=data[lo:hi])
            self._data = data
        return self._data

    def reader(self):
        """As ImageCube.reader; rows are converted into `out` or a reused buffer."""
        raw, values = np.empty(0, dtype=np.uint8), np.empty(0)

        def read(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
            nonlocal raw, values
            rows = hi - lo
            if out is None:
                size = rows * self.cols * self.bands
                if values.size < size:
                    values = None  # drop the old buffer before taking the new one
                    values = np.empty(size)
                out = values[:size].reshape(rows, *self.shape[1:])
            if raw.size < rows * self.row_bytes:
                raw = None
                raw = np.empty(rows * self.row_bytes, dtype=np.uint8)
            self._convert(lo, hi, raw, out)
            return out

        return read

    def _convert(self, lo: int, hi: int, buffer: np.ndarray, out: np.ndarray) -> None:
        header, dtype = self.header, self.dtype
        rows, samples, bands = hi - lo, header.samples, header.bands
        raw = buffer[:rows * self.row_bytes]
        if header.interleave == "bsq":
            plane = rows * samples * dtype.itemsize
            for band in range(bands):
                start = (band * header.lines + lo) * samples * dtype.itemsize
                _read_into(self.fd, header.header_offset + start,
                           raw[band * plane:(band + 1) * plane], self.path)
            block = raw.view(dtype).reshape(bands, rows, samples).transpose(1, 2, 0)
        else:
            _read_into(self.fd, header.header_offset + lo * self.row_bytes, raw, self.path)
            if header.interleave == "bil":
                block = raw.view(dtype).reshape(rows, bands, samples).transpose(0, 2, 1)
            else:  # bip
                block = raw.view(dtype).reshape(rows, samples, bands)
        block = block if self.good is None else block[:, :, self.good]
        if self.factor is None:
            out[...] = block
        else:  # cast and divide in one pass: the cast of an integer is exact
            np.divide(block, self.factor, out=out)
        if not self.checked[lo:hi].all():
            # min and max carry any NaN or infinity, without a block-sized mask
            if not (np.isfinite(out.min()) and np.isfinite(out.max())):
                raise InputError("cube contains non-finite values (%r, rows %d-%d)"
                                 % (self.path, lo, hi - 1))
            self.checked[lo:hi] = True


def _read_into(fd: int, position: int, out: np.ndarray, path: str) -> None:
    """Fill the byte array `out` from `position` of the open file descriptor `fd`.

    A read may return fewer bytes than asked for (Linux caps one read near
    2 GiB; network and FUSE file systems stop short), so it is repeated
    until `out` is full; only a read that returns nothing means the file
    ended.
    """
    done = 0
    while done < out.nbytes:
        got = os.preadv(fd, [out[done:]], position + done)
        if got == 0:
            raise ParseError("data file %r ended early: read %d of %d bytes at offset %d"
                             % (path, done, out.nbytes, position))
        done += got


def read_library(csv_path: str, hierarchy_path: str | None = None) -> SpectralLibrary:
    """Load a library CSV (wavelength column + one column per spectrum).

    The first header cell must be wavelength_um or wavelength_nm; the
    hierarchy JSON maps spectrum name to its class-label path (root first,
    excluding the implicit library root). Names without an entry fall under
    "Unlabeled".
    """
    header, table = _read_numeric_csv(
        csv_path, 3, "library CSV %r needs a header and at least 2 band rows")
    unit_key = header[0].lower()
    if unit_key == "wavelength_um":
        scale = 1.0
    elif unit_key == "wavelength_nm":
        scale = 1e-3
    else:
        raise ParseError("first column must be wavelength_um or wavelength_nm, got %r"
                         % header[0])
    names = header[1:]
    if not names:
        raise ParseError("library CSV %r has no spectrum columns" % csv_path)
    paths = {}
    if hierarchy_path is not None:
        content = _read_text(hierarchy_path).strip()
        try:
            mapping = json.loads(content) if content else {}
        except json.JSONDecodeError as exc:
            raise ParseError("hierarchy file %r is not valid JSON: %s"
                             % (hierarchy_path, exc)) from None
        if not isinstance(mapping, dict):
            raise ParseError("hierarchy file %r must hold a JSON object" % hierarchy_path)
        for name, path in mapping.items():
            if not isinstance(path, list) or not all(isinstance(p, str) for p in path):
                raise ParseError("hierarchy entry %r must map to a list of labels" % name)
            paths[name] = tuple(path)
    grid = BandGrid(table[:, 0] * scale)
    spectra = tuple(
        Spectrum(name, grid, table[:, j + 1], paths.get(name, ("Unlabeled",)))
        for j, name in enumerate(names))
    return SpectralLibrary(grid, spectra)


def _read_text(path: str) -> str:
    """The file's text, line ends as written; non-UTF-8 bytes raise a ParseError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError("%r is not UTF-8 text: byte 0x%02x, %s"
                         % (path, exc.object[exc.start], exc.reason)) from None


def _read_numeric_csv(path: str, min_rows: int, too_short: str):
    """Stripped header cells and the float table below them; blank rows skipped."""
    text = io.StringIO(_read_text(path), newline="")
    rows = [row for row in csv.reader(text) if row and any(cell.strip() for cell in row)]
    if len(rows) < min_rows:
        raise ParseError(too_short % path)
    header = [cell.strip() for cell in rows[0]]
    table = np.empty((len(rows) - 1, len(header)))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError("row %d of %r has %d cells, expected %d"
                             % (i, path, len(row), len(header)))
        for j, cell in enumerate(row):
            try:
                table[i - 2, j] = float(cell)
            except ValueError:
                raise ParseError("non-numeric cell %r in row %d of %r"
                                 % (cell, i, path)) from None
    return header, table


def read_spectrum_csv(path: str) -> Spectrum:
    """Load a single-spectrum CSV (same layout as a one-column library)."""
    library = read_library(path)
    if len(library.spectra) != 1:
        raise ParseError("%r holds %d spectra, expected exactly 1"
                         % (path, len(library.spectra)))
    first = library.spectra[0]
    return Spectrum(first.name, first.grid, first.values)


def read_table(csv_path: str, response: str):
    """Read a plain numeric CSV; returns (y, X, predictor_names).

    First row holds column headers; `response` names the regressand.
    """
    header, table = _read_numeric_csv(
        csv_path, 2, "table CSV %r needs a header row and data rows")
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names in %r" % csv_path)
    if response not in header:
        raise ParseError("response column %r not found; columns are %r"
                         % (response, header))
    ridx = header.index(response)
    keep = [j for j in range(len(header)) if j != ridx]
    return table[:, ridx], table[:, keep], tuple(header[j] for j in keep)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_tree_dot(tree: IdentificationTree, conditional: bool = False) -> str:
    """DOT digraph text; one node per class labeled name + 4-decimal p.

    With `conditional`, labels show probability divided by the parent's
    (stored values stay absolute); edges follow the ascending-probability
    child order.
    """
    lines = ["digraph identification {", "  node [shape=box];"]
    edges = []

    def emit(path, node, parent_prob):
        node_id = "/".join(("",) + path) or "/"
        shown = node.probability
        if conditional and parent_prob is not None:
            shown = node.probability / parent_prob if parent_prob > 0 else 0.0
        lines.append('  "%s" [label="%s\\np=%.4f"];'
                     % (_dot_escape(node_id), _dot_escape(node.name), shown))
        for child in node.children:
            edges.append((node_id, "/".join(("",) + path + (child.name,))))
            emit(path + (child.name,), child, node.probability)

    emit((), tree.root, None)
    for src, dst in edges:
        lines.append('  "%s" -> "%s";' % (_dot_escape(src), _dot_escape(dst)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_tree_dot(tree: IdentificationTree, path: str,
                   conditional: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_tree_dot(tree, conditional=conditional))


# results.json is written RESULTS_CHUNK models at a time
RESULTS_CHUNK = 1024


def _model_template(size: int) -> str:
    """One model of `size` candidates as json.dump(..., indent=2) writes it in the
    models list: a %r for each float (float.__repr__, as json formats
    floats) and a %s for each escaped name."""
    items = ",\n        ".join
    return ('    {\n      "bic": %%r,\n      "coefficients": [\n        %s\n      ],\n'
            '      "probability": %%r,\n      "regressors": [\n        %s\n      ]\n    }'
            % (items(["%r"] * size), items(["%s"] * size)))


def _tree_payload(node) -> dict:
    return {"name": node.name, "p": node.probability,
            "children": [_tree_payload(child) for child in node.children]}


def results_payload(posterior: ModelPosterior, report: InclusionReport,
                    tree: IdentificationTree | None) -> dict:
    """The results JSON structure (tree may be None in tabular mode)."""
    models, names = posterior.models, posterior.models.candidates
    rows = [{"regressors": [names[j] for j in sel[:k]], "coefficients": coefficients[:k],
             "bic": bic, "probability": p}
            for sel, coefficients, k, bic, p in zip(
                models.index.tolist(), models.coefficients.tolist(), models.sizes.tolist(),
                models.bic.tolist(), posterior.probabilities.tolist())]
    return {
        "models": rows,
        "inclusion": {name: float(p) for name, p in
                      zip(report.names, report.probabilities)},
        "averaged_coefficients": {name: float(c) for name, c in
                                  zip(report.names, report.coefficients)},
        "tree": _tree_payload(tree.root) if tree is not None else None,
    }


def _json_section(value, depth: int = 1) -> str:
    """value as json.dump(..., sort_keys=True, indent=2) writes it at that depth."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def write_results_json(posterior: ModelPosterior, report: InclusionReport,
                       tree: IdentificationTree | None, path: str) -> None:
    """Write results_payload(...) as json.dump(..., sort_keys=True, indent=2).

    The bytes are the same, but the models are formatted straight from the
    ModelSet's columns, RESULTS_CHUNK at a time, so neither the payload nor
    the whole text is held in memory. Each chunk is one % formatting call:
    the template of each model's size, joined, filled from a cell array of
    bic, coefficients, probability and escaped names, the cells past a
    model's size masked out. A ModelSet's rows are all strict JSON in it.
    """
    models = posterior.models
    width = models.index.shape[1]
    # index -1 (past a model's size) picks the last, unused name
    names = np.array([encode_basestring_ascii(n) for n in models.candidates] + [None],
                     dtype=object)
    templates = np.array([None] + [_model_template(k) for k in range(1, width + 1)],
                         dtype=object)
    inclusion = {name: float(p) for name, p in zip(report.names, report.probabilities)}
    averaged = {name: float(c) for name, c in zip(report.names, report.coefficients)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{\n  "averaged_coefficients": %s,\n  "inclusion": %s,\n  "models": ['
                 % (_json_section(averaged), _json_section(inclusion)))
        sep = "\n"
        for lo in range(0, len(models), RESULTS_CHUNK):
            hi = lo + RESULTS_CHUNK
            index = models.index[lo:hi]
            # per model: bic, coefficients, probability, names; floats as Python floats
            cells = np.empty((len(index), 2 * width + 2), dtype=object)
            cells[:, 0] = models.bic[lo:hi]
            cells[:, 1:width + 1] = models.coefficients[lo:hi]
            cells[:, width + 1] = posterior.probabilities[lo:hi]
            cells[:, width + 2:] = names[index]
            held = np.ones(cells.shape, dtype=bool)
            held[:, 1:width + 1] = held[:, width + 2:] = index >= 0
            fh.write(sep + ",\n".join(templates[models.sizes[lo:hi]]) % tuple(cells[held]))
            sep = ",\n"
        fh.write('\n  ],\n  "tree": %s\n}\n'
                 % _json_section(_tree_payload(tree.root) if tree is not None else None))


def write_inclusion_csv(report: InclusionReport, path: str) -> None:
    """PIP percentages and averaged coefficients, one row per regressor."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["regressor", "inclusion_percent", "averaged_coefficient"])
        for name, p, c in zip(report.names, report.probabilities, report.coefficients):
            writer.writerow([name, repr(float(p) * 100.0), repr(float(c))])
        if report.intercept is not None:
            writer.writerow(["(intercept)", repr(100.0), repr(report.intercept)])


def write_scores(scores: np.ndarray, bin_path: str, json_path: str,
                 extra: dict | None = None) -> None:
    """Flat float64 row-major dump plus a JSON metadata sidecar."""
    scores = np.asarray(scores, dtype=np.float64)
    with open(bin_path, "wb") as fh:
        fh.write(memoryview(np.ascontiguousarray(scores)).cast("B"))
    meta = {"rows": int(scores.shape[0]), "cols": int(scores.shape[1]),
            "dtype": "float64", "order": "row-major"}
    meta.update(extra or {})
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_rois_json(rois, path: str) -> None:
    payload = [{"rank": i + 1,
                "pixels": [[int(r), int(c)] for r, c in roi.pixels],
                "peak_score": roi.peak_score,
                "mean_score": roi.mean_score,
                "average": [float(v) for v in roi.average.values]}
               for i, roi in enumerate(rois)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_rois_json(path: str) -> list:
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError("ROI file %r is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(payload, list):
        raise ParseError("ROI file %r must hold a JSON list" % path)
    for entry in payload:
        if not isinstance(entry, dict) or "pixels" not in entry:
            raise ParseError("ROI entry without pixel coordinates in %r" % path)
        pixels = entry["pixels"]
        if not isinstance(pixels, list) or not all(map(_is_pixel, pixels)):
            raise ParseError("ROI pixels must be [row, col] integer pairs in %r" % path)
    return payload


def _is_pixel(coords) -> bool:
    return (isinstance(coords, list) and len(coords) == 2
            and all(type(v) is int for v in coords))
