"""The repository's tools run and report what they promise."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def core_line(text):
    """The 1-based number of the line of src/specid/core.py that holds `text`."""
    with open(os.path.join(ROOT, "src", "specid", "core.py"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    number, = [i + 1 for i, line in enumerate(lines) if text in line]
    return number


def test_unreached_lines_lists_what_a_test_cannot_reach():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "unreached_lines.py"), "-q",
         "-p", "no:cacheprovider", "tests/test_core.py::test_band_grid_basics"],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = proc.stdout.splitlines()
    # the grid test builds no library, so never meets a library's band mask
    mask_check = core_line('raise InputError("band mask length')
    assert ('core.py:%d  raise InputError("band mask length %%d does not match %%d bands"'
            % mask_check) in listed
    # but it builds a grid, and imports every module (their def lines ran)
    reached = core_line('wl = _as_float_vector(self.wavelengths, "wavelengths")')
    assert not any(line.startswith("core.py:%d " % reached) for line in listed)
    assert not any(line.startswith("core.py:%d " % core_line("def resample(")) for line in listed)
    assert "1 passed" in proc.stdout


def test_output_digests_refuses_json_that_is_not_strict(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "output_digests", os.path.join(ROOT, "tools", "output_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for text, strict in [('{"p": 0.5, "c": [-0.0, 1e-310]}', True), ('{"p": NaN}', False),
                         ('[Infinity]', False), ('{"a": {"b": -Infinity}}', False),
                         ('{"p": 0.5', False)]:
        path = tmp_path / "results.json"
        path.write_text(text)
        assert tool.strict_json(path) is strict, text
