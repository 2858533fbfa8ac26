"""Every committed figure file against a fresh regeneration, byte for byte.

tests/reference/regenerate.py writes the files.  A mismatch names each
moved CSV row, with its before and after values and their relative change,
or each moved key of a .meta.json sidecar.
"""

import json
import math
import runpy
from pathlib import Path

import pytest

from wpcn_select.experiments import CSV_COLUMNS, read_csv

REFERENCE = Path(__file__).parent / "reference"
_SCRIPT = runpy.run_path(str(REFERENCE / "regenerate.py"))
#: the columns a row carries its values in; the others name the row
_VALUES = ("x_threshold", "outage", "stderr")


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    root = tmp_path_factory.mktemp("figures")
    _SCRIPT["regenerate"](root)
    return root


def _change(before, after) -> str:
    if isinstance(before, float) and isinstance(after, float):
        rel = (after - before) / abs(before) if before else math.inf
        return f"{before!r} -> {after!r} ({rel:+.3e})"
    return f"{before!r} -> {after!r}"


def _moved_rows(before: list, after: list) -> list:
    lines = [] if len(before) == len(after) else [f"{len(before)} rows -> {len(after)}"]
    for i, (b, a) in enumerate(zip(before, after), start=1):
        moved = [f"{col} {_change(b[col], a[col])}" for col in CSV_COLUMNS if b[col] != a[col]]
        if moved:
            name = " ".join(f"{col}={b[col]}" for col in CSV_COLUMNS
                            if col not in _VALUES and b[col] is not None)
            lines.append(f"row {i} ({name}): " + "; ".join(moved))
    return lines


def _moved_keys(before: dict, after: dict) -> list:
    return [f"{key}: {_change(before.get(key), after.get(key))}"
            for key in sorted(before.keys() | after.keys()) if before.get(key) != after.get(key)]


@pytest.mark.parametrize("name", _SCRIPT["files"]())
def test_figure_file_matches_its_reference(regenerated, name):
    ref, new = REFERENCE / name, regenerated / name
    if ref.read_bytes() == new.read_bytes():
        return
    if name.endswith(".csv"):
        moved = _moved_rows(read_csv(ref), read_csv(new))
    else:
        moved = _moved_keys(json.loads(ref.read_text()), json.loads(new.read_text()))
    pytest.fail(f"{name} moved (if on purpose, rerun tests/reference/regenerate.py):\n"
                + "\n".join(moved or ["the bytes differ"]), pytrace=False)
