"""Golden tables for the paper-figure experiments.

The ``--smoke`` runs of ``hidden-hhh`` (both accounting modes),
``window-sensitivity`` and ``decay-comparison`` are deterministic, so
their rows (as JSON) and ``to_table()`` text are pinned byte for byte
under ``golden/``.  A refactor of an experiment must leave both
unchanged.

To regenerate after an intended output change::

    PYTHONPATH=src python tests/experiments/test_golden_tables.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import jsonify, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"

#: case name -> (experiment, param overrides on top of the smoke preset)
CASES = {
    "hidden-hhh-unique": ("hidden-hhh", {"mode": "unique"}),
    "hidden-hhh-occurrences": ("hidden-hhh", {"mode": "occurrences"}),
    "window-sensitivity": ("window-sensitivity", {}),
    "decay-comparison": ("decay-comparison", {}),
}


def render(case: str) -> dict[str, str]:
    """File name -> exact text for one case's golden files."""
    name, overrides = CASES[case]
    result = run_experiment(name, overrides=overrides, smoke=True)
    return {
        f"{case}.rows.json": json.dumps(jsonify(result.rows), indent=2) + "\n",
        f"{case}.table.txt": result.to_table() + "\n",
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_smoke_output_matches_golden(case):
    for filename, text in render(case).items():
        assert text == (GOLDEN_DIR / filename).read_text(), filename


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for filename, text in render(case).items():
            (GOLDEN_DIR / filename).write_text(text)
            print(f"wrote {GOLDEN_DIR / filename}")
