"""Shared benchmark fixtures.

Benchmarks regenerate the paper's artefacts at laptop scale: trace
durations default to a fraction of the paper's (1 h / 20 min) since the
effect sizes are duration-stable.  RESULTS_DIR holds the committed
tables: the deterministic ones (the paper figures, ablations and
extensions) are goldens that :func:`assert_result` compares byte for
byte, and the timing tables are a reference run.  :func:`write_result`
writes each run's timing tables under the gitignored TIMING_DIR instead,
so a run leaves the checkout clean; a change that claims a timing number
copies its tables from there into RESULTS_DIR.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.trace import presets

RESULTS_DIR = Path(__file__).parent / "results"
TIMING_DIR = Path(__file__).parent.parent / ".benchmarks" / "timing"


def write_result(name: str, text: str) -> None:
    """Persist this run's timing table under TIMING_DIR."""
    TIMING_DIR.mkdir(parents=True, exist_ok=True)
    (TIMING_DIR / name).write_text(text + "\n")
    print(f"\n--- {name} ---")
    print(text)


def assert_result(name: str, text: str) -> None:
    """Fail unless a deterministic table equals its committed golden file.

    A missing golden is written and the test fails, so regenerating a
    table after an intended change means deleting its file and rerunning
    the benchmark twice (the second run must pass).
    """
    path = RESULTS_DIR / name
    print(f"\n--- {name} ---")
    print(text)
    if not path.exists():
        RESULTS_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")
        pytest.fail(
            f"no golden {path}; wrote this run's table, rerun to check",
            pytrace=False,
        )
    committed = path.read_text()
    if committed != text + "\n":
        diff = difflib.unified_diff(
            committed.splitlines(keepends=True),
            (text + "\n").splitlines(keepends=True),
            fromfile=f"{name} (committed)",
            tofile=f"{name} (this run)",
        )
        pytest.fail(
            f"{name} differs from the committed table:\n" + "".join(diff),
            pytrace=False,
        )


@pytest.fixture(scope="session")
def fig2_traces():
    """The four synthetic days at benchmark scale (90 s each)."""
    return presets.all_days(duration=90.0)


@pytest.fixture(scope="session")
def fig3_trace():
    """The sensitivity trace at benchmark scale (240 s)."""
    return presets.sensitivity_trace(duration=240.0)


@pytest.fixture(scope="session")
def sec3_trace():
    """The Section 3 comparison trace (60 s of day 0)."""
    return presets.caida_like_day(0, duration=60.0)


@pytest.fixture(scope="session")
def throughput_trace():
    """A small trace for update-throughput measurements."""
    return presets.caida_like_day(0, duration=20.0)


@pytest.fixture(scope="session")
def batch_trace():
    """A larger trace (~114k packets) for the batch-admission gates, big
    enough that per-chunk constant costs are amortized away."""
    return presets.caida_like_day(0, duration=120.0)
