"""Core layer: the unified detector contract and registry.

This package is the architectural keystone the rest of the library builds
on: :class:`Detector` defines the streaming interface (scalar *and*
columnar-batch updates, query, reset, merge, resource accounting), and the
registry maps stable string names to detector factories for CLI and
experiment lookup.

See ``ROADMAP.md`` ("Architecture") for the layering:
core -> sketch/decay -> windows -> analysis/cli.
"""

from repro.core.checkpoint import (
    STATE_SCHEMA,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.detector import Detector, as_batch
from repro.core.registry import (
    AccuracyFloor,
    DetectorSpec,
    detector_names,
    get_enumerable_spec,
    get_spec,
    make_detector,
    register_detector,
)

__all__ = [
    "AccuracyFloor",
    "CheckpointError",
    "Detector",
    "DetectorSpec",
    "STATE_SCHEMA",
    "as_batch",
    "detector_names",
    "get_enumerable_spec",
    "get_spec",
    "make_detector",
    "read_checkpoint",
    "register_detector",
    "write_checkpoint",
]
