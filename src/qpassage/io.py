"""Artifact writers: CSV tables, the run manifest and its timings.

CSV numbers are written as %.17e, 18 significant digits in scientific
notation, manifest numbers as JSON's shortest round-trip form, and files use
LF line endings, so identical runs produce byte-identical CSVs and manifests;
the wall-clock duration goes to the separate timings file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import SimulationResult

__all__ = ["write_csv", "write_trajectory_csv", "write_manifest", "write_timings"]

_FMT = "%.17e"
_CHUNK = 512  # rows formatted per write: as fast as one write, without its memory


def write_csv(path, header, columns) -> None:
    """A header line, then one row per entry of the equal-length `columns`."""
    data = np.column_stack(columns)
    row = ",".join([_FMT] * data.shape[1]) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(data), _CHUNK):
            rows = data[start:start + _CHUNK].tolist()
            fh.write("".join(row % tuple(values) for values in rows))


def write_trajectory_csv(result: SimulationResult, path, time_scale: float = 1.0) -> None:
    """Columns: t, one population per label (sorted), F, residual."""
    labels = sorted(result.populations)
    residual = result.auxiliary.get("residual")
    if residual is None:
        residual = np.zeros_like(result.times)
    write_csv(path, ["t"] + [f"P_{name}" for name in labels] + ["F", "residual"],
              [result.times * time_scale] + [result.populations[name] for name in labels]
              + [result.fidelity, residual])


def _write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(path, config_echo: dict, runs: list, version: str) -> None:
    """The config echo, the per-run records and the version; nothing that
    depends on the wall clock, so identical runs write identical bytes."""
    _write_json(path, {"config": config_echo, "runs": runs, "version": version})


def write_timings(path, duration_seconds: float) -> None:
    """Wall-clock facts of a run, kept out of the manifest."""
    _write_json(path, {"duration_seconds": duration_seconds})
