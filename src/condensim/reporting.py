"""Bit-exact tabular output and run manifests.

CSV bodies are deterministic: floats carry 17 significant digits (the
shortest round-trip width for doubles), newlines are LF, and no
timestamps appear; timestamps live only in the manifest.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:  # nan: emit an empty cell
            return ""
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


class ManifestTimer:
    """Collects manifest fields across one subcommand run."""

    def __init__(self, subcommand: str, config_digest: str, seed: int, seed_source: str):
        self.subcommand = subcommand
        self.config_digest = config_digest
        self.seed = seed
        self.seed_source = seed_source
        self.checks: dict[str, bool] = {}
        self.check_values: dict[str, dict] = {}
        # What the run's numbers may depend on besides config and seed.
        self.environment = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "CONDENSIM_SEED": os.environ.get("CONDENSIM_SEED"),
        }
        self._start = time.monotonic()
        self._wall = time.time()

    def record(
        self, name: str, passed: bool, value=None, threshold=None, detail: str | None = None
    ) -> bool:
        """Store a check's verdict and, given a value, what it was judged on.

        A non-finite value or threshold is stored as None (JSON null), so
        the manifest stays strict JSON.
        """
        self.checks[name] = bool(passed)
        if value is not None:
            self.check_values[name] = {
                "value": _finite_or_none(value),
                "threshold": _finite_or_none(threshold),
                "detail": detail,
            }
        return bool(passed)

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def write(self, path: Path, version: str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "artifact": "condensim",
            "version": version,
            "subcommand": self.subcommand,
            "config_hash": self.config_digest,
            "seed": self.seed,
            "seed_source": self.seed_source,
            "wall_time_s": round(time.monotonic() - self._start, 3),
            "started_unix": self._wall,
            "checks": self.checks,
            "check_values": self.check_values,
            "environment": self.environment,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def _finite_or_none(value) -> float | None:
    return float(value) if value is not None and math.isfinite(value) else None
