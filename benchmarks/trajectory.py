"""The one writer for the perf benches' ``BENCH_*.json`` trajectories.

Each trajectory is a JSON list with one entry per bench run; an entry is
the run's timestamp (UTC) followed by the bench's own numbers.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))


def append_entry(bench: str, fields: Dict[str, Any]) -> None:
    """Append one run's ``fields`` to ``benchmarks/BENCH_<bench>.json``.

    A missing or unreadable file starts a fresh trajectory.
    """
    path = os.path.join(HERE, f"BENCH_{bench}.json")
    history = []
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                history = json.load(fh)
        except (ValueError, OSError):
            history = []
    history.append({"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **fields})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")
