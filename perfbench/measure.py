"""Measurement helpers: percentiles, failure accounting, digests, provenance."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: ranked beyond it (so p99 needs >= 1000 samples).
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A nearest-rank percentile with the sample counts that back it."""

    value: float
    samples: int
    beyond: int

    @property
    def valid(self) -> bool:
        return self.beyond >= MIN_BEYOND


def percentile(sorted_values: Sequence[float], p: float) -> Tail:
    """Nearest-rank ``p``-th percentile of an ascending sample.

    ``beyond`` counts the samples ranked after the reported one, which
    is what the sample-count rule is about: p99 of 999 samples has only
    9 beyond it and is not valid.
    """
    n = len(sorted_values)
    if n == 0:
        return Tail(0.0, 0, 0)
    rank = max(1, math.ceil(p / 100.0 * n))
    return Tail(float(sorted_values[rank - 1]), n, n - rank)


def failed_ops(offered: int, shed: int, failed: int, correct: bool) -> int:
    """Operations that count as failed in a run.

    Shed, failed and timed-out operations count; a run that fails any
    correctness check counts every offered operation as failed, since
    none of its results can be trusted.
    """
    if not correct:
        return offered
    return shed + failed


def failed_frac(offered: int, shed: int, failed: int, correct: bool) -> float:
    """:func:`failed_ops` as a share of the offered operations."""
    if offered <= 0:
        return 1.0
    return failed_ops(offered, shed, failed, correct) / offered


def model_digest(material: Any) -> str:
    """sha256 of a canonical JSON encoding of the modelled outputs.

    Floats are encoded with ``repr`` precision by ``json``, so two runs
    share a digest only if every modelled value is bit-identical.
    """
    encoded = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set size of a live process (``VmHWM``), in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def import_seconds(module: str, packages: Sequence[str]) -> float:
    """Host seconds to import ``module`` afresh, timed in a forked child.

    The child drops every loaded module of ``packages``, so the import
    runs their module code again (the standard library stays loaded),
    and sends the time back over a pipe.  This process's modules and
    memory — its peak RSS is a metric — are left as they were.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            for name in [n for n in sys.modules
                         if any(n == p or n.startswith(p + ".") for p in packages)]:
                del sys.modules[name]
            start = time.perf_counter()
            importlib.import_module(module)
            os.write(write_end, repr(time.perf_counter() - start).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        reply = pipe.read()
    os.waitpid(pid, 0)
    if not reply:
        raise RuntimeError(f"importing {module} afresh failed")
    return float(reply)


def _git(root: str, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: str, seed: int, traced: bool, seed_role: str) -> Dict[str, Any]:
    """Where and how a record was made.

    The git fields are null outside a git checkout; git is only asked
    when ``root`` itself holds the repository, so it never looks at
    directories above the checkout.
    """
    sha: Optional[str] = None
    dirty: Optional[bool] = None
    if os.path.isdir(os.path.join(root, ".git")):
        sha = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": cores,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "seed": seed,
        "seed_role": seed_role,
        "traced": traced,
    }


__all__ = [
    "MIN_BEYOND", "Tail", "failed_frac", "failed_ops", "import_seconds",
    "model_digest", "percentile", "provenance", "vm_hwm_mib",
]
