"""Facts about the machine and software a run used (reads only)."""

from __future__ import annotations

import platform
from pathlib import Path

from workloads import ROOT


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            return value.strip()
    return None


def caches(cpu: int) -> dict[str, str]:
    """Unified and data cache sizes of one CPU, keyed by level (L1d, L2, L3)."""
    out = {}
    for index in sorted(Path(f"/sys/devices/system/cpu/cpu{cpu}/cache").glob("index*")):
        kind = _read(index / "type")
        if kind == "Instruction":
            continue
        level = _read(index / "level")
        out[f"L{level}" + ("d" if kind == "Data" else "")] = _read(index / "size")
    return out


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unavailable"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def facts(affinity: list[int]) -> dict:
    """``affinity`` is the CPU set the run was given, before any pinning."""
    import numpy
    import smartrar

    return {
        "affinity": affinity,
        "affinity_count": len(affinity),
        "cpu_model": cpu_model(),
        "caches": caches(affinity[0]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "smartrar": getattr(smartrar, "__version__", "unknown"),
        "git_commit": git_commit(),
    }
