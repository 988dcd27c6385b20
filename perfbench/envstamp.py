"""Environment stamp attached to every benchmark result."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str | None]:
    """L2 and last-level cache sizes as the kernel reports them for cpu0."""
    sizes: dict[str, str | None] = {"l2": None, "llc": None}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = []
        for index in root.glob("index*"):
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                levels.append((int((index / "level").read_text()),
                               (index / "size").read_text().strip()))
    except (OSError, ValueError):
        return sizes
    levels.sort()
    sizes["l2"] = next((size for level, size in levels if level == 2), None)
    sizes["llc"] = levels[-1][1] if levels else None
    return sizes


def _fft_backend() -> str:
    """The module that implements numpy.fft (pocketfft in numpy >= 1.17)."""
    importlib.import_module("numpy.fft")
    names = sorted(m for m in sys.modules if m.startswith("numpy.fft._"))
    return next((m for m in names if "pocketfft" in m), "numpy.fft")


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(src: Path) -> str:
    """sha256 over the package sources, so results name the code they measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    status = _git(root, "status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": _fft_backend(),
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(root / "src"),
    }
