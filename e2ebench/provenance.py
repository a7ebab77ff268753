"""Provenance recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=20,
            # Stop git from walking up into a repository around the
            # checkout: the benchmark reads only inside its checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest(root: Path) -> str:
    """SHA-256 over the program and benchmark sources.

    A checkout without ``.git`` has no sha; this digest still tells two
    runs of the same code from runs of different code.
    """
    digest = hashlib.sha256()
    for base in (root / "src" / "repro", root / "e2ebench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(root: Path, workload: str, seed: int) -> Dict[str, Any]:
    import networkx
    import numpy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }
