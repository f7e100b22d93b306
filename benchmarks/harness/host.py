"""The host stamp every output record carries.

Two numbers are only comparable when they come from the same commit
class, interpreter, numpy/scipy and compiler on the same kind of host;
the stamp records exactly those, so a reader can tell before comparing.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
from typing import Dict, Optional

from common import REPO_ROOT


def _run(argv, cwd=None) -> Optional[str]:
    try:
        proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def compiler() -> Dict[str, Optional[str]]:
    """``$CC`` and the banner of the compiler the native backend would
    find (``$CC``, else cc / gcc / clang), or nulls when there is none."""
    requested = os.environ.get("CC")
    for name in ([requested] if requested else ["cc", "gcc", "clang"]):
        path = shutil.which(name)
        banner = _run([path, "--version"]) if path else None
        if banner:
            return {"CC": requested, "path": path,
                    "banner": banner.splitlines()[0]}
    return {"CC": requested, "path": None, "banner": None}


def _module_version(name: str) -> Optional[str]:
    try:
        return __import__(name).__version__
    except ImportError:
        return None


def stamp() -> Dict:
    # the driver's checkout is not a git repository: commit stays null there
    commit = _run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT)
    status = _run(["git", "status", "--porcelain"], cwd=REPO_ROOT)
    return {
        "commit": commit,
        "dirty": bool(status) if commit else None,
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _module_version("numpy"),
        "scipy": _module_version("scipy"),
        "compiler": compiler(),
    }
