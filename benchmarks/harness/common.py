"""Shared plumbing of the harness: paths, statistics, the child protocol.

Nothing here imports ``repro`` — the parent process of a run is a load
generator and checker; the measured program only ever *runs* inside the
fresh child a workload spawns.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HARNESS_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HARNESS_DIR, "out")

#: Prefix of the one line a child prints for its parent; everything else
#: a child writes to stdout is ignored.
RESULT_TAG = "@@HARNESS-RESULT@@ "

#: Hard cap on any single child, well inside the driver's 180 s per run.
CHILD_TIMEOUT_S = 150.0


def require_program() -> None:
    """Exit non-zero, printing no result, when the program under test is
    not in this checkout (the driver runs the command once in a directory
    holding only the benchmark's own files and expects exactly that)."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        sys.stderr.write(
            f"harness: no program to measure: {SRC_DIR}/repro is missing\n"
        )
        raise SystemExit(2)


def scratch_dir(*parts: str) -> str:
    """A directory under ``out/`` (git-ignored), created on demand.  All
    fixtures, kernel caches, conversion outputs and temporaries live
    there, so a run reads and writes only inside its checkout."""
    path = os.path.join(OUT_DIR, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def trace_path(workload: str) -> str:
    """Where the traced run of ``workload`` writes its spans."""
    return os.path.join(scratch_dir(), f"trace-{workload}.jsonl")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # the native backend and the toolchain probe build in tempfile dirs
    env["TMPDIR"] = scratch_dir("tmp")
    return env


# ----------------------------------------------------------------------
# statistics


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of the positive entries (0.0 when there are none) —
    class medians are averaged this way so one slow class cannot drown
    the others, as the compilers sheet of the metrics guide asks."""
    logs = [math.log(v) for v in values if v > 0.0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def class_row(samples_ms: Sequence[float], failed: int = 0,
              impl: Optional[str] = None) -> Dict:
    """One row of a workload's ``classes`` block."""
    row = {
        "n": len(samples_ms),
        "failed": failed,
        "p50_ms": median(samples_ms) if samples_ms else 0.0,
        "p90_ms": percentile(samples_ms, 0.90) if samples_ms else 0.0,
    }
    if impl is not None:
        row["impl"] = impl
    return row


def time_reps(fn, reps: int) -> List[float]:
    """Seconds of ``reps`` back-to-back calls of ``fn`` (results dropped
    inside the timed region, so lazy work cannot escape the clock)."""
    out = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        out.append(time.perf_counter() - started)
    return out


class RoundClock:
    """The clock of a measured phase made of whole rounds.

    Iterating yields ``(round index, final)``: rounds run while another
    one of the last round's length still fits into ``seconds``; the last
    that fits is ``final``, and its operations are the "last op of every
    class" the oracle checks.  The phase never overruns ``seconds`` by
    more than the growth of one round.
    Work done under :meth:`stopped` (oracle checks, replay passes) is
    not part of the phase: it neither counts towards ``wall`` nor
    towards the deadline.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.rounds = 0
        self._paused = 0.0
        self._begin = time.perf_counter()

    def __iter__(self):
        last = 0.0
        while True:
            started, paused = time.perf_counter(), self._paused
            final = (started - self._begin - paused) + 2 * last >= self.seconds
            yield self.rounds, final
            self.rounds += 1
            last = (time.perf_counter() - started) - (self._paused - paused)
            if final:
                return

    @contextlib.contextmanager
    def stopped(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - started

    @property
    def wall(self) -> float:
        return time.perf_counter() - self._begin - self._paused


# ----------------------------------------------------------------------
# the child protocol


def vm_hwm_kb() -> int:
    """This process's own peak resident set (``VmHWM``), in kB.
    ``ru_maxrss`` would report the spawning parent's high-water mark."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def emit(record: Dict) -> None:
    """Child side: hand ``record`` to the parent."""
    sys.stdout.write(RESULT_TAG + json.dumps(record) + "\n")
    sys.stdout.flush()


def run_child(argv: List[str], timeout: float = CHILD_TIMEOUT_S) -> Dict:
    """Parent side: run one child to completion and return its record.

    The child is waited for (or killed on timeout) before returning, so
    a run never leaves a process behind.  Raises ``RuntimeError`` with
    the child's stderr when it fails or prints no record.
    """
    proc = subprocess.run(
        [sys.executable] + argv, env=child_env(), cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith(RESULT_TAG):
            record = json.loads(line[len(RESULT_TAG):])
            record["returncode"] = proc.returncode
            return record
    raise RuntimeError(
        f"child {' '.join(argv)} exited {proc.returncode} without a "
        f"record:\n{proc.stderr[-2000:]}"
    )


def setup_repeats(opts) -> int:
    """Set-ups per run; ``setup_s`` is their median.  Only the untraced
    full-size run reports ``setup_s``, so only it pays for three."""
    return 1 if opts.trace or opts.quick else 3


def child_argv(opts, *extra: str) -> List[str]:
    """argv (after the interpreter) of a workload child of this run."""
    argv = [
        os.path.join(HARNESS_DIR, "run.py"), "child",
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", repr(float(opts.seconds)), "--trace", str(int(opts.trace)),
    ]
    if opts.quick:
        argv.append("--quick")
    return argv + list(extra)


def measure_in_child(opts) -> Dict:
    """The parent side of a workload that lives in one child: set-up-only
    children first (``setup_s`` is the median of the set-ups), then the
    child that goes on to the measured phase."""
    argv = child_argv(opts)
    setups = []
    record: Dict = {}
    repeats = setup_repeats(opts)
    for index in range(repeats):
        mode = "measure" if index == repeats - 1 else "setup"
        started = time.time()
        record = run_child(argv + ["--mode", mode])
        setups.append(record["measure_started_at"] - started)
    record["setup_s"] = setups
    record["peak_rss_kb"] = record.pop("vm_hwm_kb")
    return record
