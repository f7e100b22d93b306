"""The out-of-core contract: peak RSS does not grow with the source.

``convert_file`` holds O(dimensions + chunk) resident, so quadrupling
the source must leave the converting process's peak RSS where it was.
Each conversion runs in a fresh interpreter — ``VmHWM`` is a lifetime
high-water mark, and the parent has already paged in the test suite.
An absolute RSS-to-source ratio would mostly measure the interpreter's
own floor at sizes a test can afford; the *difference* between two
sizes cancels it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.io.stream import BinaryStreamWriter

CHUNK_NNZ = 262144
SMALL_NNZ, LARGE_NNZ = 1 << 20, 1 << 22  # whole rows of _ROW_DEGREE

# row i holds 256 entries at columns (i * _MIX + 256 k) mod 65536:
# row-sorted like a Matrix Market download, distinct within a row
_ROW_DEGREE, _COLS, _MIX = 256, 65536, 2654435761

_CHILD = """\
import json, sys
from repro import convert_file
src, dst, out, chunk = sys.argv[1:5]
result = convert_file(src, dst, out, chunk_nnz=int(chunk))
print(json.dumps({"peak_rss": result.peak_rss_bytes,
                  "source_bytes": result.source_bytes,
                  "nnz": result.nnz}))
"""


def _write_fixture(path: Path, nnz: int) -> Path:
    rows = nnz // _ROW_DEGREE
    ks = np.arange(_ROW_DEGREE, dtype=np.int64) * (_COLS // _ROW_DEGREE)
    with BinaryStreamWriter(path, (rows, _COLS), nnz) as writer:
        for r0 in range(0, rows, 1024):
            ridx = np.arange(r0, min(r0 + 1024, rows), dtype=np.int64)
            j = (((ridx * _MIX % _COLS)[:, None] + ks[None, :]) % _COLS).reshape(-1)
            i = np.repeat(ridx, _ROW_DEGREE)
            writer.append(i, j, 0.5 + (i + j) % 7)
    return path


def _convert_in_child(src: Path, dst: str, out_dir: Path) -> dict:
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), dst, str(out_dir),
         str(CHUNK_NNZ)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("out_of_core")
    return {
        nnz: _write_fixture(root / f"coo-{nnz}.bin", nnz)
        for nnz in (SMALL_NNZ, LARGE_NNZ)
    }


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs VmHWM; ru_maxrss is inherited across exec")
@pytest.mark.parametrize("dst", ["CSR", "DCSR"])
def test_peak_rss_does_not_grow_with_the_source(dst, fixtures, tmp_path):
    small = _convert_in_child(fixtures[SMALL_NNZ], dst, tmp_path / "small")
    large = _convert_in_child(fixtures[LARGE_NNZ], dst, tmp_path / "large")
    assert (small["nnz"], large["nnz"]) == (SMALL_NNZ, LARGE_NNZ)
    source_growth = large["source_bytes"] - small["source_bytes"]
    rss_growth = large["peak_rss"] - small["peak_rss"]
    assert rss_growth < 0.25 * source_growth, (
        f"COO->{dst}: peak RSS grew {rss_growth / 1e6:.1f} MB for "
        f"{source_growth / 1e6:.1f} MB more source"
    )
