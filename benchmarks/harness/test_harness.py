"""Schema and oracle tests of the benchmark harness.

Not collected by tier-1 (``testpaths = tests``); run explicitly::

    python -m pytest benchmarks/harness -q

The suite runs ``run.py run --quick --trace`` once (about 35 s) and
checks the records it writes: every workload and metric name the issue
defines is present with a unit, names are plain, nothing failed, and a
deliberately corrupted result is counted.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import gen  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*argv, env=None):
    return subprocess.run(
        [sys.executable, RUN, *argv], cwd=ROOT, text=True, timeout=600,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, **(env or {})})


@pytest.fixture(scope="module")
def records():
    proc = _run("run", "--quick", "--trace")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    path = proc.stdout.splitlines()[-1].split("records: ", 1)[1]
    with open(os.path.join(ROOT, path)) as handle:
        return json.load(handle), proc.stdout


def _by_mode(records, traced):
    return {r["workload"]: r for r in records[0] if r["trace"] == traced}


def test_every_workload_reports_every_end_to_end_metric(records):
    untraced = _by_mode(records, False)
    assert list(untraced) == list(metrics.WORKLOADS)
    for record in untraced.values():
        names = [m.name for m in metrics.END_TO_END] + ["fail_share"]
        assert sorted(record["end_to_end"]) == sorted(names)
        for name in ("op_ms_p50", "ops_per_s", "peak_rss_mb", "setup_s"):
            assert record["end_to_end"][name] > 0, (record["workload"], name)
        assert record["end_to_end"]["fail_share"] == 0, record["problems"]
        assert record["classes"] and record["attempted"] >= len(record["classes"])


def test_every_per_layer_metric_is_present_with_a_unit(records):
    traced = _by_mode(records, True)
    assert list(traced) == list(metrics.WORKLOADS)
    for workload, record in traced.items():
        assert list(record["per_layer"]) == metrics.PER_LAYER_NAMES
        for layer in metrics.PER_LAYER:
            cell = record["per_layer"][layer.name]
            assert cell["unit"] == layer.unit and cell["unit"]
            # a layer the workload exercises was really measured; counts,
            # differences and skipped cells may legitimately read zero
            if (workload in layer.workloads and layer.kind == "time"
                    and layer.name not in record["skipped"]
                    and layer.name not in ("engine.hop_overhead_us",
                                           "convert.unattributed_us",
                                           "http.overhead_ms")):
                assert cell["value"] > 0, (workload, layer.name)
        assert record["failed"] == 0, record["problems"]
        assert "trace_overhead_ms" in record
        assert os.path.isfile(os.path.join(ROOT, record["trace_file"]))
    assert traced["cold_start"]["per_layer"]["codegen.deterministic"]["value"] == 1


def test_the_printed_report_names_every_metric(records):
    text = records[1]
    for name in [m.name for m in metrics.END_TO_END] + metrics.PER_LAYER_NAMES:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ \S+$", text, re.M), name


def test_names_are_plain_and_unique():
    names = (list(metrics.WORKLOADS) + [m.name for m in metrics.END_TO_END]
             + metrics.PER_LAYER_NAMES)
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert len(metrics.PER_LAYER) <= 128
    assert all(len(why) <= 200 and "\n" not in why
               for why in metrics.WORKLOADS.values())


def test_records_carry_the_host_stamp(records):
    for record in records[0]:
        stamp = record["host"]
        for key in ("commit", "dirty", "nproc", "cpu", "python", "numpy",
                    "scipy", "compiler"):
            assert key in stamp
        assert set(stamp["compiler"]) == {"CC", "path", "banner"}
        assert "seed" in record and record["op_counts"]
        assert isinstance(record["comparable"], bool)


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/harness"]
    assert manifest["run_seconds"] == run.DEFAULT_SECONDS
    assert manifest["command"] == ["python3", "benchmarks/harness/run.py", "bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(metrics.WORKLOADS)
    assert [w["why"] for w in manifest["workloads"]] == list(metrics.WORKLOADS.values())
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]


def test_readme_documents_every_name():
    with open(os.path.join(HERE, "README.md")) as handle:
        text = handle.read()
    for name in (list(metrics.WORKLOADS) + [m.name for m in metrics.END_TO_END]
                 + ["fail_share"] + metrics.PER_LAYER_NAMES):
        assert f"`{name}`" in text, name


def _last_line(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_bench_protocol_result_line():
    flags = ("--workload", "small_inmem", "--seed", "3", "--seconds", "1")
    result = _last_line(_run("bench", *flags, "--trace", "0", "--quick"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
    traced = _last_line(_run("bench", *flags, "--trace", "1", "--quick"))
    assert list(traced["metrics"]) == metrics.PER_LAYER_NAMES


def test_a_corrupted_result_raises_fail_share():
    proc = _run("bench", "--workload", "small_inmem", "--seed", "3",
                "--seconds", "1", "--trace", "0", "--quick",
                env={"HARNESS_CORRUPT_RESULTS": "1"})
    result = _last_line(proc)
    assert result["correct"] is False and result["failed"] > 0
    with open(os.path.join(HERE, "out", "bench-small_inmem-untraced.json")) as handle:
        assert json.load(handle)["end_to_end"]["fail_share"] > 0


# ----------------------------------------------------------------------
# the oracle on its own


def test_the_oracle_is_independent_of_the_program():
    with open(os.path.join(HERE, "oracle.py")) as handle:
        source = handle.read()
    assert not re.search(r"^\s*(import|from)\s+repro", source, re.M)
    assert "repro.verify" not in source.split('"""', 2)[2]


TRIPLETS = (np.array([[0, 1], [1, 0], [1, 2], [2, 2]]), np.array([1.0, 2.0, 3.0, 4.0]))
LAYOUTS = {
    "COO": ({(0, "pos"): np.array([0, 4]), (0, "crd"): np.array([1, 0, 2, 1]),
             (1, "crd"): np.array([0, 1, 2, 2])}, {}, np.array([2.0, 1.0, 4.0, 3.0])),
    "CSR": ({(1, "pos"): np.array([0, 1, 3, 4]), (1, "crd"): np.array([1, 2, 0, 2])},
            {}, np.array([1.0, 3.0, 2.0, 4.0])),
    "CSC": ({(1, "pos"): np.array([0, 1, 2, 4]), (1, "crd"): np.array([1, 0, 2, 1])},
            {}, np.array([2.0, 1.0, 4.0, 3.0])),
    "DIA": ({(0, "perm"): np.array([-1, 0, 1])}, {(0, "K"): 3},
            np.array([0.0, 2.0, 0.0, 0.0, 0.0, 4.0, 1.0, 3.0, 0.0])),
    "ELL": ({(2, "crd"): np.array([1, 0, 2, 0, 2, 0])}, {(0, "K"): 2},
            np.array([1.0, 2.0, 4.0, 0.0, 3.0, 0.0])),
    "HASH": ({(1, "crd"): np.array([-1, 1, -1, -1, 0, -1, 2, -1, -1, -1, 2, -1])},
             {(1, "W"): 4},
             np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 4.0, 0.0])),
}


@pytest.mark.parametrize("fmt", sorted(LAYOUTS))
def test_decoders_accept_correct_and_reject_corrupted_storage(fmt):
    arrays, meta, vals = LAYOUTS[fmt]
    assert oracle.check_result(fmt, (3, 3), arrays, meta, vals, *TRIPLETS) == []
    wrong = vals.copy()
    wrong[np.flatnonzero(wrong)[0]] += 1.0
    assert oracle.check_result(fmt, (3, 3), arrays, meta, wrong, *TRIPLETS)
    moved = {key: value.copy() for key, value in arrays.items()}
    crd = moved[max(k for k in moved if k[1] in ("crd", "perm"))]
    crd[np.flatnonzero(crd >= 0)[0]] += 1
    assert oracle.check_result(fmt, (3, 3), moved, meta, vals, *TRIPLETS)


def test_csf_decoder():
    coords = np.array([[0, 1, 2], [0, 1, 3], [2, 0, 0]])
    vals = np.array([1.0, 2.0, 3.0])
    arrays = {(1, "pos"): np.array([0, 1, 1, 2]), (1, "crd"): np.array([1, 0]),
              (2, "pos"): np.array([0, 2, 3]), (2, "crd"): np.array([2, 3, 0])}
    assert oracle.check_result("CSF", (3, 2, 4), arrays, {}, vals, coords, vals) == []
    arrays[(2, "pos")] = np.array([0, 1, 3])
    assert oracle.check_result("CSF", (3, 2, 4), arrays, {}, vals, coords, vals)


def test_generated_hash_layout_is_the_reference_builders():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro

    raw = gen.hash_matrix(50, 6, np.random.default_rng(5))
    reference = repro.build(repro.get_format("HASH"), raw.dims,
                            [tuple(c) for c in raw.coords], list(raw.sorted_vals))
    assert reference.metadata == raw.meta
    assert np.array_equal(reference.arrays[(1, "crd")], raw.arrays[(1, "crd")])
    assert np.array_equal(reference.vals, raw.vals)
