"""One ``cold_start`` operation: a fresh interpreter that imports
``repro``, builds an engine and converts one tiny tensor through
COO->CSR, CSR->CSC, COO->DIA and CSR->ELL.

The parent times the whole process from spawn to exit; this script times
its own steps with two clock reads each (free, so it always does) and
prints them as one JSON line.  With ``--steps`` (the traced run) it first
replays the cold path as separate public calls — toolchain probe, first
plan, kernel obtain per backend — before converting.
"""

import sys
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402

PAIRS = (("COO", "CSR"), ("CSR", "CSC"), ("COO", "DIA"), ("CSR", "ELL"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cls", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--steps", action="store_true")
    parser.add_argument("--dump", default=None)
    ns = parser.parse_args()
    ms, at = {}, {}

    def clock(name, fn):
        started = time.perf_counter()
        value = fn()
        ms[name] = (time.perf_counter() - started) * 1e3
        at[name] = (started - T0) * 1e3
        return value

    np = clock("import.numpy_ms", lambda: __import__("numpy"))
    repro = clock("import.repro_ms", lambda: __import__("repro"))
    from repro.convert import sample_features
    from repro.formats import get_format

    data = np.load(ns.input)
    n = int(data["n"])
    backend = "native" if ns.cls.startswith("native") else None
    engine = clock("engine.init_ms",
                   lambda: repro.ConversionEngine(cache_dir=ns.cache_dir))
    coo = repro.Tensor(
        get_format("COO"), (n, n),
        {(0, "pos"): np.array([0, len(data["vals"])], dtype=np.int64),
         (0, "crd"): data["rows"], (1, "crd"): data["cols"]},
        {}, data["vals"])

    sources = []
    if ns.steps:
        clock("engine.toolchain_probe_ms", engine.toolchain)
        clock("engine.first_plan_ms", lambda: engine.plan(
            "COO", "CSR", nnz=coo.nnz_stored, features=sample_features(coo)))
        obtain = {"auto_cold": "engine.obtain_codegen_ms",
                  "auto_disk": "engine.obtain_disk_ms",
                  "native_cold": "engine.obtain_cc_ms",
                  "native_disk": "engine.obtain_native_disk_ms"}[ns.cls]
        converters = clock(obtain, lambda: [
            engine.make_converter(src, dst, backend=backend or "vector")
            for src, dst in PAIRS])
        sources = [conv.source for conv in converters]
        if ns.cls == "auto_cold":
            clock("engine.obtain_scalar_codegen_ms", lambda: [
                engine.make_converter(src, dst, backend="scalar")
                for src, dst in PAIRS])

    csr = clock("engine.first_convert_ms",
                lambda: engine.convert(coo, "CSR", backend=backend))
    results = {
        "CSR": csr,
        "CSC": engine.convert(csr, "CSC", backend=backend),
        "DIA": engine.convert(coo, "DIA", backend=backend),
        "ELL": engine.convert(csr, "ELL", backend=backend),
    }

    digest = hashlib.sha256()
    flat = {}
    for fmt, tensor in results.items():
        for (level, name), arr in sorted(tensor.arrays.items()):
            flat[f"{fmt}|array|{level}|{name}"] = np.asarray(arr)
        for (level, name), value in sorted(tensor.metadata.items()):
            flat[f"{fmt}|meta|{level}|{name}"] = np.array(int(value))
        flat[f"{fmt}|vals"] = np.asarray(tensor.vals)
    for key in sorted(flat):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(flat[key]).tobytes())
    if ns.dump:
        np.savez(ns.dump, **flat)

    with open("/proc/self/status") as handle:
        hwm = [int(line.split()[1]) for line in handle
               if line.startswith("VmHWM:")]
    stats = engine.cache_stats()
    print(json.dumps({
        "ms": ms,
        "at_ms": at,
        "digest": digest.hexdigest(),
        "stats": {k: v for k, v in stats.items() if isinstance(v, int)},
        "source_bytes": sum(len(s) for s in sources),
        "source_sha": hashlib.sha256("\0".join(sources).encode()).hexdigest()
        if sources else None,
        "vm_hwm_kb": hwm[0] if hwm else 0,
        "total_ms": (time.perf_counter() - T0) * 1e3,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
