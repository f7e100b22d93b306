"""Differential fuzzing across every backend, including streamed.

The conversion backends (scalar, vector, native, streamed) are
bit-identical by construction; this module is the executable form of
that claim.  ``python -m repro.verify fuzz`` generates random tensors —
varying dimensions, density, value dtype and coordinate *ordering*
(sorted, reversed, shuffled, duplicate-heavy rows, empty slices) — runs
every applicable backend on every requested pair, and compares the
results array-for-array.  The ``fused`` column additionally checks the
fused convert-and-compute pipeline (:mod:`repro.compute`): SpMV through
the destination, computed with and without materializing it, within
float tolerance.  The ``auto`` column runs the plan auto would pick for
a bulk-sized tensor with the case's sampled features, on the case and
on its sorted-order twin: the only column that reaches the external
converters and their execution-time exact check.  On a mismatch it
prints a single ``REPRO:`` line that reproduces the failure
deterministically:

.. code-block:: text

    REPRO: python -m repro.verify fuzz --pairs coo_dcsr --cases 1 --seed 4171

CI runs a time-budgeted sweep (``--budget 60``) on every push; the same
generator also feeds the property-based streaming harness in
``tests/stream`` (via ``tests/support/tensorgen.py`` — one generator,
every suite).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "ORDERINGS",
    "TensorCase",
    "fuzz",
    "random_tensor_case",
    "streamable_pair_names",
]

#: Coordinate orderings the generator cycles through.  ``sorted`` is the
#: canonical row-major stream, ``reverse``/``random`` exercise unsorted
#: inputs, ``rowheavy`` concentrates entries in a few rows (duplicate
#: keys back to back, long group-rank carries), ``diagonal`` stresses
#: remapped destinations (DIA/SKY), ``empty`` and ``dense`` are the
#: degenerate densities.
ORDERINGS = ("sorted", "reverse", "random", "rowheavy", "diagonal",
             "empty", "dense")


@dataclass
class TensorCase:
    """One generated random tensor, in coordinate form."""

    seed: int
    dims: Tuple[int, ...]
    cells: List[Tuple[int, ...]]
    vals: List[float]
    ordering: str
    dtype: str = "float64"

    @property
    def nnz(self) -> int:
        return len(self.cells)

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The case as per-dimension int64 arrays plus a values array
        (the :func:`repro.io.stream.write_stream` layout)."""
        order = len(self.dims)
        if not self.cells:
            cols = tuple(np.zeros(0, dtype=np.int64) for _ in range(order))
            return cols + (np.zeros(0, dtype=np.float64),)
        grid = np.array(self.cells, dtype=np.int64)
        return tuple(grid[:, k] for k in range(order)) + (
            np.asarray(self.vals, dtype=np.float64),
        )


def random_tensor_case(
    seed: int,
    *,
    order: int = 2,
    max_dim: int = 24,
    ordering: Optional[str] = None,
    density: Optional[float] = None,
) -> TensorCase:
    """Generate one seeded random tensor case.

    Deterministic in ``seed`` and the keyword parameters: the same call
    always produces the same coordinates, values and ordering — this is
    what makes the ``REPRO:`` line reproducible.  Coordinates are
    unique (formats assume deduplicated input); the *ordering* controls
    how they are arranged in the coordinate stream, not which cells are
    present.
    """
    rng = np.random.default_rng(seed)
    ordering = ordering or ORDERINGS[int(rng.integers(len(ORDERINGS)))]
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(order))
    capacity = int(np.prod(dims))
    if ordering == "empty":
        count = 0
    elif ordering == "dense":
        count = capacity
    else:
        if density is None:
            density = float(rng.uniform(0.05, 0.6))
        count = max(1, int(capacity * density))
    flat = rng.choice(capacity, size=min(count, capacity), replace=False)
    if ordering == "rowheavy" and len(flat):
        # concentrate everything in a handful of slices of the first
        # dimension: long runs of equal keys, plus guaranteed empty rows
        rows = rng.choice(dims[0], size=max(1, dims[0] // 4), replace=False)
        inner = capacity // dims[0]
        flat = np.unique(
            rows[rng.integers(len(rows), size=len(flat))] * inner
            + rng.integers(max(inner, 1), size=len(flat))
        )
    if ordering == "diagonal" and len(flat) and order == 2:
        m, n = dims
        k = len(flat)
        i = rng.integers(m, size=k)
        off = rng.integers(-2, 3, size=k)
        j = np.clip(i + off, 0, n - 1)
        flat = np.unique(i * n + j)
    cells_grid = np.array(np.unravel_index(np.sort(flat), dims)).T
    if ordering == "reverse":
        cells_grid = cells_grid[::-1]
    elif ordering in ("random", "rowheavy", "diagonal"):
        cells_grid = cells_grid[rng.permutation(len(cells_grid))]
    cells = [tuple(int(c) for c in row) for row in cells_grid]
    vals = [round(float(v), 4) for v in rng.uniform(0.5, 9.5, len(cells))]
    return TensorCase(seed=seed, dims=dims, cells=cells, vals=vals,
                      ordering=ordering)


def constrain_case(dst_format, case: TensorCase) -> TensorCase:
    """Restrict a case to inputs the destination format can represent.

    Skyline (SKY) stores each row from its first nonzero through the
    diagonal and is documented lower-triangular-only — entries above
    the diagonal are dropped (deterministically, preserving the
    reproducer).  Every other destination takes arbitrary input.
    """
    if dst_format.name != "SKY":
        return case
    kept = [(c, v) for c, v in zip(case.cells, case.vals) if c[1] <= c[0]]
    return TensorCase(
        seed=case.seed, dims=case.dims,
        cells=[c for c, _ in kept], vals=[v for _, v in kept],
        ordering=case.ordering, dtype=case.dtype,
    )


# ----------------------------------------------------------------------
# pair enumeration


def _pair_token(src, dst) -> str:
    return f"{src.name.lower()}_{dst.name.lower()}"


def streamable_pair_names() -> List[str]:
    """Every ``src_dst`` token the streaming executor covers."""
    from .convert.streamed import streamable
    from .formats import get_format, parse_format_spec

    pairs = []
    for src_name, dst_specs in (
        ("COO", ["COO", "CSR", "CSC", "DIA", "ELL", "SKY", "DCSR",
                 "BCSR2x2", "HICOO2"]),
        ("COO3", ["COO3", "CSF"]),
    ):
        src = get_format(src_name)
        for spec in dst_specs:
            dst = parse_format_spec(spec)
            if streamable(src, dst):
                pairs.append(_pair_token(src, dst))
    return pairs


def _resolve_pairs(spec: str):
    from .formats import parse_format_spec

    names = streamable_pair_names() if spec == "all" else [
        token.strip() for token in spec.split(",") if token.strip()
    ]
    pairs = []
    for token in names:
        src_name, _, dst_name = token.partition("_")
        if not dst_name:
            raise SystemExit(
                f"--pairs entries look like 'coo_csr', got {token!r}"
            )
        pairs.append((parse_format_spec(src_name),
                      parse_format_spec(dst_name)))
    return pairs


# ----------------------------------------------------------------------
# the differential check


def _array_map(tensor) -> Dict[str, np.ndarray]:
    out = {f"B{k + 1}_{name}": np.asarray(v)
           for (k, name), v in tensor.arrays.items()}
    out["B_vals"] = np.asarray(tensor.vals)
    return out


def _diff(reference, candidate) -> List[str]:
    """Array-level differences between two tensors (empty if identical)."""
    problems = []
    ref, cand = _array_map(reference), _array_map(candidate)
    for name in sorted(set(ref) | set(cand)):
        a, b = ref.get(name), cand.get(name)
        if a is None or b is None:
            problems.append(f"{name}: present on one side only")
        elif a.dtype != b.dtype:
            problems.append(f"{name}: dtype {a.dtype} vs {b.dtype}")
        elif a.shape != b.shape:
            problems.append(f"{name}: shape {a.shape} vs {b.shape}")
        elif not np.array_equal(a, b):
            where = int(np.flatnonzero(a != b)[0])
            problems.append(
                f"{name}: first mismatch at [{where}]: {a[where]!r} vs "
                f"{b[where]!r}"
            )
    if reference.metadata != candidate.metadata:
        problems.append(
            f"metadata: {reference.metadata} vs {candidate.metadata}"
        )
    return problems


def _native_available() -> bool:
    from .ir.native import detect_toolchain

    try:
        return detect_toolchain() is not None
    except Exception:
        return False


def _run_case(engine, src, dst, case: TensorCase, backends: Sequence[str],
              workdir: str) -> Tuple[Dict[str, List[str]], Set[str]]:
    """Run one case through every applicable backend; returns
    ``({backend: problems}, ran)``: the backends that disagreed with
    scalar, and which of the ``external`` / ``native`` hop kinds the
    ``auto`` column ran.  An unsorted case also adds ``unsorted``, and
    ``unsorted-external`` when the case itself (not its sorted twin)
    ran an external hop."""
    from .convert.streamed import streamable
    from .io.stream import write_stream
    from .storage.build import reference_build
    from .stream import convert_file

    tensor = reference_build(src, case.dims, case.cells, case.vals)
    reference = engine.convert(tensor, dst, backend="scalar")
    failures: Dict[str, List[str]] = {}
    if "vector" in backends:
        got = engine.convert(tensor, dst, backend="vector")
        problems = _diff(reference, got)
        if problems:
            failures["vector"] = problems
    if "native" in backends:
        got = engine.convert(tensor, dst, backend="native")
        problems = _diff(reference, got)
        if problems:
            failures["native"] = problems
    if "streamed" in backends and streamable(src, dst):
        path = os.path.join(workdir, f"case_{case.seed}.bin")
        write_stream(path, case.dims, [c for c in case.columns()[:-1]],
                     case.columns()[-1])
        chunk_nnz = max(1, case.nnz // 3) if case.nnz else 1
        out_dir = os.path.join(workdir, f"out_{case.seed}")
        result = convert_file(path, dst, out_dir, chunk_nnz=chunk_nnz,
                              engine=engine, overwrite=True)
        problems = _diff(reference, result.load())
        if problems:
            failures["streamed"] = problems
        os.unlink(path)
    if "fused" in backends:
        problems = _check_fused(engine, src, dst, case, tensor)
        if problems:
            failures["fused"] = problems
    ran: Set[str] = set()
    if "auto" in backends:
        problems, ran = _check_auto(engine, dst, tensor, reference)
        order = sorted(range(case.nnz), key=case.cells.__getitem__)
        if order != list(range(case.nnz)):
            ran.add("unsorted")
            if "external" in ran:
                ran.add("unsorted-external")
            # the same cells in sorted stream order, so sortedness-gated
            # converters (registered by a user) get admitted too
            twin = reference_build(
                src, case.dims, [case.cells[i] for i in order],
                [case.vals[i] for i in order],
            )
            twin_problems, twin_ran = _check_auto(
                engine, dst, twin,
                engine.convert(twin, dst, backend="scalar"),
            )
            problems += [f"sorted twin: {p}" for p in twin_problems]
            ran |= twin_ran
        if problems:
            failures["auto"] = problems
    return failures, ran


def _check_auto(engine, dst, tensor, reference) -> Tuple[List[str], Set[str]]:
    """The plan auto runs for a bulk-sized tensor with ``tensor``'s
    sampled features, run on ``tensor`` itself.

    At fuzz sizes the router never picks an external converter, so the
    plan is made at ``nnz=1_000_000``: its ``external`` hops then meet
    the execution-time exact check on real, small streams, and its
    ``native`` hops (where the pair's kernel is built) run against
    scalar.  Returns the differences from ``reference`` and which of
    ``external`` and ``native`` ran, as the engine's hop observers saw
    the hops execute (a converter refused at execution reports the
    generated kernel that ran instead).
    """
    from .convert import sample_features

    ran: Set[str] = set()

    def observe(hop, source, result, options, seconds):
        if hop.kind in ("native", "external"):
            ran.add(hop.kind)

    plan = engine.plan(tensor.format, dst, nnz=1_000_000,
                       features=sample_features(tensor))
    engine.add_hop_observer(observe)
    try:
        out = plan.run(tensor)
    finally:
        engine.remove_hop_observer(observe)
    return _diff(reference, out), ran


def _check_fused(engine, src, dst, case: TensorCase, tensor) -> List[str]:
    """Fused-vs-materialized SpMV over the pair (:mod:`repro.compute`).

    Where the pair fuses, ``y = (convert A to dst) @ x`` is computed both
    ways — the fused pipeline that never materializes ``dst``, and the
    materialize-then-compute pipeline — and compared within float
    tolerance (the fused kernel reassociates row sums).  Both are also
    checked against the oracle traversal.
    """
    from .compute.kernels import fusable
    from .compute.reference import spmv_reference
    from .convert.planner import structural_key

    if src.order != 2 or dst.order != 2:
        return []
    if structural_key(src) == structural_key(dst):
        return []  # nothing to fuse: the op runs directly on the source
    if not fusable(src, "spmv", dst):
        return []
    x = np.random.default_rng(case.seed + 1).uniform(0.5, 1.5, case.dims[1])
    fused = engine.plan_compute(src, "spmv", dst, fuse=True, nnz=case.nnz)
    mat = engine.plan_compute(src, "spmv", dst, fuse=False, nnz=case.nnz)
    yf = engine.run_compute_plan(fused, tensor, x=x)
    ym = engine.run_compute_plan(mat, tensor, x=x)
    oracle = spmv_reference(tensor, x)
    problems = []
    if not np.allclose(yf, ym, rtol=1e-9, atol=1e-12):
        where = int(np.argmax(np.abs(yf - ym)))
        problems.append(
            f"spmv fused vs materialized: y[{where}] = {yf[where]!r} vs "
            f"{ym[where]!r}"
        )
    if not np.allclose(yf, oracle, rtol=1e-9, atol=1e-12):
        where = int(np.argmax(np.abs(yf - oracle)))
        problems.append(
            f"spmv fused vs oracle: y[{where}] = {yf[where]!r} vs "
            f"{oracle[where]!r}"
        )
    return problems


DEFAULT_BACKENDS = ("vector", "native", "streamed", "fused", "auto")


def fuzz(pairs: str = "all", cases: int = 25, seed: int = 0,
         budget: Optional[float] = None,
         backends: Sequence[str] = DEFAULT_BACKENDS,
         verbose: bool = True) -> int:
    """Differentially fuzz ``pairs``; returns the number of mismatches.

    ``cases`` random tensors are generated per pair from ``seed`` (one
    case-seed each, so any failure reproduces with ``--cases 1 --seed
    <case seed>``).  ``budget`` caps the wall-clock in seconds — the
    sweep stops cleanly once exceeded, which is how CI bounds it.
    """
    from .convert.engine import ConversionEngine

    backends = tuple(backends)
    if "native" in backends and not _native_available():
        backends = tuple(b for b in backends if b != "native")
        if verbose:
            print("note: no C toolchain, skipping the native backend")
    engine = ConversionEngine()
    started = time.monotonic()
    mismatches = 0
    ran = 0
    external = native = unsorted = unsorted_external = 0
    stop = False
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as workdir:
        for src, dst in _resolve_pairs(pairs):
            if stop:
                break
            order = src.order
            token = _pair_token(src, dst)
            if "auto" in backends and _native_available():
                # build the pair's compiled kernel, so the auto column's
                # bulk-sized plans take native hops where they win
                engine.make_converter(src, dst, backend="native")
            for index in range(cases):
                if budget is not None and (
                    time.monotonic() - started > budget
                ):
                    if verbose:
                        print(
                            f"budget of {budget:.0f}s exhausted after "
                            f"{ran} case(s); stopping"
                        )
                    stop = True
                    break
                case_seed = seed + index
                case = constrain_case(
                    dst, random_tensor_case(case_seed, order=order)
                )
                failures, kinds = _run_case(
                    engine, src, dst, case, backends, workdir
                )
                ran += 1
                external += "external" in kinds
                native += "native" in kinds
                unsorted += "unsorted" in kinds
                unsorted_external += "unsorted-external" in kinds
                if failures:
                    mismatches += 1
                    print(f"MISMATCH {token} seed={case_seed} "
                          f"dims={case.dims} nnz={case.nnz} "
                          f"ordering={case.ordering}")
                    for backend, problems in failures.items():
                        for problem in problems:
                            print(f"  {backend}: {problem}")
                    print(f"REPRO: python -m repro.verify fuzz "
                          f"--pairs {token} --cases 1 "
                          f"--seed {case_seed}")
    if verbose:
        elapsed = time.monotonic() - started
        verdict = "FAIL" if mismatches else "ok"
        if "auto" in backends:
            print(f"auto: {external} of {ran} case(s) ran an external hop")
            print(f"auto: {unsorted_external} of {unsorted} unsorted "
                  f"case(s) ran an external hop")
            print(f"auto: {native} of {ran} case(s) ran a native hop")
        print(f"fuzz: {ran} case(s), {len(backends)} backend(s) "
              f"[{', '.join(backends)}], {mismatches} mismatch(es) "
              f"in {elapsed:.1f}s -- {verdict}")
    return mismatches


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="differential fuzzing across conversion backends",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("fuzz", help="cross-check backends on random input")
    cmd.add_argument("--pairs", default="all",
                     help="comma-separated src_dst tokens, or 'all' for "
                          "every streamable pair (default: all)")
    cmd.add_argument("--cases", type=int, default=25,
                     help="random cases per pair (default 25)")
    cmd.add_argument("--seed", type=int, default=0,
                     help="base seed; case i uses seed+i (default 0)")
    cmd.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                     help="stop cleanly after this much wall-clock")
    cmd.add_argument("--backends", default=",".join(DEFAULT_BACKENDS),
                     help="comma-separated backends to cross-check "
                          f"(default: {','.join(DEFAULT_BACKENDS)})")
    args = parser.parse_args(argv)
    mismatches = fuzz(
        pairs=args.pairs, cases=args.cases, seed=args.seed,
        budget=args.budget,
        backends=[b.strip() for b in args.backends.split(",") if b.strip()],
    )
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
