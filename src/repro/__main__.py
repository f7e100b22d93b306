"""Command-line interface.

Usage::

    python -m repro formats                     # list registered formats
    python -m repro codegen CSR DIA             # print the generated routine
    python -m repro codegen COO CSR --backend native    # compiled-C form
    python -m repro plan HASH CSR               # show the conversion plan
    python -m repro plan HASH CSR --json --save plan.json   # serialize it
    python -m repro plan --load plan.json       # replay a saved plan
    python -m repro convert in.mtx --to DIA     # convert a Matrix Market file
    python -m repro convert in.mtx --to CSR --backend native --cache-dir .kernels
    python -m repro convert-file big.mtx --to CSR --out big_csr/  # out-of-core
    python -m repro route HASH CSR --explain    # show the conversion route
    python -m repro stats in.mtx                # attribute-query statistics
    python -m repro verify COO CSR --trials 50  # differential verification
    python -m repro compute spmv COO --to CSR   # fused-pipeline decision
    python -m repro compute spmv COO --to CSR --input in.mtx  # and run it
    python -m repro serve-bench --requests 48   # drive the HTTP service

Formats are given as registry spec strings — any registered name
(``CSR``, ``HASH``...) or a parameterized family instance (``BCSR8x8``,
``HICOO4``).  (The paper's evaluation tables live under ``python -m repro.bench``.)
"""

from __future__ import annotations

import argparse
import time

from .convert import (
    ConversionEngine,
    ConversionPlan,
    default_engine,
    generated_source,
)
from .convert.context import PlanError
from .convert.verify import verify_conversion
from .formats import UnknownFormatError, available_formats, get_format
from .io import MatrixMarketError, read_tensor
from .query import evaluate_query, parse_queries
from .remap import apply_remap, parse_remap


def _format_arg(spec: str):
    """Resolve a CLI format spec, turning lookup failures into exit codes."""
    try:
        return get_format(spec)
    except UnknownFormatError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_formats(_args) -> None:
    for name, fmt in sorted(available_formats().items()):
        levels = ", ".join(level.signature() for level in fmt.levels)
        print(f"{name:6s} remap: {fmt.remap}   levels: [{levels}]")
    print("BCSR<MxN> and HICOO<B> are parameterized (e.g. BCSR4x4, HICOO8).")


def _cmd_codegen(args) -> None:
    src_fmt, dst_fmt = _format_arg(args.src), _format_arg(args.dst)
    if args.backend == "native":
        # print the C translation unit directly — emission is pure, so
        # this works on hosts without a C toolchain
        from .convert.native import plan_native
        from .ir.native import NativeUnsupported

        try:
            print(plan_native(src_fmt, dst_fmt).source)
        except NativeUnsupported as exc:
            raise SystemExit(
                f"{src_fmt.name} -> {dst_fmt.name} has no native lowering: "
                f"{exc}"
            ) from exc
        return
    print(generated_source(src_fmt, dst_fmt, backend=args.backend))


def _engine_arg(args) -> ConversionEngine:
    """The engine a verb runs on: one persisting native kernels under
    ``--cache-dir`` when given, the process default otherwise."""
    if args.cache_dir:
        return ConversionEngine(cache_dir=args.cache_dir)
    return default_engine()


def _read_input(path: str, fmt=None):
    """Read a Matrix Market input file into a tensor, turning a missing
    or malformed file into a one-line exit."""
    try:
        return read_tensor(path, fmt)
    except (OSError, MatrixMarketError) as exc:
        raise SystemExit(f"cannot read input: {exc}") from exc


def _resolve_plan(args, engine, pinned: str, build):
    """The plan a ``plan`` / ``compute`` invocation works on: loaded from
    ``--load FILE`` (replayed as-is, so ``pinned`` — the planning
    arguments, when any was given — is an error) or built by ``build()``;
    then saved (``--save FILE``) and printed (``--json`` or the
    ``explain()`` transcript)."""
    if args.load:
        if pinned:
            raise SystemExit(
                "--load replays the stored plan as-is; it cannot be "
                f"combined with {pinned}"
            )
        try:
            with open(args.load) as handle:
                plan = ConversionPlan.from_json(handle.read(), engine=engine)
        except (OSError, PlanError) as exc:
            raise SystemExit(f"cannot load plan: {exc}") from exc
    else:
        try:
            plan = build()
        except (ValueError, PlanError) as exc:
            raise SystemExit(str(exc)) from exc
    if args.save:
        with open(args.save, "w") as handle:
            handle.write(plan.to_json(indent=2) + "\n")
        print(f"wrote {args.save}")
    print(plan.to_json(indent=2) if args.json else plan.explain())
    return plan


def _print_sources(plan: ConversionPlan) -> None:
    """What each hop of ``plan`` executes: the generated source, or a
    note for hops that are library calls rather than generated code."""
    for hop, source in zip(plan.hops, plan.sources()):
        if source is not None:
            print("\n" + source)
        elif hop.kind == "external":
            print(f"\n# {hop}: registered converter "
                  f"{hop.converter!r}, no generated source")
        else:
            print(f"\n# {hop}: bulk extraction, no generated source")


def _print_levels(tensor) -> None:
    for (k, name), array in sorted(tensor.arrays.items()):
        print(f"  B{k + 1}_{name}: {len(array)} entries")
    for (k, name), value in sorted(tensor.metadata.items()):
        print(f"  B{k + 1}_{name} = {value}")


def _cmd_plan(args) -> None:
    engine = _engine_arg(args)

    def build():
        if not (args.src and args.dst):
            raise SystemExit("plan needs SRC and DST (or --load FILE)")
        return engine.plan(
            _format_arg(args.src), _format_arg(args.dst),
            nnz=args.nnz, backend=args.backend,
        )

    pinned = args.src or args.dst or args.nnz is not None or args.backend
    plan = _resolve_plan(
        args, engine, "SRC/DST, --nnz or --backend" if pinned else "", build
    )
    if args.show_code:
        _print_sources(plan)


def _cmd_convert(args) -> None:
    src_fmt = _format_arg(args.source_format)
    dst_fmt = _format_arg(args.to)
    tensor = _read_input(args.input, src_fmt)
    engine = _engine_arg(args)
    try:
        # one decision, made once: the plan engine.convert() would build
        # for this tensor is the plan that runs
        plan = engine.plan(
            src_fmt, dst_fmt, backend=args.backend, route=args.route,
            nnz=tensor.nnz_stored,
        )
        # report the hops as they executed: a native hop whose kernel
        # cannot be built runs the generated fallback
        ran = []

        def observer(hop, *_):
            ran.append(hop)

        engine.add_hop_observer(observer)
        start = time.perf_counter()
        try:
            out = plan.run(tensor)
        finally:
            engine.remove_hop_observer(observer)
    except (ValueError, PlanError) as exc:
        raise SystemExit(str(exc)) from exc
    elapsed = (time.perf_counter() - start) * 1e3
    out.check()
    print(
        f"{args.input}: {tensor.dims[0]}x{tensor.dims[1]}, {tensor.nnz} nonzeros"
    )
    print(f"{src_fmt.name} -> {dst_fmt.name} in {elapsed:.2f} ms")
    # the engine's own telemetry split (ConversionPlan.routed)
    how = "routed" if plan.routed else "direct"
    print(f"  {how}: " + ", ".join(str(hop) for hop in ran))
    _print_levels(out)
    print(f"  B_vals: {len(out.vals)} entries ({out.nnz} nonzero)")
    if args.cache_dir:
        stats = engine.cache_stats()
        print(
            f"  kernel cache {args.cache_dir}: "
            f"{stats['disk_hits']} disk hit(s), "
            f"{stats['disk_writes']} write(s), "
            f"{stats['compiles']} compile(s)"
        )
    if args.show_code:
        _print_sources(plan)


def _cmd_convert_file(args) -> None:
    from .io.stream import DEFAULT_CHUNK_NNZ, StreamError
    from .stream import convert_file

    try:
        result = convert_file(
            args.input,
            args.to,
            args.out,
            chunk_nnz=args.chunk_nnz or DEFAULT_CHUNK_NNZ,
            engine=default_engine(),
            overwrite=args.overwrite,
        )
    except (StreamError, UnknownFormatError) as exc:
        raise SystemExit(str(exc)) from exc
    dims = "x".join(str(d) for d in result.dims)
    print(f"{args.input}: {dims}, {result.nnz} nonzeros (streamed)")
    print(
        f"COO -> {result.dst_format} in {result.elapsed_seconds * 1e3:.2f} ms "
        f"({result.passes} pass(es), {result.chunks} chunk(s) of "
        f"<= {result.chunk_nnz} nnz)"
    )
    print(f"  wrote {result.out_dir} (memmap level arrays + manifest.json)")
    print(
        f"  peak RSS {result.peak_rss_bytes / 1e6:.1f} MB vs "
        f"{result.source_bytes / 1e6:.1f} MB materialized source"
    )
    if args.show:
        tensor = result.load()
        _print_levels(tensor)
        print(f"  B_vals: {len(tensor.vals)} entries")


def _cmd_route(args) -> None:
    src_fmt = _format_arg(args.src)
    dst_fmt = _format_arg(args.dst)
    engine = default_engine()
    plan = engine.route(src_fmt, dst_fmt, nnz=args.nnz)
    if args.explain:
        print(plan.explain())
        # competitor table: every implementation of the edge in ladder
        # order, with the reason the ladder passed it over
        print(f"competitors for {plan.src.name} -> {plan.dst.name}:")
        for cand in engine.converters(plan.src, plan.dst, nnz=plan.nnz):
            print(f"  {cand.describe()}")
    else:
        hops = ", ".join(plan.backend_per_hop)
        print(f"{plan} ({hops})")


def _cmd_stats(args) -> None:
    tensor = _read_input(args.input)
    dims, coords = tensor.dims, list(tensor.to_coo())
    per_row = evaluate_query(
        parse_queries("select [i] -> count(j) as n", dim_names=["i", "j"])[0],
        coords,
    )
    remapped = apply_remap(parse_remap("(i,j) -> (j-i, i, j)"), coords)
    diagonals = evaluate_query(
        parse_queries("select [k] -> id() as ne", dim_names=["k", "i", "j"])[0],
        remapped,
    )
    print(f"{args.input}: {dims[0]}x{dims[1]}, {len(coords)} nonzeros")
    print(f"nonzero diagonals : {len(diagonals)}")
    print(f"max nnz per row   : {max(per_row.values()) if per_row else 0}")
    dia_pad = 1 - len(coords) / (len(diagonals) * dims[0]) if diagonals else 0.0
    print(f"DIA padding       : {dia_pad:.1%}")


def _cmd_verify(args) -> None:
    src_fmt = _format_arg(args.src)
    dst_fmt = _format_arg(args.dst)
    checked = verify_conversion(
        src_fmt,
        dst_fmt,
        trials=args.trials,
        max_dim=args.max_dim,
        seed=args.seed,
        backend=args.backend,
    )
    print(f"{src_fmt.name} -> {dst_fmt.name}: OK on {checked} randomized inputs")


def _cmd_compute(args) -> None:
    import numpy as np

    engine = _engine_arg(args)

    def build():
        if not (args.op and args.src):
            raise SystemExit("compute needs OP and SRC (or --load FILE)")
        return engine.plan_compute(
            _format_arg(args.src),
            args.op,
            _format_arg(args.to) if args.to else None,
            fuse=args.fuse,
            backend=args.backend,
            nnz=args.nnz,
        )

    pinned = args.op or args.src or args.to or args.nnz is not None
    plan = _resolve_plan(
        args, engine, "OP/SRC, --to or --nnz" if pinned else "", build
    )
    if plan.op is None:
        raise SystemExit(
            f"{args.load} is a conversion plan with no op to compute; "
            "replay it with 'repro plan --load'"
        )
    if args.show_code:
        _print_sources(plan)
    if args.input:
        tensor = _read_input(args.input, plan.src)
        x = None
        if plan.op.name == "spmv":
            rng = np.random.default_rng(args.seed)
            x = rng.uniform(0.5, 1.5, tensor.dims[1])
        start = time.perf_counter()
        result = plan.run(tensor, x=x, alpha=args.alpha)
        elapsed = (time.perf_counter() - start) * 1e3
        print(
            f"\n{args.input}: {plan.op.name} over {plan.src.name} "
            f"[{plan.fuse}] in {elapsed:.2f} ms"
        )
        if isinstance(result, np.ndarray):
            print(f"  result: {len(result)} entries, "
                  f"|y|_1 = {np.abs(result).sum():.6g}")
        else:
            print(f"  result: {result.format.name} tensor, "
                  f"{result.nnz} nonzeros")


def _cmd_serve_bench(args) -> None:
    """Drive a :mod:`repro.serve` HTTP server with concurrent mixed-pair
    load, reporting data-cache hit rate and p50/p99 request latency.

    With ``--check`` this doubles as the CI service smoke: it exits
    nonzero unless ``/healthz`` reports ok, repeated payloads produced a
    nonzero data-cache hit rate, and **every** response is bit-identical
    to a direct ``engine.convert`` of the same payload.
    """
    import json as jsonlib
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    from .bench.table3 import _FORMATS
    from .matrices.synthetic import scattered
    from .serve import ServiceServer
    from .serve.wire import tensor_from_wire, tensor_to_wire
    from .storage.build import reference_build

    pairs = []
    for pair in args.pairs.split(","):
        src_name, _, dst_name = pair.partition("_")
        if not dst_name or src_name not in _FORMATS or dst_name not in _FORMATS:
            raise SystemExit(
                f"unknown pair {pair!r}; use src_dst with formats from "
                f"{', '.join(sorted(_FORMATS))}"
            )
        pairs.append((pair, _FORMATS[src_name], _FORMATS[dst_name]))

    # a few distinct payloads per pair, cycled so repeats hit the cache
    payloads = []
    for index, (pair, src, dst) in enumerate(pairs):
        for variant in range(args.distinct):
            dims, coords, vals = scattered(
                args.size, 4.0, 16, seed=args.seed + 31 * index + variant
            )
            tensor = reference_build(src, dims, coords, vals)
            payloads.append((pair, dst, tensor))

    with ServiceServer(port=0, batch_window=0.0) as server:
        base = f"http://127.0.0.1:{server.port}"

        def fire(shot):
            _, dst, tensor = shot
            body = jsonlib.dumps({
                "to": dst.name, "tensor": tensor_to_wire(tensor),
            }).encode()
            request = urllib.request.Request(
                base + "/convert", data=body,
                headers={"Content-Type": "application/json"},
            )
            started = time.perf_counter()
            with urllib.request.urlopen(request, timeout=120) as response:
                payload = jsonlib.loads(response.read())
            return time.perf_counter() - started, payload

        shots = [payloads[i % len(payloads)] for i in range(args.requests)]
        with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
            outcomes = list(pool.map(fire, shots))

        health = jsonlib.loads(
            urllib.request.urlopen(base + "/healthz", timeout=30).read()
        )
        metrics = jsonlib.loads(
            urllib.request.urlopen(
                base + "/metrics?format=json", timeout=30
            ).read()
        )

    latencies = sorted(seconds for seconds, _ in outcomes)
    statuses: dict = {}
    for _, payload in outcomes:
        statuses[payload["status"]] = statuses.get(payload["status"], 0) + 1
    counters = metrics["counters"]
    served_cheap = (counters["data_hits"] + counters["coalesced"]
                    + counters["prefix_hits"])
    hit_rate = served_cheap / max(counters["responses"], 1)

    def quantile(q: float) -> float:
        return latencies[min(int(q * len(latencies)), len(latencies) - 1)]

    print(f"{len(outcomes)} requests over {len(pairs)} pair(s), "
          f"{args.concurrency} concurrent")
    print("statuses          : "
          + ", ".join(f"{k}={v}" for k, v in sorted(statuses.items())))
    print(f"cache hit rate    : {hit_rate:.1%} "
          f"(data {counters['data_hits']}, coalesced {counters['coalesced']}, "
          f"prefix {counters['prefix_hits']})")
    print(f"engine conversions: {counters['full_conversions']}")
    print(f"latency p50/p99   : {quantile(0.50) * 1e3:.2f} / "
          f"{quantile(0.99) * 1e3:.2f} ms")

    if not args.check:
        return
    problems = []
    if not health.get("ok"):
        problems.append("healthz did not report ok")
    if counters["data_hits"] == 0:
        problems.append("no data-cache hits despite repeated payloads")
    # bit-identity: every response must match a direct engine conversion
    direct_engine = ConversionEngine()
    expected = {}
    for _, payload in outcomes:
        digest = payload["digest"]
        out = tensor_from_wire(payload["tensor"])
        key = (digest, out.format.name)
        if key not in expected:
            source = next(
                tensor for _, _, tensor in payloads
                if tensor.content_digest() == digest
            )
            expected[key] = direct_engine.convert(
                source, out.format
            ).content_digest()
        if out.content_digest() != expected[key]:
            problems.append(
                f"response for {key} differs from direct convert()"
            )
    if problems:
        print(f"\n{len(problems)} service smoke violation(s):")
        for line in problems:
            print(f"  {line}")
        raise SystemExit(1)
    print("\nservice smoke clean: healthy, cache hits observed, every "
          "response bit-identical to direct convert()")


def _add_plan_flags(parser) -> None:
    """The load / save / print flags the ``plan`` and ``compute`` verbs
    share (consumed by :func:`_resolve_plan`)."""
    parser.add_argument("--json", action="store_true",
                        help="print the plan as JSON instead of the transcript")
    parser.add_argument("--save", metavar="FILE", default=None,
                        help="write the plan JSON to FILE")
    parser.add_argument("--load", metavar="FILE", default=None,
                        help="load the plan from FILE instead of planning it")
    parser.add_argument("--nnz", type=int, default=None,
                        help="stored-component count the plan is made for; "
                             "below 4096 no registered converter takes the "
                             "edge (default: 100000)")
    parser.add_argument("--show-code", action="store_true",
                        help="also print the generated source of every hop")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent kernel cache directory the plan's "
                             "engine builds native kernels into / binds "
                             "them from")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("formats", help="list registered formats")

    codegen = sub.add_parser("codegen", help="print a generated routine")
    codegen.add_argument("src")
    codegen.add_argument("dst")
    codegen.add_argument("--backend",
                         choices=["auto", "scalar", "vector", "native"],
                         default="scalar",
                         help="lowering backend (default: scalar, the paper's loops)")

    plan = sub.add_parser(
        "plan", help="show, save or replay the conversion plan for a pair"
    )
    plan.add_argument("src", nargs="?", default=None)
    plan.add_argument("dst", nargs="?", default=None)
    plan.add_argument("--backend",
                      choices=["auto", "scalar", "vector", "native"],
                      default=None, help="lowering backend policy")
    _add_plan_flags(plan)

    convert = sub.add_parser("convert", help="convert a Matrix Market file")
    convert.add_argument("input")
    convert.add_argument("--from", dest="source_format", default="COO")
    convert.add_argument("--to", required=True)
    convert.add_argument("--show-code", action="store_true")
    convert.add_argument("--backend",
                         choices=["auto", "scalar", "vector", "native"],
                         default="auto",
                         help="lowering backend (default: auto)")
    convert.add_argument("--route", choices=["auto", "direct"], default=None,
                         help="routing policy: auto lets the router's ladder "
                              "pick the edge's implementation, direct runs "
                              "the generated kernel (default: auto; an "
                              "explicit --route auto conflicts with an "
                              "explicit non-auto --backend)")
    convert.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent kernel cache: native (compiled C) "
                              "kernels are written here and bound on the "
                              "next run, so warm starts invoke no compiler")

    convert_file = sub.add_parser(
        "convert-file",
        help="out-of-core conversion: stream a file into memmap arrays",
    )
    convert_file.add_argument("input", help="Matrix Market (.mtx/.mtx.gz) or "
                                            "binary coordinate stream")
    convert_file.add_argument("--to", required=True)
    convert_file.add_argument("--out", required=True, metavar="DIR",
                              help="destination directory for the level "
                                   "arrays and manifest")
    convert_file.add_argument("--chunk-nnz", type=int, default=None,
                              help="entries per streamed chunk "
                                   "(default: 1Mi)")
    convert_file.add_argument("--overwrite", action="store_true",
                              help="replace an existing output directory")
    convert_file.add_argument("--show", action="store_true",
                              help="also print the per-level array sizes")

    route = sub.add_parser("route", help="show the conversion route for a pair")
    route.add_argument("src")
    route.add_argument("dst")
    route.add_argument("--explain", action="store_true",
                       help="print the full routing transcript")
    route.add_argument("--nnz", type=int, default=None,
                       help="expected stored-component count the ladder "
                            "plans for (default: 100000)")

    stats = sub.add_parser("stats", help="attribute-query statistics of a file")
    stats.add_argument("input")

    verify = sub.add_parser("verify", help="differentially verify a pair")
    verify.add_argument("src")
    verify.add_argument("dst")
    verify.add_argument("--trials", type=int, default=25)
    verify.add_argument("--max-dim", type=int, default=10)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--backend",
                        choices=["auto", "scalar", "vector", "native"],
                        default="auto", help="lowering backend under test")

    compute = sub.add_parser(
        "compute",
        help="show, save, replay or run a fused convert-and-compute "
             "pipeline",
    )
    compute.add_argument("op", nargs="?", default=None,
                         help="compute op: spmv, row_reduce or scale")
    compute.add_argument("src", nargs="?", default=None,
                         help="source format spec")
    compute.add_argument("--to", default=None, metavar="DST",
                         help="destination format the op would consume "
                              "(omit: the op reads the source directly)")
    compute.add_argument("--fuse", choices=["auto", "fused", "materialize"],
                         default="auto",
                         help="fusion policy (default: auto — fuse wherever "
                              "the op can consume the source directly and "
                              "builds no destination)")
    compute.add_argument("--backend",
                         choices=["auto", "scalar", "vector", "native"],
                         default=None, help="compute-kernel lowering backend")
    _add_plan_flags(compute)
    compute.add_argument("--input", metavar="MTX", default=None,
                         help="also run the pipeline on a Matrix Market "
                              "file (spmv uses a seeded random operand)")
    compute.add_argument("--alpha", type=float, default=None,
                         help="scalar for the 'scale' op")
    compute.add_argument("--seed", type=int, default=0,
                         help="seed for the spmv operand vector")

    serve_bench = sub.add_parser(
        "serve-bench",
        help="drive the HTTP conversion service with concurrent load",
    )
    serve_bench.add_argument("--requests", type=int, default=48,
                             help="total requests to fire (default 48)")
    serve_bench.add_argument("--concurrency", type=int, default=8,
                             help="concurrent client threads (default 8)")
    serve_bench.add_argument("--pairs", default="coo_csr,coo_dia,hash_csr",
                             help="comma-separated src_dst conversion pairs")
    serve_bench.add_argument("--distinct", type=int, default=3,
                             help="distinct payloads per pair (default 3; "
                                  "requests cycle over them, so repeats "
                                  "exercise the data cache)")
    serve_bench.add_argument("--size", type=int, default=150,
                             help="payload matrix dimension (default 150)")
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument("--check", action="store_true",
                             help="exit nonzero unless the service is "
                                  "healthy, the data cache hit, and every "
                                  "response is bit-identical to a direct "
                                  "convert()")

    args = parser.parse_args(argv)
    {
        "formats": _cmd_formats,
        "codegen": _cmd_codegen,
        "plan": _cmd_plan,
        "convert": _cmd_convert,
        "convert-file": _cmd_convert_file,
        "route": _cmd_route,
        "stats": _cmd_stats,
        "verify": _cmd_verify,
        "compute": _cmd_compute,
        "serve-bench": _cmd_serve_bench,
    }[args.command](args)


if __name__ == "__main__":
    main()
