"""Child process of ``serve_http``: an in-process ``ServiceServer`` and
closed-loop keep-alive HTTP clients, one thread each.

Each round: ``service.cache.clear()``, then a client posts each of its
payloads once (a data-cache **miss**: full plan) and once more (a
**hit**: zero engine work), class by class.  Payloads are distinct, so
nothing coalesces and a miss is always a real conversion.

The gated (untraced) run drives **one** client.  The issue asked for
two, and two were measured first: on the 2-core reference host the
quartile spread over ten runs was 5-6 % for ``op_ms_p50`` / ``ops_per_s``
and 7-9 % for ``peak_rss_mb`` — the latter bimodal (258 vs 278 MB)
because glibc now and then grows a second arena when two server threads
collide on one, and keeps it.  Against 10 % bounds that gates on chance;
with one client the same spreads are 3-4 % and 1.6 %.  Two clients are
still measured, ungated, in the traced run: after one-client rounds that
alternate with rounds replaying the request path as its public calls
(wire decode -> ``service.submit`` -> wire encode, no HTTP), a
two-client phase gives ``serve.concurrency_x``.
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

import gen
import oracle
from common import (
    RoundClock, class_row, emit, geomean, measure_in_child, median, time_reps,
    trace_path, vm_hwm_kb,
)
from metrics import ENGINE_COUNTERS
from spans import Tracer

parent = measure_in_child

CLIENTS = 2
PAYLOADS = 6  # distinct payloads per client per size
#: size name -> (n, stride): ~158 KB and ~3.2 MB request bodies
SIZES = {False: {"small": (1000, 31), "medium": (20_000, 141)},
         True: {"small": (100, 10), "medium": (1000, 31)}}
CLASSES = ("small_miss", "small_hit", "medium_miss", "medium_hit")
#: the order of one round: every payload as a miss, then again as a hit
SECTIONS = (("miss", "small"), ("miss", "medium"), ("hit", "small"),
            ("hit", "medium"))
WANT_STATUS = {"miss": b'"status": "converted"', "hit": b'"status": "cached"'}


class Payload:
    def __init__(self, size: str, raw: gen.Raw, body: bytes) -> None:
        self.size, self.raw, self.body = size, raw, body


def child(args) -> None:
    from repro import ConversionEngine, Tensor
    from repro.formats import get_format
    from repro.serve import ServiceServer, tensor_from_wire, tensor_to_wire

    rng = np.random.default_rng(args.seed)
    coo, csr = get_format("COO"), get_format("CSR")
    sizes = SIZES[args.quick]

    def tensor_of(raw: gen.Raw) -> "Tensor":
        return Tensor(coo, raw.dims, raw.arrays, raw.meta, raw.vals)

    payloads: List[Dict[str, List[Payload]]] = []  # per client, per size
    for _ in range(CLIENTS):
        mine = {}
        for size, (n, m) in sizes.items():
            mine[size] = []
            for _ in range(PAYLOADS):
                raw = gen.coo_matrix(n, m, rng)
                body = json.dumps({"to": "CSR",
                                   "tensor": tensor_to_wire(tensor_of(raw))})
                mine[size].append(Payload(size, raw, body.encode()))
        payloads.append(mine)

    server = ServiceServer(port=0, engine=ConversionEngine(),
                           batch_window=0.0).start()
    try:
        _serve(args, server, payloads, tensor_of, tensor_from_wire,
               tensor_to_wire, csr)
    finally:
        server.stop()


def _serve(args, server, payloads, tensor_of, tensor_from_wire,
           tensor_to_wire, csr) -> None:
    service = server.service
    problems: List[str] = []
    failed = {c: 0 for c in CLASSES}

    def connect() -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)

    def post(conn, payload: Payload, kind: str) -> Tuple[float, bytes, bool]:
        """One operation: POST /convert and read the whole response."""
        started = time.perf_counter()
        conn.request("POST", "/convert", body=payload.body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - started
        ok = response.status == 200 and WANT_STATUS[kind] in data[-400:]
        return elapsed, data, ok

    def verify(cls: str, payload: Payload, data: bytes) -> None:
        out = tensor_from_wire(json.loads(data)["tensor"])
        found = oracle.check_result(
            out.format.name, out.dims, out.arrays, out.metadata, out.vals,
            payload.raw.coords, payload.raw.sorted_vals)
        if found:
            failed[cls] += 1
            problems.extend(f"{cls}: {p}" for p in found)

    def http_round(conns, samples, keep=None, tracer=None) -> float:
        """One round on ``len(conns)`` client threads; returns its wall
        seconds.  ``keep`` collects (class, payload, body) of the ops the
        oracle checks after the clock has stopped."""
        service.cache.clear()
        gate = threading.Barrier(len(conns) + 1)
        # with two clients, both enter each class together: an operation
        # then only ever competes with the same class on the other
        # connection, where otherwise the two drift out of phase and a
        # small request's latency depends on what it happened to meet
        section = threading.Barrier(len(conns))

        def client(index: int) -> None:
            conn = conns[index]
            gate.wait()
            for kind, size in SECTIONS:
                section.wait()
                for k, payload in enumerate(payloads[index][size]):
                    cls = f"{size}_{kind}"
                    try:
                        if tracer is not None:
                            with tracer.span("http.post", cls=cls):
                                elapsed, data, ok = post(conn, payload, kind)
                        else:
                            elapsed, data, ok = post(conn, payload, kind)
                    except (OSError, http.client.HTTPException) as exc:
                        elapsed, data, ok = 0.0, b"", False
                        problems.append(f"{cls}: {type(exc).__name__}: {exc}")
                        conns[index] = conn = connect()
                    samples[cls].append(elapsed * 1e3)
                    if not ok:
                        failed[cls] += 1
                        if data:
                            problems.append(f"{cls}: bad answer {data[-200:]!r}")
                    elif keep is not None and k == keep[0]:
                        keep[1].append((cls, payload, data))
            gate.wait()

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(conns))]
        for thread in threads:
            thread.start()
        gate.wait()
        started = time.perf_counter()
        gate.wait()
        wall = time.perf_counter() - started
        for thread in threads:
            thread.join()
        return wall

    def phase(clients: int, seconds: float, samples, tracer=None,
              between=None) -> Tuple[float, int]:
        """HTTP rounds for ``seconds``; first/last ops oracle-checked."""
        conns = [connect() for _ in range(clients)]
        wall = 0.0  # the rounds alone: barrier to barrier
        clock = RoundClock(seconds)
        for index, final in clock:
            # the first op of every class in round 0, the last in the final
            keep = (0 if index == 0 else PAYLOADS - 1, [])
            check = index == 0 or final
            wall += http_round(conns, samples, keep if check else None, tracer)
            with clock.stopped():
                for cls, payload, data in keep[1]:
                    verify(cls, payload, data)
                if between is not None:
                    between()
                gc.collect()
        for conn in conns:
            conn.close()
        return wall, clock.rounds

    # -- warm-up: every payload once as a miss, once as a hit -------------
    warm = {c: [] for c in CLASSES}
    http_round([connect()], warm)
    http_round([connect()], warm)
    failed = {c: 0 for c in CLASSES}  # the warm-up is not part of the run
    if args.mode == "setup":
        emit({"measure_started_at": time.time()})
        return

    samples = {c: [] for c in CLASSES}
    snap0 = service.snapshot()
    gc.collect()
    gc.freeze()
    gc.disable()
    measure_started_at = time.time()
    tracer = Tracer() if args.trace else None
    replay_samples: Dict[str, List[float]] = {}

    def replay_round() -> None:
        """The request path as its public calls, no HTTP; mirrors a round:
        cache cleared, each payload submitted as a miss, then as a hit."""
        service.cache.clear()
        for kind, size in SECTIONS:
            for payload in payloads[0][size]:
                cls = f"{size}_{kind}"
                with tracer.span("replay", cls=cls):
                    with tracer.span("wire.decode"):
                        tensor = tensor_from_wire(
                            json.loads(payload.body)["tensor"])
                    with tracer.span(f"service.submit_{kind}"):
                        result = server.call(service.submit(tensor, "CSR"))
                    with tracer.span("wire.encode"):
                        json.dumps({"tensor": tensor_to_wire(result.tensor),
                                    "status": result.status})

    if args.trace:
        wall, rounds = phase(1, args.seconds * 0.4, samples, tracer, replay_round)
        one_client = sum(len(v) for v in samples.values()) / wall
        pair = {c: [] for c in CLASSES}
        pair_wall, _ = phase(CLIENTS, args.seconds * 0.2, pair)
        two_clients = sum(len(v) for v in pair.values()) / pair_wall
    else:
        wall, rounds = phase(1, args.seconds, samples)
    peak_kb = vm_hwm_kb()
    snap1 = service.snapshot()
    gc.enable()

    def delta(section: str, key: str) -> int:
        return snap1[section][key] - snap0[section][key]

    counts = {f"engine.{k}": delta("engine", k) for k in ENGINE_COUNTERS}
    service_counts = {
        "service.data_hits": delta("counters", "data_hits"),
        "service.full_conversions": delta("counters", "full_conversions"),
        "service.coalesced": delta("counters", "coalesced"),
        "service.errors": delta("counters", "errors"),
        "service.quota_rejections": delta("counters", "quota_rejections"),
        "datacache.evictions": delta("data_cache", "evictions"),
    }
    ops = sum(len(v) for v in samples.values())
    record = {
        "measure_started_at": measure_started_at,
        "wall_s": wall, "ops": ops, "rounds": rounds,
        "failed": sum(failed.values()), "problems": problems[:10],
        "vm_hwm_kb": peak_kb,
        "classes": {c: class_row(samples[c], failed[c],
                                 impl="1 client")
                    for c in CLASSES},
        "counts": {**counts, **service_counts},
    }
    if not args.trace:
        emit(record)
        return

    # -- per-layer ---------------------------------------------------------
    layers: Dict[str, Dict[str, float]] = {}

    def put(metric: str, cls: str, value: float) -> None:
        layers.setdefault(metric, {})[cls] = value

    for cls in CLASSES:
        kind = cls.split("_")[1]
        decode = median(tracer.durations_us("wire.decode", cls)) / 1e3
        submit = median(tracer.durations_us(f"service.submit_{kind}", cls)) / 1e3
        encode = median(tracer.durations_us("wire.encode", cls)) / 1e3
        put("wire.decode_ms", cls, decode)
        put(f"service.submit_{kind}_ms", cls, submit)
        put("wire.encode_ms", cls, encode)
        put("http.overhead_ms", cls,
            record["classes"][cls]["p50_ms"] - decode - submit - encode)
    reps = 30
    for size, (payload, *_) in payloads[0].items():  # one of each size
        tensor = tensor_of(payload.raw)
        digest = tensor.content_digest()
        server.call(service.submit(tensor, "CSR"))  # both entries cached
        put("tensor.digest_us", size, median(time_reps(
            lambda: tensor_of(payload.raw).content_digest(), reps)) * 1e6)
        converted = service.cache.get(digest, csr)
        put("datacache.get_us", size, median(time_reps(
            lambda: service.cache.get(digest, csr), reps)) * 1e6)
        put("datacache.put_us", size, median(time_reps(
            lambda: service.cache.put(digest, csr, converted), reps)) * 1e6)
    conn = connect()

    def healthz() -> None:
        conn.request("GET", "/healthz")
        conn.getresponse().read()

    healthz()
    record["layers"] = {
        metric: (median(list(per.values())) if metric == "http.overhead_ms"
                 else geomean(per.values()))
        for metric, per in layers.items()
    }
    record["layers"].update({
        "http.healthz_ms": median(time_reps(healthz, reps)) * 1e3,
        "serve.concurrency_x": two_clients / one_client,
        "datacache.bytes": snap1["data_cache"]["bytes"],
        "trace.op_ms_p50": geomean(
            median(tracer.durations_us("http.post", c)) / 1e3 for c in CLASSES),
    })
    conn.close()
    record["layer_classes"] = layers
    record["self_time_us"] = tracer.self_time_us()
    record["extra"] = {"ops_per_s_by_clients": {"1": one_client,
                                                "2": two_clients}}
    tracer.dump(trace_path(args.workload))
    emit(record)
