"""Stdlib HTTP front end for the conversion service.

One :class:`ServiceServer` owns two threads: an asyncio event loop
hosting the :class:`~repro.serve.service.ConversionService`, and a
``ThreadingHTTPServer`` whose handlers bridge into the loop with
``asyncio.run_coroutine_threadsafe``.  Endpoints:

``POST /convert``
    ``{"to": "CSR", "tensor": {...wire...}, "tenant": "default"}`` —
    the tensor travels in the wire encoding of :mod:`repro.serve.wire`;
    the response carries the converted tensor plus how it was served.
``POST /compute``
    ``{"op": "spmv", "tensor": {...wire...}, "to": "CSR", "x": {...},
    "fuse": "auto"}`` — a convert-and-compute pipeline through the
    fusion planner (:mod:`repro.compute`); dense operands and results
    travel as wire array records.  The response's ``fuse`` field says
    whether the destination format was ever materialized.
``POST /plan`` (or ``GET /plan?src=COO&dst=CSR``)
    The PR 5 plan JSON (:meth:`ConversionPlan.to_dict
    <repro.convert.plan.ConversionPlan.to_dict>`) the pair would
    execute under the tenant's policy — replayable anywhere plans load.
``GET /metrics``
    Prometheus text exposition; ``?format=json`` for the raw snapshot.
``GET /healthz``
    Liveness + occupancy document.

Errors map to status codes: malformed payloads 400, unknown paths 404,
quota rejections 429, conversion failures 500 — always with a JSON
``{"error": ...}`` body.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from ..storage.tensor import Tensor
from .service import ConversionService, QuotaError
from .wire import (
    WireError,
    array_from_wire,
    array_to_wire,
    tensor_from_wire,
    tensor_to_wire,
)

__all__ = ["ServiceServer"]

#: Largest request body the front end will read, as a guard against
#: unbounded allocation before tenant quotas even see the request.
MAX_BODY_BYTES = 1 << 30


class _BadRequest(ValueError):
    pass


class ServiceServer:
    """The service plus its HTTP listener, as one start/stop unit.

    ``service_kwargs`` pass through to :class:`ConversionService`.
    ``start()`` returns once both threads are serving (``port`` then
    holds the bound port — pass ``port=0`` for an ephemeral one);
    ``stop()`` tears everything down.  Usable as a context manager::

        with ServiceServer(port=0, cache_bytes=64 << 20) as server:
            requests.post(f"http://127.0.0.1:{server.port}/convert", ...)
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8742,
                 **service_kwargs) -> None:
        self.host = host
        self.port = port
        self._service_kwargs = service_kwargs
        self.service: Optional[ConversionService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._http: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ServiceServer":
        ready = threading.Event()
        boot_error: List[BaseException] = []

        def run_loop() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def boot() -> None:
                # the service wants a *running* loop at construction
                self.service = ConversionService(**self._service_kwargs)

            try:
                loop.run_until_complete(boot())
            except BaseException as exc:  # surfaced by start()
                boot_error.append(exc)
                return
            finally:
                ready.set()
            loop.run_forever()
            loop.run_until_complete(self.service.close())
            loop.close()

        self._loop_thread = threading.Thread(
            target=run_loop, name="repro-serve-loop", daemon=True
        )
        self._loop_thread.start()
        ready.wait()
        if boot_error:
            self._loop = None
            raise boot_error[0]

        server = self

        class Handler(_ServiceHandler):
            owner = server

        self._http = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._http.server_address[1]
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def stop(self) -> None:
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http_thread.join(timeout=10)
            self._http = None
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=10)
            self._loop = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the bridge into the loop ---------------------------------------
    def call(self, coro, timeout: float = 300.0):
        """Run a coroutine on the service loop from any thread."""
        if self._loop is None:
            raise RuntimeError("server is not running")
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop
        ).result(timeout)


class _ServiceHandler(BaseHTTPRequestHandler):
    owner: ServiceServer  # bound by ServiceServer.start
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the metrics surface replaces per-request stderr logging

    def _send_json(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _BadRequest("request body required")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise _BadRequest(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except _BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
        except WireError as exc:
            self._send_json(400, {"error": str(exc)})
        except QuotaError as exc:
            self._send_json(429, {"error": str(exc)})
        except (ValueError, KeyError) as exc:
            self._send_json(400, {"error": str(exc)})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # conversion/internal failure
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- endpoints -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        if url.path == "/healthz":
            self._dispatch(self._healthz)
        elif url.path == "/metrics":
            self._dispatch(lambda: self._metrics(parse_qs(url.query)))
        elif url.path == "/plan":
            self._dispatch(
                lambda: self._plan({
                    key: values[-1]
                    for key, values in parse_qs(url.query).items()
                })
            )
        else:
            self._send_json(404, {"error": f"no such endpoint: {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        if url.path == "/convert":
            self._dispatch(self._convert)
        elif url.path == "/compute":
            self._dispatch(self._compute)
        elif url.path == "/plan":
            self._dispatch(lambda: self._plan(self._read_json()))
        else:
            self._send_json(404, {"error": f"no such endpoint: {url.path}"})

    def _healthz(self) -> None:
        service = self.owner.service
        doc = service.health() if service is not None else {"ok": False}
        self._send_json(200 if doc.get("ok") else 503, doc)

    def _metrics(self, query: Dict) -> None:
        service = self.owner.service
        snapshot = service.snapshot() if service is not None else {}
        if query.get("format", [""])[-1] == "json":
            self._send_json(200, snapshot)
            return
        from .metrics import render_prometheus

        self._send_text(200, render_prometheus(snapshot))

    def _plan(self, params: Dict) -> None:
        src = params.get("src")
        dst = params.get("dst")
        if not src or not dst:
            raise _BadRequest("plan needs 'src' and 'dst' format specs")
        nnz = params.get("nnz")
        plan = self.owner.call(self.owner.service.plan(
            src, dst,
            tenant=str(params.get("tenant") or "default"),
            nnz=int(nnz) if nnz is not None else None,
        ))
        self._send_json(200, plan.to_dict())

    def _convert(self) -> None:
        payload = self._read_json()
        dst = payload.get("to")
        if not isinstance(dst, str) or not dst:
            raise _BadRequest("convert needs 'to': a destination format spec")
        blob = payload.get("tensor")
        if blob is None:
            raise _BadRequest("convert needs 'tensor': a wire-encoded tensor")
        tensor = tensor_from_wire(blob)
        tenant = str(payload.get("tenant") or "default")
        result = self.owner.call(
            self.owner.service.submit(tensor, dst, tenant=tenant)
        )
        self._send_json(200, {
            "tensor": tensor_to_wire(result.tensor),
            "status": result.status,
            "pair": list(result.pair),
            "tenant": result.tenant,
            "digest": result.digest,
            "seconds": result.seconds,
            "hops_executed": result.hops_executed,
        })

    def _compute(self) -> None:
        payload = self._read_json()
        op = payload.get("op")
        if not isinstance(op, str) or not op:
            raise _BadRequest("compute needs 'op': spmv, row_reduce or scale")
        blob = payload.get("tensor")
        if blob is None:
            raise _BadRequest("compute needs 'tensor': a wire-encoded tensor")
        tensor = tensor_from_wire(blob)
        dst = payload.get("to")
        if dst is not None and (not isinstance(dst, str) or not dst):
            raise _BadRequest("'to' must be a destination format spec")
        x = None
        if payload.get("x") is not None:
            x = array_from_wire(payload["x"], "x")
        alpha = payload.get("alpha")
        if alpha is not None:
            alpha = float(alpha)
        fuse = payload.get("fuse", "auto")
        if not isinstance(fuse, (str, bool)):
            raise _BadRequest("'fuse' must be auto, fused, materialize or a bool")
        tenant = str(payload.get("tenant") or "default")
        result = self.owner.call(self.owner.service.submit_compute(
            tensor, op, dst, tenant=tenant, x=x, alpha=alpha, fuse=fuse,
        ))
        body = {
            "status": result.status,
            "op": result.op,
            "fuse": result.fuse,
            "pair": list(result.pair),
            "tenant": result.tenant,
            "digest": result.digest,
            "seconds": result.seconds,
            "hops_executed": result.hops_executed,
            "hops_skipped": result.hops_skipped,
        }
        if isinstance(result.result, Tensor):
            body["tensor"] = tensor_to_wire(result.result)
        else:
            body["result"] = array_to_wire(result.result)
        self._send_json(200, body)
