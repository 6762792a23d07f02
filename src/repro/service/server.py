"""The asyncio HTTP/JSON front of the campaign service.

Pure stdlib ``asyncio`` streams — no web framework — speaking enough
HTTP/1.1 for the API surface:

====================================  =====================================
``POST /campaigns``                   submit ``{"spec": ..., "tenant": ...,
                                      "priority": ...}``; 201 on a new
                                      campaign, 200 when deduplicated onto
                                      an existing one, 400 on a bad spec
``GET /campaigns``                    list every known campaign
``GET /campaigns/{id}/status``        one snapshot
``GET /campaigns/{id}/result``        blocks (``?timeout=S``) until the
                                      campaign is terminal, then the full
                                      result with artifact file paths
``GET /campaigns/{id}/events``        chunked stream of the campaign's
                                      write-ahead ledger; ``?offset=N``
                                      resumes a torn read, ``?follow=0``
                                      returns only what exists now
``DELETE /campaigns/{id}``            cooperative cancel
``GET /stats`` · ``GET /healthz``     service counters · liveness
====================================  =====================================

The service driver is synchronous (it multiplexes a worker pool, not
sockets), so every blocking call crosses into the default executor —
the event loop itself only ever parses bytes and formats JSON.  A
client that disconnects mid-stream just cancels its handler task; the
service and every other connection are unaffected.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.service.driver import CampaignService
from repro.service.fingerprint import SpecError

__all__ = ["CampaignServer", "ServerThread"]

_MAX_BODY = 8 * 1024 * 1024
_MAX_HEADER = 16 * 1024  # bytes of header lines after the request line
_REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            431: "Request Header Fields Too Large", 500: "Internal Server Error"}


class _HTTPError(Exception):
    """``(code, message)``: a refused request; the connection closes after the answer."""


def _query_number(query: dict, name: str, default: Any, cast: type, limit: float) -> Any:
    """``cast(query[name])`` (``default`` if absent) when in ``[0, limit]``; else 400."""
    with contextlib.suppress(ValueError):
        if 0 <= (value := cast(query.get(name, default))) <= limit:  # never for nan
            return value
    raise _HTTPError(400, f"bad {name} {query[name]!r}: want a number in [0, {limit}]")


class CampaignServer:
    """Bind a :class:`CampaignService` to an HTTP port."""

    def __init__(self, service: CampaignService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "CampaignServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, query, body = request
                keep_alive = await self._route(writer, method, path, query, body)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # early disconnect: the client's problem, not ours
        except Exception as e:  # defensive: one bad request must not kill the server
            code, msg = e.args if isinstance(e, _HTTPError) else (500, f"{type(e).__name__}: {e}")
            try:
                await self._respond(writer, code, {"error": msg})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, Any] | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        size = 0
        while True:
            h = await reader.readline()
            if h in (b"\r\n", b"\n", b""):
                break
            size += len(h)
            if size > _MAX_HEADER:
                raise _HTTPError(431, f"request header over {_MAX_HEADER} bytes")
            name, _, value = h.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _HTTPError(400, f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > _MAX_BODY:
            raise _HTTPError(413, f"request body over {_MAX_BODY} bytes")
        raw = await reader.readexactly(length) if length else b""
        body: Any = None
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                body = ...  # sentinel: present but unparseable
        parts = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        return method.upper(), parts.path, query, body

    # -- routing -------------------------------------------------------------
    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict,
        body: Any,
    ) -> bool:
        loop = asyncio.get_running_loop()
        svc = self.service
        segs = [s for s in path.split("/") if s]

        if method == "GET" and path == "/healthz":
            return await self._respond(writer, 200, {"ok": True})
        if method == "GET" and path == "/stats":
            return await self._respond(writer, 200, await loop.run_in_executor(None, svc.stats))

        if segs[:1] == ["campaigns"]:
            if method == "POST" and len(segs) == 1:
                if body is ... or not isinstance(body, dict):
                    return await self._respond(
                        writer, 400, {"error": "body must be a JSON object"}
                    )
                try:
                    out = await loop.run_in_executor(
                        None,
                        lambda: svc.submit(
                            body.get("spec"),
                            tenant=str(body.get("tenant", "default")),
                            priority=float(body.get("priority", 0.0)),
                        ),
                    )
                except SpecError as e:
                    return await self._respond(writer, 400, {"error": str(e)})
                return await self._respond(writer, 201 if out["created"] else 200, out)
            if method == "GET" and len(segs) == 1:
                return await self._respond(
                    writer, 200, await loop.run_in_executor(None, svc.list_campaigns)
                )
            if len(segs) >= 2:
                cid = segs[1]
                call = None
                if method == "DELETE" and len(segs) == 2:
                    call = lambda: svc.cancel(cid)
                elif method == "GET" and segs[2:] == ["status"]:
                    call = lambda: svc.status(cid)
                elif method == "GET" and segs[2:] == ["result"]:
                    timeout = _query_number(query, "timeout", 300.0, float, threading.TIMEOUT_MAX)
                    call = lambda: svc.result(cid, timeout)
                if call is not None:
                    out = await loop.run_in_executor(None, call)
                    if out is None:
                        return await self._respond(writer, 404, {"error": "unknown campaign"})
                    return await self._respond(writer, 200, out)
                if method == "GET" and segs[2:] == ["events"]:
                    return await self._stream_events(writer, cid, query)
        return await self._respond(writer, 404 if method == "GET" else 405,
                                   {"error": f"no route {method} {path}"})

    # -- responses -----------------------------------------------------------
    async def _respond(
        self, writer: asyncio.StreamWriter, code: int, payload: Any
    ) -> bool:
        blob = json.dumps(payload, sort_keys=True).encode()
        writer.write(
            f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: keep-alive\r\n\r\n".encode() + blob
        )
        await writer.drain()
        return True

    async def _stream_events(
        self, writer: asyncio.StreamWriter, cid: str, query: dict
    ) -> bool:
        """Chunked-transfer tail of the campaign ledger.

        Each chunk carries complete JSONL lines; the cursor advances only
        past complete lines, so a client that reconnects with the
        ``offset`` it last acknowledged never sees a torn record.
        """
        loop = asyncio.get_running_loop()
        svc = self.service
        offset = _query_number(query, "offset", 0, int, 2**63 - 1)  # the largest file offset
        follow = query.get("follow", "1") not in ("0", "false", "no")
        if await loop.run_in_executor(None, svc.status, cid) is None:
            return await self._respond(writer, 404, {"error": "unknown campaign"})
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        while True:
            lines, offset, terminal = await loop.run_in_executor(
                None, svc.read_events, cid, offset
            )
            if lines:
                blob = ("\n".join(lines) + "\n").encode()
                writer.write(f"{len(blob):x}\r\n".encode() + blob + b"\r\n")
                await writer.drain()
            if not lines:
                if terminal or not follow:
                    break
                await asyncio.sleep(0.05)
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return False  # Connection: close


class ServerThread:
    """Run service + server on a private event loop in a thread.

    The synchronous harness tests and the load benchmark use this to
    stand up a real socket-speaking server without owning an event loop
    themselves::

        with ServerThread(workdir, config) as srv:
            ...  # http://127.0.0.1:{srv.port}
    """

    def __init__(self, workdir, config=None, host: str = "127.0.0.1"):
        self.service = CampaignService(workdir, config)
        self.host = host
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: CampaignServer | None = None

    def start(self) -> "ServerThread":
        self.service.start()
        started = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            server = CampaignServer(self.service, self.host, 0)
            loop.run_until_complete(server.start())
            self._server = server
            self.port = server.port
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(server.close())
                pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
                for t in pending:
                    t.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(target=run, name="campaign-server", daemon=True)
        self._thread.start()
        if not started.wait(timeout=30.0):
            raise RuntimeError("campaign server failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self.service.stop()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
