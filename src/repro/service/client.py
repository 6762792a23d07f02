"""Async client for the campaign service (stdlib asyncio streams).

The load benchmark drives thousands of concurrent submissions through
this; it is also the reference consumer of the API contract.  One
:class:`ServiceClient` opens one connection per request (the server
keeps connections alive, but independent requests from thousands of
simulated users are the traffic shape under test), except for
:meth:`events`, which holds its connection open to consume the chunked
ledger stream.

Synchronous callers (tests, CLIs) can wrap any coroutine with
:func:`run_sync`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator

__all__ = ["ServiceClient", "ServiceHTTPError", "run_sync"]


class ServiceHTTPError(RuntimeError):
    """Non-2xx response from the campaign service."""

    def __init__(self, code: int, payload: Any):
        super().__init__(f"HTTP {code}: {payload}")
        self.code = code
        self.payload = payload


class ServiceClient:
    """Minimal async HTTP/JSON client bound to one server address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8047):
        self.host = host
        self.port = port

    # -- one-shot requests ---------------------------------------------------
    async def _request(
        self, method: str, path: str, body: Any = None
    ) -> tuple[int, Any]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            blob = b"" if body is None else json.dumps(body).encode()
            writer.write(
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(blob)}\r\n"
                f"Connection: close\r\n\r\n".encode() + blob
            )
            await writer.drain()
            code, headers = await _read_head(reader)
            payload = await _read_body(reader, headers)
            return code, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _json(self, method: str, path: str, body: Any = None) -> Any:
        code, payload = await self._request(method, path, body)
        if code >= 400:
            raise ServiceHTTPError(code, payload)
        return payload

    async def submit(
        self, spec: dict, tenant: str = "default", priority: float = 0.0
    ) -> dict:
        return await self._json(
            "POST", "/campaigns", {"spec": spec, "tenant": tenant, "priority": priority}
        )

    async def status(self, cid: str) -> dict:
        return await self._json("GET", f"/campaigns/{cid}/status")

    async def result(self, cid: str, timeout: float = 300.0) -> dict:
        return await self._json("GET", f"/campaigns/{cid}/result?timeout={timeout}")

    async def cancel(self, cid: str) -> dict:
        return await self._json("DELETE", f"/campaigns/{cid}")

    async def stats(self) -> dict:
        return await self._json("GET", "/stats")

    async def healthz(self) -> dict:
        return await self._json("GET", "/healthz")

    async def list_campaigns(self) -> list:
        return await self._json("GET", "/campaigns")

    # -- the event stream ----------------------------------------------------
    async def events(
        self, cid: str, offset: int = 0, follow: bool = True
    ) -> AsyncIterator[dict]:
        """Yield ledger records as they land, until the campaign settles.

        ``offset`` resumes a previously torn read: pass the byte cursor
        from the last record's ``_offset`` key (attached to every yielded
        record) and no event is lost or duplicated across reconnects.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(
                f"GET /campaigns/{cid}/events?offset={offset}"
                f"&follow={'1' if follow else '0'} HTTP/1.1\r\n"
                f"Host: {self.host}\r\nConnection: close\r\n\r\n".encode()
            )
            await writer.drain()
            code, headers = await _read_head(reader)
            if code >= 400:
                raise ServiceHTTPError(code, await _read_body(reader, headers))
            cursor = offset
            async for chunk in _iter_chunks(reader):
                for line in chunk.decode("utf-8", errors="replace").splitlines():
                    if not line.strip():
                        continue
                    cursor += len(line.encode()) + 1
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    rec["_offset"] = cursor
                    yield rec
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# -- wire helpers -----------------------------------------------------------


async def _read_head(reader: asyncio.StreamReader) -> tuple[int, dict[str, str]]:
    status = await reader.readline()
    parts = status.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line {status!r}")
    code = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return code, headers


async def _read_body(reader: asyncio.StreamReader, headers: dict[str, str]) -> Any:
    if headers.get("transfer-encoding", "").lower() == "chunked":
        raw = b"".join([chunk async for chunk in _iter_chunks(reader)])
    else:
        length = int(headers.get("content-length", 0) or 0)
        raw = await reader.readexactly(length) if length else b""
    if not raw:
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return raw


async def _iter_chunks(reader: asyncio.StreamReader) -> AsyncIterator[bytes]:
    """Decode HTTP/1.1 chunked transfer encoding."""
    while True:
        size_line = await reader.readline()
        if not size_line:
            return  # torn stream: treat like EOF, caller resumes by offset
        try:
            size = int(size_line.strip().split(b";")[0], 16)
        except ValueError:
            return
        if size == 0:
            await reader.readline()  # trailing CRLF after the last chunk
            return
        chunk = await reader.readexactly(size)
        await reader.readexactly(2)  # CRLF after each chunk
        yield chunk


def run_sync(coro):
    """Run one client coroutine from synchronous code."""
    return asyncio.run(coro)
