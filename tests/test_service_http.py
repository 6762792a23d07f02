"""HTTP round trips against a live ServerThread.

Every test boots the real stack — CampaignService, asyncio server in
its own thread, ServiceClient over a loopback socket — because the
contract under test is the wire protocol: status codes, dedup semantics
(201 vs 200), the chunked event stream surviving torn reads, and the
server staying healthy when clients vanish mid-response.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket

import pytest

from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceHTTPError,
)
from repro.service.client import run_sync


def sleep_spec(long_s=0.05):
    return {
        "builder": "sleep",
        "kwargs": {"n_long": 2, "n_short": 2, "long_s": long_s, "short_s": 0.01},
    }


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    wd = tmp_path_factory.mktemp("service-http")
    with ServerThread(
        wd, ServiceConfig(workers=2, pool="thread", window=4)
    ) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


class TestRequestResponse:
    def test_healthz(self, client):
        out = run_sync(client.healthz())
        assert out["ok"] is True

    def test_submit_then_result(self, client):
        async def flow():
            sub = await client.submit(sleep_spec(0.03), tenant="alice")
            assert sub["created"] in (True, False)
            res = await client.result(sub["id"], timeout=60)
            return sub, res

        sub, res = run_sync(flow())
        assert res["state"] == "done"
        assert res["ready"] is True
        assert res["counts"]["done"] == res["n_tasks"]
        assert all(isinstance(p, str) for p in res["artifact_files"].values())

    def test_duplicate_submit_is_200_not_201(self, server):
        async def flow():
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                body = json.dumps({"spec": sleep_spec(0.04)}).encode()
                req = (
                    f"POST /campaigns HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                ).encode() + body
                writer.write(req)
                await writer.drain()
                status = await reader.readline()
                return int(status.split()[1])
            finally:
                writer.close()
                await writer.wait_closed()

        first = run_sync(flow())
        second = run_sync(flow())
        assert first == 201
        assert second == 200

    def test_unknown_campaign_404(self, client):
        with pytest.raises(ServiceHTTPError) as e:
            run_sync(client.status("deadbeef"))
        assert e.value.code == 404

    def test_bad_spec_400_with_reason(self, client):
        with pytest.raises(ServiceHTTPError) as e:
            run_sync(client.submit({"builder": "ga", "kwargs": {"nope": 1}}))
        assert e.value.code == 400
        assert "nope" in str(e.value.payload)

    @pytest.mark.parametrize(
        "kwargs, reason",
        [
            ({"solver_mode": "nonsense"}, "solver_mode"),
            ({"solver_mode": "distributed", "dist_transport": "bogus"}, "dist_transport"),
            ({"solver_mode": "distributed", "dist_ranks": 0}, "dist_ranks"),
            ({"masses": [0]}, "masses"),
            ({"dims": [4, 4, 4]}, "dims"),
            ({"dims": [3, 4, 4, 8]}, "dims"),
            ({"t_snk": 99}, "t_snk"),
            ({"shifts": [0.1]}, "shifts"),
            ({"masses": []}, "masses"),
            ({"tol": 0.0}, "tol"),
            ({"tol": -1.0}, "tol"),
            ({"tol": float("nan")}, "tol"),
            ({"tol": float("inf")}, "tol"),
            ({"max_iter": 0}, "max_iter"),
            ({"scale": -0.1}, "scale"),
            ({"scale": float("nan")}, "scale"),
            ({"scale": float("inf")}, "scale"),
        ],
        ids=[
            "solver_mode", "dist_transport", "dist_ranks",
            "zero_mass", "three_dims", "odd_extent", "t_snk", "shifts",
            "no_masses", "zero_tol", "negative_tol", "nan_tol", "inf_tol",
            "zero_max_iter", "negative_scale", "nan_scale", "inf_scale",
        ],
    )
    def test_bad_solver_spec_400_before_any_task(self, client, kwargs, reason):
        """A spec no worker can run or that solves nothing — a solver
        setting, a lattice, a mass list or a gauge scale the physics
        rejects, a removed knob — is refused at admission, not discovered
        by the first task that runs it."""
        with pytest.raises(ServiceHTTPError) as e:
            run_sync(client.submit({"builder": "ga", "kwargs": kwargs}))
        assert e.value.code == 400
        assert reason in str(e.value.payload)

    def test_non_dict_body_400(self, client):
        with pytest.raises(ServiceHTTPError) as e:
            run_sync(client._json("POST", "/campaigns", [1, 2, 3]))
        assert e.value.code == 400

    def test_unknown_route_404_and_bad_method_405(self, client):
        with pytest.raises(ServiceHTTPError) as e:
            run_sync(client._json("GET", "/nope"))
        assert e.value.code == 404
        with pytest.raises(ServiceHTTPError) as e:
            run_sync(client._json("PUT", "/campaigns"))
        assert e.value.code == 405

    @pytest.mark.parametrize(
        "declared, code",
        [("999999999", 413), ("abc", 400), ("-5", 400), ("1_0", 400)],
    )
    def test_bad_content_length_refused_before_the_body(self, server, client, declared, code):
        async def flow():
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(
                    f"POST /campaigns HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {declared}\r\n\r\n".encode()
                )
                await writer.drain()
                # The server answers and closes: the body is never read.
                head = await asyncio.wait_for(reader.read(), 10)
                return int(head.split()[1])
            finally:
                writer.close()
                await writer.wait_closed()

        assert run_sync(flow()) == code
        assert run_sync(client.healthz())["ok"] is True

    def test_oversize_header_block_refused_431(self, server, client):
        """10 000 header lines are answered 431 and the connection is
        closed without reading the rest; the server stays healthy."""
        pad = "".join(f"X-Pad-{i:05d}: y\r\n" for i in range(10_000))
        request = f"GET /healthz HTTP/1.1\r\nHost: x\r\n{pad}\r\n".encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            with contextlib.suppress(ConnectionError):
                sock.sendall(request)  # the server may close before the end
            status = sock.recv(64)
        assert status.split()[1] == b"431"
        assert run_sync(client.healthz())["ok"] is True

    @pytest.mark.parametrize(
        "route, query",
        [
            ("result", "timeout=abc"),
            ("result", "timeout=inf"),
            ("result", "timeout=nan"),
            ("result", "timeout=-1"),
            ("result", "timeout=1e300"),
            ("events", "offset=abc"),
            ("events", "offset=-3"),
            ("events", "offset=1.5"),
            ("events", "offset=99999999999999999999"),
        ],
    )
    def test_bad_numeric_query_refused_400(self, server, client, route, query):
        """A timeout that is not a number >= 0 that a wait accepts, or an
        offset that is not an integer >= 0 that a seek accepts, is the
        client's error, on a live campaign."""
        cid = run_sync(client.submit(sleep_spec(0.01), tenant="numbers"))["id"]
        request = f"GET /campaigns/{cid}/{route}?{query} HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(request.encode())
            status = sock.recv(64)
        assert status.split()[1] == b"400"
        assert run_sync(client.healthz())["ok"] is True

    def test_stats_and_list(self, client):
        stats = run_sync(client.stats())
        assert stats["submissions"] >= 1
        assert "cas" in stats and "tenants" in stats
        listing = run_sync(client.list_campaigns())
        assert isinstance(listing, list) and listing

    def test_cancel_over_http(self, client):
        async def flow():
            sub = await client.submit(sleep_spec(0.5), tenant="canceller")
            out = await client.cancel(sub["id"])
            assert out["state"] in ("cancelling", "cancelled")
            res = await client.result(sub["id"], timeout=30)
            return res

        res = run_sync(flow())
        assert res["state"] == "cancelled"


class TestEventStream:
    def test_stream_carries_full_ledger(self, client):
        async def flow():
            sub = await client.submit(sleep_spec(0.06), tenant="steve")
            events = [e async for e in client.events(sub["id"])]
            res = await client.result(sub["id"], timeout=60)
            return events, res

        events, res = run_sync(flow())
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "campaign_start"
        assert "campaign_finish" in kinds
        assert kinds.count("done") == res["n_tasks"]
        # every record carries the resume cursor
        assert all(e["_offset"] > 0 for e in events)
        assert events == sorted(events, key=lambda e: e["_offset"])

    def test_events_of_unknown_campaign_404(self, client):
        async def flow():
            async for _ in client.events("deadbeef"):
                pass

        with pytest.raises(ServiceHTTPError) as e:
            run_sync(flow())
        assert e.value.code == 404

    def test_torn_read_resumes_without_loss_or_duplication(self, client):
        """Drop the connection mid-stream, reconnect from the cursor,
        and the concatenation equals one uninterrupted read."""

        async def flow():
            sub = await client.submit(sleep_spec(0.07), tenant="flaky")
            cid = sub["id"]
            await client.result(cid, timeout=60)
            # the reference: one complete non-following read
            whole = [e async for e in client.events(cid, follow=False)]
            assert len(whole) >= 4
            # now read a prefix, "lose" the connection, resume by offset
            first: list = []
            async for e in client.events(cid, follow=False):
                first.append(e)
                if len(first) == 2:
                    break  # generator close() tears the connection down
            rest = [
                e
                async for e in client.events(
                    cid, offset=first[-1]["_offset"], follow=False
                )
            ]
            return whole, first + rest

        whole, stitched = run_sync(flow())
        strip = lambda e: {k: v for k, v in e.items() if k != "_offset"}
        assert [strip(e) for e in stitched] == [strip(e) for e in whole]

    def test_early_disconnect_leaves_server_healthy(self, server, client):
        """A client that opens the event stream and slams the socket shut
        must not take the handler, the loop or the service down."""

        async def flow():
            sub = await client.submit(sleep_spec(0.4), tenant="rude")
            cid = sub["id"]
            # open the stream and hard-close without reading the body
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                f"GET /campaigns/{cid}/events HTTP/1.1\r\n"
                f"Host: x\r\n\r\n".encode()
            )
            await writer.drain()
            await reader.readline()  # status line only
            writer.close()  # vanish mid-stream
            # the server must keep serving: cancel and confirm
            await client.cancel(cid)
            res = await client.result(cid, timeout=30)
            health = await client.healthz()
            return res, health

        res, health = run_sync(flow())
        assert res["state"] == "cancelled"
        assert health["ok"] is True


class TestConcurrentClients:
    def test_many_clients_one_solve(self, server):
        """Several concurrent HTTP clients submitting one identical spec
        get one campaign id and identical terminal snapshots."""

        async def flow():
            spec = sleep_spec(0.08)
            clients = [ServiceClient(port=server.port) for _ in range(5)]
            subs = await asyncio.gather(
                *(c.submit(spec, tenant=f"t{i % 2}") for i, c in enumerate(clients))
            )
            assert len({s["id"] for s in subs}) == 1
            assert sum(s["created"] for s in subs) == 1
            results = await asyncio.gather(
                *(c.result(subs[0]["id"], timeout=60) for c in clients)
            )
            return results

        results = run_sync(flow())
        assert all(r["state"] == "done" for r in results)
        assert len({json.dumps(r["artifacts"], sort_keys=True) for r in results}) == 1
