"""The serving tier: request handling, protocols, byte-identity."""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.core import SquidConfig, SquidSystem
from repro.datasets import adult
from repro.serve import (
    DiscoveryServer,
    encode_response,
    parse_examples,
    sequential_response,
    serve_stdio,
    start_http_server,
)
from repro.sql.engine import AsyncExecutionBackend

GOOD_EXAMPLES = ["Resident 000001", "Resident 000002"]


@pytest.fixture(scope="module")
def adult_squid():
    db = adult.generate(adult.AdultSize.small())
    return SquidSystem.build(db, adult.metadata(), SquidConfig())


@pytest.fixture(scope="module")
def server(adult_squid):
    server = DiscoveryServer(adult_squid, jobs=2)
    yield server
    server.close()


def strip_timing(response):
    response = dict(response)
    response.pop("seconds", None)
    return response


class TestParsing:
    def test_examples_string_and_list(self):
        assert parse_examples("A; B ;;C") == ["A", "B", "C"]
        assert parse_examples(["A", " B "]) == ["A", "B"]

    def test_examples_invalid(self):
        for raw in (None, 42, "", [" "]):
            with pytest.raises(ValueError):
                parse_examples(raw)

    def test_encode_is_canonical(self):
        assert encode_response({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'


class TestHandler:
    def test_ok_response_shape(self, server):
        response = asyncio.run(
            server.handle({"id": 3, "examples": GOOD_EXAMPLES, "limit": 2})
        )
        assert response["ok"] and response["id"] == 3
        assert response["entity"] == "adult"
        assert "SELECT" in response["sql"] and "SELECT" in response["original_sql"]
        assert len(response["rows"]) == 2 <= response["row_count"]
        assert response["seconds"] > 0

    def test_lookup_miss_is_an_error_response(self, server):
        response = asyncio.run(
            server.handle({"id": "x", "examples": ["nobody-here"]})
        )
        assert not response["ok"]
        assert "ExampleLookupError" in response["error"]
        assert response["id"] == "x"

    def test_bad_json_line(self, server):
        response = asyncio.run(server.handle_line("{not json"))
        assert not response["ok"]

    def test_negative_limit_rejected(self, server):
        response = asyncio.run(
            server.handle({"examples": GOOD_EXAMPLES, "limit": -1})
        )
        assert not response["ok"] and "limit" in response["error"]

    def test_stats_snapshot_merges_layers(self, server):
        asyncio.run(server.handle({"examples": GOOD_EXAMPLES}))
        stats = server.stats_snapshot()
        assert stats["requests"] >= 1
        assert "p95_ms" in stats and "pool_workers" in stats
        assert "async_executions" in stats

    def test_stats_snapshot_exposes_engine_counters(self, adult_squid):
        """GET /stats must surface the sharded engine's routing and
        fan-out counters when the system runs a stats-keeping engine."""
        system = SquidSystem(adult_squid.adb, backend="sharded")
        server = DiscoveryServer(system, jobs=1)
        try:
            asyncio.run(server.handle({"examples": GOOD_EXAMPLES}))
            stats = server.stats_snapshot()
            routed = stats["engine_single_blocks"] + stats["engine_sharded_blocks"]
            assert routed > 0
            assert "engine_shard_workers" in stats
        finally:
            server.close()


class TestByteIdentity:
    def test_concurrent_matches_sequential_loop(self, adult_squid, server):
        """≥ 8 concurrent requests answer byte-identically to the
        blocking one-at-a-time reference loop."""
        requests = [
            {"id": i, "examples": GOOD_EXAMPLES}
            if i % 2 == 0
            else {"id": i, "examples": ["Resident 000003", "Resident 000005"]}
            for i in range(8)
        ]
        expected = [
            encode_response(sequential_response(adult_squid, r))
            for r in requests
        ]

        async def burst():
            return await asyncio.gather(*(server.handle(r) for r in requests))

        responses = asyncio.run(burst())
        actual = [encode_response(strip_timing(r)) for r in responses]
        assert actual == expected

    def test_error_paths_also_identical(self, adult_squid, server):
        request = {"id": 0, "examples": ["nobody-here"]}
        expected = encode_response(sequential_response(adult_squid, request))
        actual = encode_response(
            strip_timing(asyncio.run(server.handle(request)))
        )
        assert actual == expected


class TestStdio:
    def test_invalid_max_pending(self, server):
        with pytest.raises(ValueError):
            asyncio.run(
                serve_stdio(
                    server, stdin=io.StringIO(""), stdout=io.StringIO(),
                    max_pending=0,
                )
            )

    def test_json_lines_roundtrip(self, server):
        lines = [
            json.dumps({"id": 1, "examples": GOOD_EXAMPLES, "limit": 1}),
            "# a comment",
            "",
            json.dumps({"id": 2, "examples": ["nobody-here"]}),
        ]
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        served = asyncio.run(serve_stdio(server, stdin=stdin, stdout=stdout))
        assert served == 2
        responses = {
            r["id"]: r
            for r in map(json.loads, stdout.getvalue().splitlines())
        }
        assert responses[1]["ok"] and responses[1]["rows"]
        assert not responses[2]["ok"]


class TestHttp:
    def test_http_routes(self, server):
        async def scenario():
            http = await start_http_server(server)
            port = http.sockets[0].getsockname()[1]

            async def talk(raw: bytes):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(raw)
                await writer.drain()
                data = await reader.read()
                writer.close()
                await writer.wait_closed()
                head, _, body = data.partition(b"\r\n\r\n")
                status = head.split(b"\r\n")[0].decode()
                return status, json.loads(body) if body else None

            payload = json.dumps(
                {"id": 5, "examples": GOOD_EXAMPLES, "limit": 1}
            ).encode()
            post = (
                b"POST /discover HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            status, body = await talk(post)
            assert status == "HTTP/1.1 200 OK" and body["ok"]
            assert body["id"] == 5 and len(body["rows"]) == 1

            status, body = await talk(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert status == "HTTP/1.1 200 OK" and body == {"ok": True}

            status, body = await talk(
                b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert status == "HTTP/1.1 200 OK" and body["requests"] >= 1

            status, body = await talk(
                b"GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert status == "HTTP/1.1 404 Not Found"

            status, body = await talk(
                b"GET /discover HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert status == "HTTP/1.1 405 Method Not Allowed"

            status, body = await talk(
                b"POST /discover HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: abc\r\n\r\n"
            )
            assert status == "HTTP/1.1 400 Bad Request"

            status, body = await talk(
                b"POST /discover HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            assert status == "HTTP/1.1 400 Bad Request"

            http.close()
            await http.wait_closed()

        asyncio.run(scenario())


class TestAsyncBackend:
    def test_single_flight_coalesces(self, adult_squid):
        backend = AsyncExecutionBackend(adult_squid.backend, max_workers=2)
        result = adult_squid.discover(GOOD_EXAMPLES)

        async def burst():
            return await asyncio.gather(
                *(backend.execute(result.query) for _ in range(6))
            )

        results = asyncio.run(burst())
        reference = adult_squid.backend.execute(result.query)
        assert all(r.as_set() == reference.as_set() for r in results)
        stats = backend.stats()
        # six concurrent awaiters, at least one coalesced into a shared
        # flight (scheduling may let an early one finish first)
        assert stats["async_single_flight_hits"] >= 1
        assert stats["async_executions"] + stats["async_single_flight_hits"] == 6
        assert stats["async_inflight"] == 0
        backend.close()

    def test_invalid_width(self, adult_squid):
        with pytest.raises(ValueError):
            AsyncExecutionBackend(adult_squid.backend, max_workers=0)

    def test_cancelled_leader_does_not_poison_followers(self, adult_squid):
        backend = AsyncExecutionBackend(adult_squid.backend, max_workers=2)
        result = adult_squid.discover(GOOD_EXAMPLES)

        async def scenario():
            leader = asyncio.ensure_future(backend.execute(result.query))
            await asyncio.sleep(0)  # leader registers its flight
            follower = asyncio.ensure_future(backend.execute(result.query))
            await asyncio.sleep(0)  # follower coalesces onto it
            leader.cancel()
            return await follower

        # the follower was not cancelled, so it must still get an answer
        # (either from the finished flight or by re-executing itself)
        response = asyncio.run(scenario())
        reference = adult_squid.backend.execute(result.query)
        assert response.as_set() == reference.as_set()
        assert backend.stats()["async_inflight"] == 0
        backend.close()
