"""In-process daemon tests: correctness, byte-identity, errors, drain.

The harness (see ``conftest``) runs the real asyncio server on a side
thread and the tests speak the real wire protocol through the blocking
client — nothing is mocked between the socket and the engine.
"""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.cache import global_cache
from repro.core.cost import response_time
from repro.core.exceptions import ProtocolError, ServeError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.serve import protocol
from repro.serve.server import ServeConfig, parse_spec

from tests.serve.conftest import DIMS, NUM_DISKS, SCHEME


def _random_batch(count=32, seed=0):
    rng = np.random.default_rng(seed)
    lower = rng.integers(0, 16, size=(count, 2)).astype(np.int64)
    upper = np.minimum(
        lower + rng.integers(0, 8, size=(count, 2)), 15
    ).astype(np.int64)
    return lower, upper


def _local_times(lower, upper):
    grid = Grid(DIMS)
    engine = global_cache().engine(SCHEME, grid, NUM_DISKS)
    queries = [
        RangeQuery(tuple(int(c) for c in lo), tuple(int(c) for c in up))
        for lo, up in zip(lower, upper)
    ]
    return engine.batch_response_times(
        QueryBatch.from_queries(queries, grid)
    )


class TestSpecParsing:
    def test_round_trip(self):
        spec = parse_spec("hcam:32x16:8")
        assert spec.scheme == "hcam"
        assert spec.dims == (32, 16)
        assert spec.num_disks == 8
        assert spec.render() == "hcam:32x16:8"

    @pytest.mark.parametrize(
        "text",
        ["", "ecc", "ecc:16x16", "ecc:16x16:8:9", "ecc:axb:8",
         "ecc:16x16:x", "ecc:0x16:8", "ecc:16x16:0", ":16x16:8"],
    )
    def test_rejections_are_typed(self, text):
        with pytest.raises(ServeError):
            parse_spec(text)

    def test_config_requires_endpoint_and_specs(self):
        with pytest.raises(ServeError, match="--unix"):
            ServeConfig(specs=[parse_spec("ecc:16x16:8")])
        with pytest.raises(ServeError, match="--spec"):
            ServeConfig(specs=[], unix_path="/tmp/x.sock")


class TestRequests:
    def test_ping_reports_protocol_version(self, serve_harness):
        with serve_harness.client() as client:
            header = client.ping()
        assert header["version"] == protocol.PROTOCOL_VERSION

    def test_batch_is_byte_identical_to_local_engine(self, serve_harness):
        lower, upper = _random_batch(seed=11)
        with serve_harness.client() as client:
            times, shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower, upper
            )
        assert not shed
        np.testing.assert_array_equal(times, _local_times(lower, upper))

    def test_disk_of_matches_allocation_table(self, serve_harness):
        rng = np.random.default_rng(3)
        coords = rng.integers(0, 16, size=(20, 2)).astype(np.int64)
        allocation = global_cache().allocation(
            SCHEME, Grid(DIMS), NUM_DISKS
        )
        with serve_harness.client() as client:
            disks = client.disk_of(SCHEME, DIMS, NUM_DISKS, coords)
        np.testing.assert_array_equal(
            disks, allocation.table[tuple(coords.T)]
        )

    @pytest.mark.parametrize("offset", [1, -1])
    def test_degraded_plan_matches_local_planner(
        self, serve_harness, offset
    ):
        from repro.faults.models import FailStop, FaultScenario
        from repro.replication.allocation import chained_replication
        from repro.replication.planner import plan_query

        allocation = global_cache().allocation(
            SCHEME, Grid(DIMS), NUM_DISKS
        )
        replicated = chained_replication(allocation, offset=offset)
        scenario = FaultScenario(NUM_DISKS, [FailStop((3,))])
        local = plan_query(
            replicated, RangeQuery((0, 0), (7, 7)),
            method="flow", scenario=scenario,
        )
        with serve_harness.client() as client:
            served = client.degraded_plan(
                SCHEME, DIMS, NUM_DISKS, (0, 0), (7, 7), failed=(3,),
                offset=offset,
            )
        assert served["response_time"] == local.response_time
        assert served["num_lost"] == local.num_lost
        assert served["loads"] == [int(v) for v in local.loads]
        assert served["loads"][3] == 0  # the failed disk serves nothing

    def test_stats_reports_counters_and_specs(self, serve_harness):
        with serve_harness.client() as client:
            client.ping()
            stats = client.stats()
        assert stats["specs"] == ["ecc:16x16:8"]
        assert stats["counters"]["serve.requests"] >= 2
        assert stats["draining"] is False
        assert "max_inflight" not in stats


class TestAnsweredOnTheLoop:
    def test_batch_builds_no_query_objects(
        self, serve_harness, monkeypatch
    ):
        # A batch is one engine call on clipped bounds: no RangeQuery
        # per row, and overhanging rows clip exactly as in-process.
        lower, upper = _random_batch(count=64, seed=22)
        upper[::3] += 5
        want = _local_times(lower, upper)
        made = []
        original = RangeQuery.__post_init__

        def counted(query):
            made.append(query)
            original(query)

        monkeypatch.setattr(RangeQuery, "__post_init__", counted)
        with serve_harness.client() as client:
            times, shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower, upper
            )
        assert shed is False
        assert made == []
        np.testing.assert_array_equal(times, want)

    def test_large_batch_and_small_requests_share_the_loop(
        self, serve_harness
    ):
        # One connection's 65,536-query batch and another connection's
        # small batch and ping, sent at once: each comes back whole and
        # byte-identical, whichever the loop answers first.
        big = _random_batch(count=65536, seed=31)
        small = _random_batch(count=16, seed=32)
        answers = {}

        def ask_big():
            with serve_harness.client() as client:
                answers["big"] = client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, *big
                )

        thread = threading.Thread(target=ask_big)
        thread.start()
        try:
            with serve_harness.client() as client:
                answers["small"] = client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, *small
                )
                answers["ping"] = client.ping()
        finally:
            thread.join(60)
        assert not thread.is_alive()
        np.testing.assert_array_equal(
            answers["big"][0], _local_times(*big)
        )
        np.testing.assert_array_equal(
            answers["small"][0], _local_times(*small)
        )
        assert answers["ping"]["version"] == protocol.PROTOCOL_VERSION

    def test_no_compute_threads(self, serve_harness):
        with serve_harness.client() as client:
            client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, *_random_batch(seed=33)
            )
            client.degraded_plan(
                SCHEME, DIMS, NUM_DISKS, (0, 0), (3, 3), failed=(1,)
            )
        names = [thread.name for thread in threading.enumerate()]
        assert not [n for n in names if n.startswith("serve-compute")]


class TestErrorPaths:
    def test_unknown_scheme_is_typed_and_connection_survives(
        self, serve_harness
    ):
        lower, upper = _random_batch(count=4)
        with serve_harness.client() as client:
            with pytest.raises(ServeError, match="no preloaded spec"):
                client.batch_response_times(
                    "nope", DIMS, NUM_DISKS, lower, upper
                )
            assert client.ping()["version"] == protocol.PROTOCOL_VERSION

    def test_unknown_request_kind_gets_error_frame(self, serve_harness):
        with serve_harness.client() as client:
            frame = client.raw_request(protocol.encode_frame(0x7F))
            kind, header, _body = frame
            assert kind == protocol.RESPONSE_ERROR
            assert header["error"] == "ProtocolError"
            assert client.ping()["version"] == protocol.PROTOCOL_VERSION

    def test_out_of_grid_coordinates_rejected(self, serve_harness):
        coords = np.array([[99, 0]], dtype=np.int64)
        with serve_harness.client() as client:
            with pytest.raises(ProtocolError, match="outside the grid"):
                client.disk_of(SCHEME, DIMS, NUM_DISKS, coords)

    def test_inverted_bounds_rejected(self, serve_harness):
        lower = np.array([[5, 5]], dtype=np.int64)
        upper = np.array([[1, 1]], dtype=np.int64)
        with serve_harness.client() as client:
            with pytest.raises(ProtocolError, match="lower <= upper"):
                client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, lower, upper
                )

    def test_body_size_mismatch_rejected(self, serve_harness):
        with serve_harness.client() as client:
            frame = client.raw_request(
                protocol.encode_frame(
                    protocol.REQUEST_BATCH_RT,
                    {
                        "scheme": SCHEME,
                        "dims": list(DIMS),
                        "num_disks": NUM_DISKS,
                        "count": 10,
                    },
                    b"\x00" * 24,  # not 10 queries' worth
                )
            )
            assert frame[0] == protocol.RESPONSE_ERROR

    def test_oversized_prefix_answers_then_closes(self, serve_harness):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        try:
            raw.connect(serve_harness.socket_path)
            raw.sendall(
                struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
            )
            kind, header, _body = protocol.recv_frame(raw)
            assert kind == protocol.RESPONSE_ERROR
            assert "frame cap" in header["message"]
            assert raw.recv(1) == b""  # framing broken -> closed
        finally:
            raw.close()

    def test_garbage_header_bytes_answer_then_close(self, serve_harness):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        try:
            raw.connect(serve_harness.socket_path)
            payload = struct.pack(">BI", protocol.REQUEST_PING, 6)
            payload += b"!!!!!!"
            raw.sendall(struct.pack(">I", len(payload)) + payload)
            kind, header, _body = protocol.recv_frame(raw)
            # Parse failures inside a well-framed payload keep the
            # connection; JSON errors are answered in-band.
            assert kind == protocol.RESPONSE_ERROR
        finally:
            raw.close()


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new(self, serve_harness):
        harness = serve_harness
        with harness.client() as client:
            lower, upper = _random_batch(count=8, seed=5)
            times, _shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower, upper
            )
            np.testing.assert_array_equal(
                times, _local_times(lower, upper)
            )
        harness.stop()
        with pytest.raises((ConnectionError, OSError, ServeError)):
            with harness.client(timeout=5.0) as client:
                client.ping()
