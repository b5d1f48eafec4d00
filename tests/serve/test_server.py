"""In-process daemon tests: correctness, byte-identity, errors, drain.

The harness (see ``conftest``) runs the real asyncio server on a side
thread and the tests speak the real wire protocol through the blocking
client — nothing is mocked between the socket and the engine.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.backends import available_backends, use_backend
from repro.core.cache import global_cache
from repro.core.cost import response_time
from repro.core.exceptions import ProtocolError, ServeError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, parse_spec

from tests.serve.conftest import DIMS, NUM_DISKS, SCHEME, ServerHarness


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

    def test_plans_share_one_replication_per_offset_residue(
        self, serve_harness, monkeypatch
    ):
        # Offsets 1 and 1 + M name the same backup layout: one chained
        # replication serves both, and both plans equal the local one.
        from repro.faults.models import FailStop, FaultScenario
        from repro.replication import allocation as replication
        from repro.replication.planner import plan_query

        original = replication.chained_replication
        built = []

        def counted(primary, offset=1):
            built.append(offset)
            return original(primary, offset=offset)

        monkeypatch.setattr(replication, "chained_replication", counted)
        local = plan_query(
            original(
                global_cache().allocation(SCHEME, Grid(DIMS), NUM_DISKS),
                offset=1,
            ),
            RangeQuery((2, 1), (9, 6)),
            method="flow",
            scenario=FaultScenario(NUM_DISKS, [FailStop((5,))]),
        )
        with serve_harness.client() as client:
            plans = [
                client.degraded_plan(
                    SCHEME, DIMS, NUM_DISKS, (2, 1), (9, 6), failed=(5,),
                    offset=offset,
                )
                for offset in (1, 1 + NUM_DISKS)
            ]
        assert built == [1]
        for plan in plans:
            assert plan["response_time"] == local.response_time
            assert plan["completion_time"] == local.completion_time
            assert plan["loads"] == [int(v) for v in local.loads]

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


SERVED_BACKENDS = [backend.name for backend in available_backends()]
INT64_MAX = np.iinfo(np.int64).max


@pytest.fixture(params=SERVED_BACKENDS)
def backend_harness(request, tmp_path):
    """The in-process daemon with each available backend active."""
    with use_backend(request.param):
        harness = ServerHarness(tmp_path).start()
        try:
            yield harness
        finally:
            harness.stop()


class TestOneBackendCall:
    """A batch is one backend call from request body to reply body."""

    def test_overhanging_rows_match_the_local_engine(self, backend_harness):
        lower, upper = _random_batch(count=96, seed=51)
        upper[::4] += 9  # past the grid
        upper[1::4] = INT64_MAX
        lower[2], upper[2] = (16, 3), (20, 3)  # wholly outside
        with backend_harness.client() as client:
            times, _shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower, upper
            )
            empty, _shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS,
                np.zeros((0, 2), np.int64), np.zeros((0, 2), np.int64),
            )
        assert times.tobytes() == _local_times(lower, upper).tobytes()
        assert empty.shape == (0,)

    @pytest.mark.parametrize(
        "lower, upper",
        [([[-1, 0]], [[3, 3]]), ([[4, 2]], [[4, 1]])],
        ids=["negative-lower", "inverted"],
    )
    def test_invalid_row_is_the_same_protocol_error(
        self, backend_harness, lower, upper
    ):
        lower = np.array(lower, dtype=np.int64)
        upper = np.array(upper, dtype=np.int64)
        with backend_harness.client() as client:
            with pytest.raises(ProtocolError) as info:
                client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, lower, upper
                )
            assert client.ping()["version"] == protocol.PROTOCOL_VERSION
        assert str(info.value) == (
            "batch bounds must satisfy 0 <= lower <= upper"
        )

    def test_reply_body_starts_aligned_and_parses(self, backend_harness):
        lower, upper = _random_batch(count=5, seed=52)
        request = protocol.encode_frame(
            protocol.REQUEST_BATCH_RT,
            {"scheme": SCHEME, "dims": list(DIMS),
             "num_disks": NUM_DISKS, "count": 5},
            lower.tobytes() + upper.tobytes(),
        )
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(backend_harness.socket_path)
            sock.sendall(request)
            raw = b""
            while len(raw) < 4 or len(raw) < 4 + struct.unpack(
                ">I", raw[:4]
            )[0]:
                chunk = sock.recv(65536)
                assert chunk
                raw += chunk
        kind, header_len = struct.unpack(">BI", raw[4:9])
        body_start = 9 + header_len
        assert kind == protocol.RESPONSE_OK
        assert body_start % 8 == 0
        assert len(raw) == body_start + 5 * 8
        kind, header, body = protocol.parse_payload(raw[4:])
        assert header == {"count": 5}
        assert body == _local_times(lower, upper).tobytes()


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

    def test_garbage_header_bytes_answer_and_connection_survives(
        self, serve_harness
    ):
        def counters():
            with serve_harness.client() as client:
                return client.stats()["counters"]

        before = counters()
        with _raw_socket(serve_harness) as raw:
            payload = struct.pack(">BI", protocol.REQUEST_PING, 6)
            payload += b"!!!!!!"
            raw.sendall(struct.pack(">I", len(payload)) + payload)
            kind, header, _body = protocol.recv_frame(raw)
            # Parse failures inside a well-framed payload keep the
            # connection; JSON errors are answered in-band.
            assert kind == protocol.RESPONSE_ERROR
            assert header["error"] == "ProtocolError"
            raw.sendall(_ping_frame())
            kind, header, _body = protocol.recv_frame(raw)
            assert kind == protocol.RESPONSE_OK
            assert header["version"] == protocol.PROTOCOL_VERSION
        after = counters()
        # Counted as a failed request, not as a framing violation.
        assert after.get("serve.errors", 0) == (
            before.get("serve.errors", 0) + 1
        )
        assert after.get("serve.protocol_errors", 0) == before.get(
            "serve.protocol_errors", 0
        )


class TestClient:
    def test_failed_connect_closes_its_socket(self, tmp_path, monkeypatch):
        made = []

        class Recording(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(socket, "socket", Recording)
        with pytest.raises(OSError):
            ServeClient(unix_path=str(tmp_path / "absent.sock"))
        assert len(made) == 1
        assert made[0].fileno() == -1  # closed, not left to the GC


def _ping_frame():
    return protocol.encode_frame(protocol.REQUEST_PING)


def _batch_frame(lower, upper):
    return protocol.encode_frame(
        protocol.REQUEST_BATCH_RT,
        {"scheme": SCHEME, "dims": list(DIMS), "num_disks": NUM_DISKS,
         "count": len(lower)},
        lower.tobytes() + upper.tobytes(),
    )


def _raw_socket(harness, timeout=10):
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(timeout)
    raw.connect(harness.socket_path)
    return raw


class TestFraming:
    """Frames are split out of the received bytes wherever reads cut."""

    def test_one_frame_split_across_reads(self, serve_harness):
        lower, upper = _random_batch(count=8, seed=41)
        frame = _batch_frame(lower, upper)
        with _raw_socket(serve_harness) as raw:
            # Mid-prefix, mid-header, then the rest; each piece is its
            # own read on the server side.
            for piece in (frame[:2], frame[2:20], frame[20:]):
                raw.sendall(piece)
                time.sleep(0.05)
            kind, header, body = protocol.recv_frame(raw)
        assert kind == protocol.RESPONSE_OK
        np.testing.assert_array_equal(
            protocol.array_from_bytes(body, (header["count"],)),
            _local_times(lower, upper),
        )

    def test_two_frames_in_one_read_answered_in_order(self, serve_harness):
        coords = np.array([[1, 2], [3, 4]], dtype=np.int64)
        disk_of = protocol.encode_frame(
            protocol.REQUEST_DISK_OF,
            {"scheme": SCHEME, "dims": list(DIMS), "num_disks": NUM_DISKS},
            coords.tobytes(),
        )
        with _raw_socket(serve_harness) as raw:
            raw.sendall(disk_of + _ping_frame())
            first = protocol.recv_frame(raw)
            second = protocol.recv_frame(raw)
        assert first[0] == protocol.RESPONSE_OK
        assert first[1] == {"count": 2}
        assert second[0] == protocol.RESPONSE_OK
        assert second[1]["version"] == protocol.PROTOCOL_VERSION

    @pytest.mark.parametrize(
        "cut, where", [(2, "mid-prefix (2/4 bytes)"), (7, "mid-frame (3/")]
    )
    def test_eof_mid_frame_answers_then_closes(
        self, serve_harness, cut, where
    ):
        def protocol_errors():
            with serve_harness.client() as client:
                counters = client.stats()["counters"]
            return counters.get("serve.protocol_errors", 0)

        before = protocol_errors()
        with _raw_socket(serve_harness) as raw:
            raw.sendall(_ping_frame() + _ping_frame()[:cut])
            raw.shutdown(socket.SHUT_WR)
            assert protocol.recv_frame(raw)[0] == protocol.RESPONSE_OK
            kind, header, _body = protocol.recv_frame(raw)
            assert kind == protocol.RESPONSE_ERROR
            assert where in header["message"]
            assert raw.recv(1) == b""
        assert protocol_errors() == before + 1

    def test_slow_reader_holds_its_request_in_flight(self, serve_harness):
        # A reply far larger than the socket buffers: the server pauses
        # writing, stops reading that connection, and keeps the request
        # in flight until the client has read the reply; the ping
        # queued behind it is answered only then, in order.
        count = 1 << 17
        lower, upper = _random_batch(count=count, seed=43)
        big = _batch_frame(lower, upper)
        with _raw_socket(serve_harness, timeout=60) as raw:
            with serve_harness.client() as probe:
                raw.sendall(big + _ping_frame())
                deadline = time.monotonic() + 60
                while True:
                    stats = probe.stats()
                    # The probe's own stats request counts as one.
                    if stats["inflight"] >= 2:
                        break
                    assert time.monotonic() < deadline, stats
                    time.sleep(0.01)
                answered = stats["counters"]["serve.requests"]
                time.sleep(0.2)
                stats = probe.stats()
                assert stats["inflight"] == 2
                # Only this stats request was dispatched since: the
                # ping behind the held reply waits.
                assert stats["counters"]["serve.requests"] == answered + 1
                kind, header, body = protocol.recv_frame(raw)
                assert kind == protocol.RESPONSE_OK
                np.testing.assert_array_equal(
                    protocol.array_from_bytes(body, (count,)),
                    _local_times(lower, upper),
                )
                ping = protocol.recv_frame(raw)
                assert ping[1]["version"] == protocol.PROTOCOL_VERSION
                assert probe.stats()["inflight"] == 1


class TestDrain:
    def test_no_frame_is_dispatched_once_draining(self, serve_harness):
        # A held reply keeps the drain waiting; a ping sent meanwhile on
        # another open connection is never answered, and that
        # connection is closed once the held reply has been read.
        harness = serve_harness
        count = 1 << 17
        big = _batch_frame(*_random_batch(count=count, seed=44))
        with _raw_socket(harness, timeout=60) as slow, _raw_socket(
            harness, timeout=60
        ) as other:
            other.sendall(_ping_frame())
            assert protocol.recv_frame(other)[0] == protocol.RESPONSE_OK
            slow.sendall(big)
            deadline = time.monotonic() + 60
            while harness.server._busy_requests < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            harness.loop.call_soon_threadsafe(
                harness.server.request_shutdown
            )
            time.sleep(0.2)
            other.sendall(_ping_frame())
            time.sleep(0.2)
            assert protocol.recv_frame(slow)[1]["count"] == count
            assert protocol.recv_frame(other) is None
        harness.stop()

    def test_bytes_received_while_draining_are_not_buffered(
        self, serve_harness
    ):
        # A held reply keeps the drain open; a megabyte sent meanwhile
        # on another connection is dropped, not kept in its buffer.
        harness = serve_harness
        big = _batch_frame(*_random_batch(count=1 << 17, seed=45))
        with _raw_socket(harness, timeout=60) as slow, _raw_socket(
            harness, timeout=60
        ) as other:
            other.sendall(_ping_frame())
            assert protocol.recv_frame(other)[0] == protocol.RESPONSE_OK
            slow.sendall(big)
            deadline = time.monotonic() + 60
            while harness.server._busy_requests < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            harness.loop.call_soon_threadsafe(
                harness.server.request_shutdown
            )
            time.sleep(0.2)
            other.sendall(b"\x00" * (1 << 20))
            time.sleep(0.2)
            buffered = [
                len(connection._buffer)
                for connection in list(harness.server._connections)
            ]
            assert len(buffered) == 2
            assert buffered == [0, 0]
            assert protocol.recv_frame(slow) is not None
        harness.stop()

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


def _counters(harness):
    with harness.client() as client:
        counters = client.stats()["counters"]
    return {
        name: counters.get(name, 0)
        for name in ("serve.requests", "serve.errors", "serve.protocol_errors")
    }


def _delta(before, after):
    return {name: after[name] - before[name] for name in before}


class TestPreparedBatch:
    """One prepared entry per connection, for its last valid header."""

    def test_alternating_headers_on_one_connection(self, serve_harness):
        small = _random_batch(count=16, seed=61)
        large = _random_batch(count=48, seed=62)
        with serve_harness.client() as client:
            for _ in range(3):
                for lower, upper in (small, large):
                    times, _shed = client.batch_response_times(
                        SCHEME, DIMS, NUM_DISKS, lower, upper
                    )
                    assert times.tobytes() == _local_times(
                        lower, upper
                    ).tobytes()

    def test_same_header_in_other_bytes_is_answered(self, serve_harness):
        lower, upper = _random_batch(count=8, seed=63)
        body = lower.tobytes() + upper.tobytes()
        headers = [
            {"scheme": SCHEME, "dims": list(DIMS), "num_disks": NUM_DISKS,
             "count": 8},
            {"count": 8, "num_disks": NUM_DISKS, "dims": list(DIMS),
             "scheme": SCHEME},
        ]
        with serve_harness.client() as client:
            for header in headers + headers:
                kind, reply, body_out = client.raw_request(
                    protocol.encode_frame(
                        protocol.REQUEST_BATCH_RT, header, body
                    )
                )
                assert kind == protocol.RESPONSE_OK
                assert reply == {"count": 8}
                assert body_out == _local_times(lower, upper).tobytes()

    @pytest.mark.parametrize("fault", ["body length", "bounds"])
    def test_reused_header_with_a_bad_request(self, serve_harness, fault):
        lower, upper = _random_batch(count=8, seed=64)
        good = _batch_frame(lower, upper)
        if fault == "body length":
            bad = protocol.encode_frame(
                protocol.REQUEST_BATCH_RT,
                {"scheme": SCHEME, "dims": list(DIMS),
                 "num_disks": NUM_DISKS, "count": 8},
                lower.tobytes() + upper.tobytes()[:-8],
            )
            message = "does not hold two int64 (8, 2) arrays"
        else:
            inverted = upper.copy()
            inverted[3] = lower[3] - 1
            bad = _batch_frame(lower, inverted)
            message = "batch bounds must satisfy 0 <= lower <= upper"
        # The same bad request as a connection's first, unprepared one...
        before = _counters(serve_harness)
        with _raw_socket(serve_harness) as raw:
            raw.sendall(bad)
            kind, header, _body = protocol.recv_frame(raw)
        fresh = _delta(before, _counters(serve_harness))
        assert kind == protocol.RESPONSE_ERROR
        assert message in header["message"]
        # ...and behind two good requests that prepared its header.
        with _raw_socket(serve_harness) as raw:
            for _ in range(2):
                raw.sendall(good)
                assert protocol.recv_frame(raw)[0] == protocol.RESPONSE_OK
            (connection,) = serve_harness.server._connections
            assert connection.batch.answer is not None
            before = _counters(serve_harness)
            raw.sendall(bad)
            kind, header, _body = protocol.recv_frame(raw)
            reused = _delta(before, _counters(serve_harness))
            assert kind == protocol.RESPONSE_ERROR
            assert header["error"] == "ProtocolError"
            assert message in header["message"]
            raw.sendall(good)
            kind, _header, body = protocol.recv_frame(raw)
            assert kind == protocol.RESPONSE_OK
            assert body == _local_times(lower, upper).tobytes()
        # One request and one error each (the stats probe is the
        # other request); never a framing violation.
        assert reused == fresh == {
            "serve.requests": 2, "serve.errors": 1,
            "serve.protocol_errors": 0,
        }

    def test_invalid_header_keeps_the_prepared_entry(self, serve_harness):
        lower, upper = _random_batch(count=8, seed=65)
        good = _batch_frame(lower, upper)
        unknown = protocol.encode_frame(
            protocol.REQUEST_BATCH_RT,
            {"scheme": "nope", "dims": list(DIMS),
             "num_disks": NUM_DISKS, "count": 8},
            lower.tobytes() + upper.tobytes(),
        )
        with _raw_socket(serve_harness) as raw:
            raw.sendall(good)
            assert protocol.recv_frame(raw)[0] == protocol.RESPONSE_OK
            (connection,) = serve_harness.server._connections
            entry = connection.batch
            raw.sendall(unknown)
            kind, header, _body = protocol.recv_frame(raw)
            assert kind == protocol.RESPONSE_ERROR
            assert "no preloaded spec" in header["message"]
            assert connection.batch is entry
            raw.sendall(good)
            assert protocol.recv_frame(raw)[2] == (
                _local_times(lower, upper).tobytes()
            )
            assert connection.batch is entry

    def test_traffic_of_changing_headers_prepares_nothing(
        self, serve_harness
    ):
        batches = [_random_batch(count=8 + i % 3, seed=67 + i) for i in range(6)]
        with serve_harness.client() as client:
            client.ping()
            (connection,) = serve_harness.server._connections
            for lower, upper in batches:
                times, _shed = client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, lower, upper
                )
                assert times.tobytes() == _local_times(lower, upper).tobytes()
                assert connection.batch.count == len(lower)
                assert connection.batch.answer is None
            # The second request in a row under one header prepares it.
            client.batch_response_times(SCHEME, DIMS, NUM_DISKS, lower, upper)
            assert connection.batch.answer is not None

    def test_a_large_batch_leaves_no_large_entry(self, serve_harness):
        count = protocol.RECV_BUFFER_BYTES // 32
        lower, upper = _random_batch(count=count, seed=68)
        with serve_harness.client() as client:
            client.ping()
            (connection,) = serve_harness.server._connections
            for _ in range(3):
                times, _shed = client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, lower, upper
                )
                assert times.tobytes() == _local_times(lower, upper).tobytes()
            entry = connection.batch
            assert entry.count == count
            assert entry.answer is None
            assert len(entry.reply) == 0 and len(entry._bounds) == 0

    def test_served_metrics_and_span_per_request(self, serve_harness):
        from repro.obs.metrics import global_registry
        from repro.obs.trace import global_tracer

        name = "serve.latency.batch_response_times.seconds"

        def observed():
            histograms = global_registry().aggregate_histograms()
            return histograms.get(name, {}).get("count", 0)

        tracer = global_tracer()
        was_enabled = tracer.enabled
        before = observed()
        lower, upper = _random_batch(count=8, seed=66)
        tracer.clear()
        tracer.enable()
        try:
            with serve_harness.client() as client:
                for _ in range(3):
                    client.batch_response_times(
                        SCHEME, DIMS, NUM_DISKS, lower, upper
                    )
            records = tracer.spans()
        finally:
            if not was_enabled:
                tracer.disable()
            tracer.clear()
        assert observed() == before + 3
        spans = [
            record["attrs"] for record in records
            if record["name"] == "engine.batch_response_times"
        ]
        events = [
            record["attrs"]["request"] for record in records
            if record["name"] == "serve.request"
        ]
        assert spans == [{"num_queries": 8}] * 3
        assert events == ["batch_response_times"] * 3


class _Transport:
    """Just enough of an asyncio transport to drive ``_Connection``."""

    def __init__(self):
        self.written = []
        self.block = False
        self.protocol = None
        self.closing = False

    def set_write_buffer_limits(self, high=None, low=None):
        pass

    def write(self, data):
        self.written.append(bytes(data))
        if self.block:
            self.protocol.pause_writing()

    def is_closing(self):
        return self.closing

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass

    def close(self):
        self.closing = True


@pytest.fixture
def connection(tmp_path):
    """A ``_Connection`` fed by hand: each call is one read."""
    import asyncio

    from repro.serve.server import DeclusterServer, _Connection

    server = DeclusterServer(
        ServeConfig(
            specs=[parse_spec("ecc:16x16:8")],
            unix_path=str(tmp_path / "unused.sock"),
        )
    )
    loop = asyncio.new_event_loop()
    try:
        server._loop = loop
        server._idle_event = asyncio.Event()
        server._idle_event.set()
        server._preload()
        connection = _Connection(server)
        transport = _Transport()
        transport.protocol = connection
        connection.connection_made(transport)
        yield connection, transport
    finally:
        loop.close()


def _reply_times(frame):
    kind, header, body = protocol.parse_payload(frame[4:])
    assert kind == protocol.RESPONSE_OK, header
    return protocol.array_from_bytes(body, (header["count"],))


class TestFrameSplitter:
    """``data_received`` cuts frames out of whatever the reads deliver."""

    @pytest.mark.parametrize("cut", [1, 4, 9, 30, -8])
    def test_frame_split_across_two_reads(self, connection, cut):
        conn, transport = connection
        batch = _random_batch(count=8, seed=71)
        frame = _batch_frame(*batch)
        conn.data_received(frame[:cut])
        assert transport.written == []
        assert bytes(conn._buffer) == frame[:cut]
        conn.data_received(frame[cut:])
        (reply,) = transport.written
        np.testing.assert_array_equal(
            _reply_times(reply), _local_times(*batch)
        )
        assert len(conn._buffer) == 0

    def test_two_frames_coalesced_into_one_read(self, connection):
        conn, transport = connection
        first = _random_batch(count=8, seed=72)
        second = _random_batch(count=8, seed=73)
        conn.data_received(_batch_frame(*first) + _batch_frame(*second))
        assert len(transport.written) == 2
        for reply, batch in zip(transport.written, (first, second)):
            np.testing.assert_array_equal(
                _reply_times(reply), _local_times(*batch)
            )
        assert len(conn._buffer) == 0

    def test_trailing_partial_frame_while_writing_is_paused(
        self, connection
    ):
        conn, transport = connection
        server = conn._server
        batches = [_random_batch(count=8, seed=74 + i) for i in range(3)]
        frames = [_batch_frame(*batch) for batch in batches]
        transport.block = True
        conn.data_received(frames[0] + frames[1] + frames[2][:11])
        # The first reply is held: nothing else is answered, and the
        # rest waits in the carry-over buffer.
        assert len(transport.written) == 1
        assert server._busy_requests == 1
        assert bytes(conn._buffer) == frames[1] + frames[2][:11]
        transport.block = False
        conn.resume_writing()
        assert server._busy_requests == 0
        assert len(transport.written) == 2
        assert bytes(conn._buffer) == frames[2][:11]
        conn.data_received(frames[2][11:])
        assert len(transport.written) == 3
        assert len(conn._buffer) == 0
        for reply, batch in zip(transport.written, batches):
            np.testing.assert_array_equal(
                _reply_times(reply), _local_times(*batch)
            )

    @pytest.mark.parametrize("backend", SERVED_BACKENDS)
    def test_bad_bounds_in_the_carry_over_buffer(self, connection, backend):
        conn, transport = connection
        lower, upper = _random_batch(count=8, seed=79)
        inverted = upper.copy()
        inverted[2] = lower[2] - 1
        bad = _batch_frame(lower, inverted)
        good = _batch_frame(lower, upper)
        # The bad frame is answered out of the carry-over buffer, which
        # is then cut: nothing may still view it.
        with use_backend(backend):
            conn.data_received(bad[:20])
            conn.data_received(bad[20:] + good[:20])
            conn.data_received(good[20:])
        assert len(transport.written) == 2
        kind, header, _body = protocol.parse_payload(transport.written[0][4:])
        assert kind == protocol.RESPONSE_ERROR
        assert "0 <= lower <= upper" in header["message"]
        np.testing.assert_array_equal(
            _reply_times(transport.written[1]), _local_times(lower, upper)
        )
        assert len(conn._buffer) == 0 and not transport.closing

    def test_reply_buffer_is_reused_only_after_it_was_written(
        self, connection
    ):
        conn, transport = connection
        batches = [_random_batch(count=8, seed=80 + i) for i in range(4)]
        conn.data_received(b"".join(_batch_frame(*b) for b in batches))
        entry = conn.batch
        assert entry is not None and len(transport.written) == 4
        assert entry.answer is not None
        for reply, batch in zip(transport.written, batches):
            np.testing.assert_array_equal(
                _reply_times(reply), _local_times(*batch)
            )
        assert conn.batch is entry

    def test_oversized_prefix_in_a_coalesced_read_fails_the_connection(
        self, connection
    ):
        conn, transport = connection
        batch = _random_batch(count=8, seed=85)
        conn.data_received(
            _batch_frame(*batch)
            + struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        )
        assert len(transport.written) == 2
        kind, header, _body = protocol.parse_payload(transport.written[1][4:])
        assert kind == protocol.RESPONSE_ERROR
        assert "frame cap" in header["message"]
        assert transport.closing
        assert len(conn._buffer) == 0


class _PartialSocket:
    """A socket whose ``sendmsg`` takes at most ``limit`` bytes a call."""

    def __init__(self, sock, limit):
        self._sock = sock
        self.limit = limit
        self.sendmsg_calls = 0
        self.recv_calls = 0

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        data = b"".join(bytes(memoryview(b).cast("B")) if memoryview(
            b).nbytes else b"" for b in buffers)
        return self._sock.send(data[: self.limit])

    def recv_into(self, buffer):
        self.recv_calls += 1
        return self._sock.recv_into(buffer)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestClientWire:
    def test_partial_sendmsg_sends_the_rest(self, serve_harness):
        lower, upper = _random_batch(count=300, seed=90)
        with serve_harness.client() as client:
            partial = _PartialSocket(client._sock, limit=1000)
            client._sock = partial
            times, _shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower, upper
            )
            client._sock = partial._sock
        assert partial.sendmsg_calls == 10  # 9,669 bytes, 1,000 a call
        assert times.tobytes() == _local_times(lower, upper).tobytes()

    def test_reply_larger_than_the_receive_buffer(self, serve_harness):
        count = 3 * protocol.RECV_BUFFER_BYTES // 8
        lower, upper = _random_batch(count=count, seed=91)
        small = _random_batch(count=4, seed=92)
        with serve_harness.client() as client:
            times, _shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower, upper
            )
            after_small, _shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, *small
            )
        assert times.tobytes() == _local_times(lower, upper).tobytes()
        assert after_small.tobytes() == _local_times(*small).tobytes()

    def test_repeated_batch_reuses_its_prefix(self, serve_harness):
        lower, upper = _random_batch(count=8, seed=93)
        with serve_harness.client() as client:
            client.batch_response_times(SCHEME, DIMS, NUM_DISKS, lower, upper)
            prefix = client._batch_prefix
            client.batch_response_times(
                SCHEME, list(DIMS), NUM_DISKS, upper - upper, upper
            )
            assert client._batch_prefix is prefix
            client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower[:4], upper[:4]
            )
            assert client._batch_prefix is not prefix

    def test_reply_arriving_whole_takes_one_recv(self, serve_harness):
        lower, upper = _random_batch(count=64, seed=94)
        with serve_harness.client() as client:
            counting = _PartialSocket(client._sock, limit=1 << 30)
            client._sock = counting
            client._reader._sock = counting
            client.ping()  # the server is warm and the reply is small
            counting.recv_calls = 0
            for _ in range(5):
                client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, lower, upper
                )
            client._sock = client._reader._sock = counting._sock
        # A reply may arrive in two pieces now and then; most arrive
        # whole and take one call.
        assert counting.recv_calls < 10
