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
