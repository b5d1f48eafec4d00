"""Frame codec unit tests plus structured fuzzing.

The fuzz half feeds the parser truncated, oversized, and random-byte
payloads: every rejection must be a typed
:class:`~repro.core.exceptions.ProtocolError` — never a hang, never a
stray ``struct.error``/``KeyError`` escaping to the caller.
"""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.exceptions import ProtocolError
from repro.serve import protocol


class TestFrameRoundTrip:
    def test_header_and_body_round_trip(self):
        body = np.arange(12, dtype=np.int64).tobytes()
        frame = protocol.encode_frame(
            protocol.REQUEST_BATCH_RT, {"count": 12, "scheme": "ecc"}, body
        )
        (length,) = struct.unpack(">I", frame[:4])
        kind, header, parsed_body = protocol.parse_payload(frame[4:])
        assert length == len(frame) - 4
        assert kind == protocol.REQUEST_BATCH_RT
        assert header == {"count": 12, "scheme": "ecc"}
        assert parsed_body == body

    def test_empty_header_and_body(self):
        frame = protocol.encode_frame(protocol.REQUEST_PING)
        kind, header, body = protocol.parse_payload(frame[4:])
        assert kind == protocol.REQUEST_PING
        assert header == {}
        assert body == b""

    def test_oversized_frame_is_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.encode_frame(
                protocol.REQUEST_BATCH_RT,
                None,
                b"\x00" * (protocol.MAX_FRAME_BYTES + 1),
            )

    def test_error_frame_carries_type_and_message(self):
        frame = protocol.encode_error("ServeError", "boom")
        kind, header, _body = protocol.parse_payload(frame[4:])
        assert kind == protocol.RESPONSE_ERROR
        assert header == {"error": "ServeError", "message": "boom"}


class TestPreFramedBody:
    @pytest.mark.parametrize("count", [0, 1, 7, 256, 12345])
    def test_padded_header_parses_and_body_is_aligned(self, count):
        frame, body = protocol.frame_with_int64_body(
            protocol.RESPONSE_OK, {"count": count}, count
        )
        body[...] = np.arange(count, dtype=np.int64) * 3
        (length,) = struct.unpack(">I", frame[:4])
        _kind, header_len = struct.unpack(">BI", frame[4:9])
        assert length == len(frame) - 4
        assert (9 + header_len) % 8 == 0
        assert body.ctypes.data % 8 == 0
        kind, header, parsed = protocol.parse_payload(bytes(frame[4:]))
        assert kind == protocol.RESPONSE_OK
        assert header == {"count": count}
        assert parsed == (np.arange(count, dtype=np.int64) * 3).tobytes()

    def test_reply_reads_back_through_recv_frame(self):
        frame, body = protocol.frame_with_int64_body(
            protocol.RESPONSE_OK, {"count": 3, "note": "x" * 5}, 3
        )
        body[...] = (4, 5, 6)
        left, right = socket.socketpair()
        with left, right:
            left.sendall(frame)
            kind, header, parsed = protocol.recv_frame(right)
        assert kind == protocol.RESPONSE_OK
        assert header == {"count": 3, "note": "xxxxx"}
        assert np.frombuffer(parsed, dtype=np.int64).tolist() == [4, 5, 6]

    def test_oversized_body_is_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.frame_with_int64_body(
                protocol.RESPONSE_OK, {}, protocol.MAX_FRAME_BYTES // 8
            )


class TestParseRejections:
    def test_payload_shorter_than_fixed_part(self):
        with pytest.raises(ProtocolError, match="shorter"):
            protocol.parse_payload(b"\x01")

    def test_header_length_overruns_payload(self):
        payload = struct.pack(">BI", protocol.REQUEST_PING, 999) + b"{}"
        with pytest.raises(ProtocolError, match="overruns"):
            protocol.parse_payload(payload)

    def test_header_not_json(self):
        payload = struct.pack(">BI", protocol.REQUEST_PING, 4) + b"!!!!"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.parse_payload(payload)

    def test_header_not_an_object(self):
        payload = struct.pack(">BI", protocol.REQUEST_PING, 2) + b"[]"
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.parse_payload(payload)

    def test_fuzz_random_payloads_raise_only_protocol_error(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            size = int(rng.integers(0, 64))
            payload = rng.integers(0, 256, size=size).astype(
                np.uint8
            ).tobytes()
            try:
                kind, header, body = protocol.parse_payload(payload)
            except ProtocolError:
                continue
            # Accepted payloads must be structurally coherent.
            assert isinstance(header, dict)
            assert isinstance(kind, int)
            assert isinstance(body, bytes)

    def test_fuzz_truncations_of_a_valid_frame(self):
        frame = protocol.encode_frame(
            protocol.REQUEST_BATCH_RT, {"count": 3}, b"x" * 24
        )
        payload = frame[4:]
        for cut in range(len(payload)):
            truncated = payload[:cut]
            try:
                protocol.parse_payload(truncated)
            except ProtocolError:
                pass  # typed rejection is the contract


class TestBlockingRecv:
    def _socketpair(self):
        server, client = socket.socketpair()
        server.settimeout(5)
        client.settimeout(5)
        return server, client

    def test_recv_round_trip(self):
        server, client = self._socketpair()
        try:
            frame = protocol.encode_frame(
                protocol.REQUEST_STATS, {"a": 1}, b"zz"
            )
            writer = threading.Thread(
                target=client.sendall, args=(frame,)
            )
            writer.start()
            kind, header, body = protocol.recv_frame(server)
            writer.join()
            assert (kind, header, body) == (
                protocol.REQUEST_STATS, {"a": 1}, b"zz"
            )
        finally:
            server.close()
            client.close()

    def test_recv_clean_eof_returns_none(self):
        server, client = self._socketpair()
        try:
            client.close()
            assert protocol.recv_frame(server) is None
        finally:
            server.close()

    def test_recv_truncated_frame_raises(self):
        server, client = self._socketpair()
        try:
            frame = protocol.encode_frame(protocol.REQUEST_PING)
            client.sendall(frame[: len(frame) - 2])
            client.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.recv_frame(server)
        finally:
            server.close()
            client.close()

    def test_recv_oversized_prefix_raises(self):
        server, client = self._socketpair()
        try:
            client.sendall(
                struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
            )
            with pytest.raises(ProtocolError, match="frame cap"):
                protocol.recv_frame(server)
        finally:
            server.close()
            client.close()


class TestArrayCodec:
    def test_round_trip_preserves_values(self):
        array = np.arange(24, dtype=np.int64).reshape(6, 4)
        data = protocol.array_to_bytes(array)
        back = protocol.array_from_bytes(data, (6, 4))
        np.testing.assert_array_equal(array, back)
        assert back.flags.writeable  # a copy, not a frozen view

    def test_non_contiguous_input_is_handled(self):
        array = np.arange(32, dtype=np.int64).reshape(8, 4)[::2]
        data = protocol.array_to_bytes(array)
        np.testing.assert_array_equal(
            protocol.array_from_bytes(data, (4, 4)), array
        )

    def test_size_mismatch_is_typed(self):
        with pytest.raises(ProtocolError, match="does not match"):
            protocol.array_from_bytes(b"\x00" * 9, (2,))
