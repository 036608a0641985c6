"""Direct unit tests for the JSON-lines wire protocol helpers."""

import io

import pytest

from repro.server.protocol import (
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    decode,
    encode,
    error_response,
    ok_response,
    read_message,
    write_message,
)


class TestEncodeDecode:
    def test_roundtrip(self):
        message = {"op": "submit", "sql": "SELECT 1", "timeout_s": 1.5, "n": None}
        assert decode(encode(message)) == message

    def test_encode_is_one_newline_terminated_line(self):
        frame = encode({"op": "ping"})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1

    def test_encode_compact_no_spaces(self):
        assert b": " not in encode({"a": 1, "b": 2})

    def test_encode_stringifies_exotic_values(self):
        # default=str: wire encoding must never raise on e.g. Decimal/Path.
        from decimal import Decimal

        assert decode(encode({"x": Decimal("1.5")}))["x"] == "1.5"

    def test_decode_accepts_str_and_bytes(self):
        assert decode('{"a":1}') == {"a": 1}
        assert decode(b'{"a":1}') == {"a": 1}

    def test_decode_invalid_json(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode(b'{"op": "sub')  # a truncated frame

    def test_decode_non_object(self):
        with pytest.raises(ProtocolError, match="expected a JSON object"):
            decode(b"[1, 2, 3]")

    def test_decode_replaces_bad_utf8(self):
        # errors="replace": undecodable bytes surface as a ProtocolError
        # (bad JSON), never a UnicodeDecodeError.
        with pytest.raises(ProtocolError):
            decode(b'\xff\xfe{"a":1}')


class TestReadWrite:
    def test_write_then_read(self):
        buf = io.BytesIO()
        write_message(buf, ok_response(pong=True))
        buf.seek(0)
        assert read_message(buf) == {"ok": True, "pong": True}

    def test_read_eof_returns_none(self):
        assert read_message(io.BytesIO(b"")) is None

    def test_read_skips_blank_lines(self):
        buf = io.BytesIO(b"\n   \n" + encode({"op": "ping"}))
        assert read_message(buf) == {"op": "ping"}

    def test_many_blank_lines_do_not_recurse(self):
        # The peer picks the count: 5 000 used to raise RecursionError and
        # kill the handler thread. The line limit still applies afterwards.
        blanks = b"\n" * 5000
        assert read_message(io.BytesIO(blanks + encode({"op": "ping"}))) == {"op": "ping"}
        assert read_message(io.BytesIO(blanks)) is None
        big = b'{"pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            read_message(io.BytesIO(blanks + big))

    def test_read_sequential_frames(self):
        buf = io.BytesIO(encode({"n": 1}) + encode({"n": 2}))
        assert read_message(buf) == {"n": 1}
        assert read_message(buf) == {"n": 2}
        assert read_message(buf) is None

    def test_oversized_line_rejected(self):
        big = b'{"pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            read_message(io.BytesIO(big))

    def test_max_size_line_accepted(self):
        pad = "x" * (MAX_LINE_BYTES - 100)
        frame = encode({"pad": pad})
        assert len(frame) <= MAX_LINE_BYTES
        assert read_message(io.BytesIO(frame))["pad"] == pad

    def test_truncated_frame_is_protocol_error(self):
        # EOF mid-line (no trailing newline): decode fails loudly.
        buf = io.BytesIO(b'{"op": "stat')
        with pytest.raises(ProtocolError):
            read_message(buf)


class TestResponseShapes:
    def test_ok_response(self):
        assert ok_response(session={"id": 1}) == {"ok": True, "session": {"id": 1}}

    def test_error_response(self):
        response = error_response("bad_request", "missing sql")
        assert response == {
            "ok": False,
            "error": {"code": "bad_request", "message": "missing sql"},
        }

    def test_error_response_roundtrips(self):
        wire = encode(error_response("unknown_session", "s9999"))
        assert decode(wire)["error"]["code"] == "unknown_session"

    def test_ops_catalog(self):
        assert {"submit", "status", "watch", "cancel", "fetch"} <= OPS
