"""The fetch reply's column-major codec, end to end.

A served result travels column by column: an all-float column as packed
little-endian doubles (``{"f64": base64}``), any other column as a JSON
array. Every value a session spooled must come back from
``ProgressClient.fetch`` with the same type and, for floats, the same
bits — -0.0, infinities, NaN payloads and subnormals included.
"""

from __future__ import annotations

import datetime
import math
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.executor.operators import SeqScan
from repro.server import ProgressClient, ProgressService
from repro.server.protocol import decode, encode
from repro.server.session import QuerySession
from repro.storage import Catalog, Schema, Table


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


#: A quiet NaN with a non-default payload, and a negative one.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]
SPECIAL_FLOATS = [
    -0.0, 0.0, math.inf, -math.inf, math.nan, NAN_PAYLOAD, NEG_NAN, 5e-324, 1.8e308,
]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
others = st.one_of(
    st.integers(),
    st.sampled_from([2**70, -(2**70), 0]),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["ünïcødé", "进度", "🙂"]),
    st.dates(),
    # A float in a mixed column rides in the JSON array, as repr: exact
    # for every value but a NaN's payload.
    st.floats(allow_nan=False),
)


@pytest.fixture(scope="module")
def served():
    svc = ProgressService(Catalog(), port=0, workers=1)
    svc.start()
    client = ProgressClient(svc.host, svc.port, timeout=30.0)
    try:
        yield svc, client
    finally:
        client.close()
        svc.shutdown()


def spool(svc, rows: list[tuple], width: int, row_cap: int = 10_000) -> QuerySession:
    """A finished session whose spool is ``rows``, registered for fetch."""
    names = [f"c{i}" for i in range(width)]
    table = Table("t", Schema.of(*names), rows)
    session = QuerySession(SeqScan(table), quantum_rows=16, row_cap=row_cap)
    svc.registry.add(session)
    while session.step():
        pass
    assert session.state.value == "finished"
    return session


def fetch_raw(svc, session_id: str) -> dict:
    with socket.create_connection((svc.host, svc.port), timeout=30) as conn:
        conn.sendall(encode({"op": "fetch", "session_id": session_id}))
        with conn.makefile("rb") as stream:
            return decode(stream.readline())


def on_the_wire(value):
    """What a spooled value reads as after the trip: a ``default=str``
    type (a date here) arrives as its ``str``, everything else as itself."""
    return str(value) if isinstance(value, datetime.date) else value


def assert_same_value(got, want) -> None:
    want = on_the_wire(want)
    assert type(got) is type(want), (got, want)
    if type(want) is float:
        assert _bits(got) == _bits(want), (got, want)
    else:
        assert got == want


class TestRoundTrip:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.data(),
        n=st.integers(min_value=0, max_value=40),
        kinds=st.lists(st.booleans(), min_size=1, max_size=4),
    )
    def test_every_value_comes_back_with_its_type_and_bits(self, served, data, n, kinds):
        svc, client = served
        columns = [
            data.draw(st.lists(floats if is_float else others, min_size=n, max_size=n))
            for is_float in kinds
        ]
        rows = list(zip(*columns)) if n else []
        session = spool(svc, rows, len(kinds))
        fetched = client.fetch(session.session_id)
        assert fetched["columns"] == [f"t.c{i}" for i in range(len(kinds))]
        assert fetched["row_count"] == n and not fetched["truncated"]
        assert fetched["state"] == "finished"
        assert len(fetched["rows"]) == n
        for got_row, want_row in zip(fetched["rows"], session.results()[1]):
            assert len(got_row) == len(want_row)
            for got, want in zip(got_row, want_row):
                assert_same_value(got, want)


class TestReplyShape:
    def test_float_column_packed_others_arrays(self, served):
        svc, _client = served
        rows = [(1.5, 1, "a", None), (-0.0, 2**70, "ü", True), (math.nan, 3, "c", 2.5)]
        session = spool(svc, rows, 4)
        reply = fetch_raw(svc, session.session_id)
        assert set(reply) == {"ok", "columns", "data", "truncated", "row_count", "state"}
        packed, ints, strs, mixed = reply["data"]
        assert set(packed) == {"f64"}
        assert ints == [1, 2**70, 3]
        assert strs == ["a", "ü", "c"]
        assert mixed == [None, True, 2.5]

    def test_empty_result(self, served):
        svc, client = served
        session = spool(svc, [], 2)
        reply = fetch_raw(svc, session.session_id)
        assert "rows" not in reply
        assert reply["data"] == [[], []] and reply["row_count"] == 0
        fetched = client.fetch(session.session_id)
        assert fetched["rows"] == [] and fetched["columns"] == ["t.c0", "t.c1"]

    def test_row_cap_truncated_result(self, served):
        svc, client = served
        rows = [(i * 0.5, i) for i in range(100)]
        session = spool(svc, rows, 2, row_cap=30)
        reply = fetch_raw(svc, session.session_id)
        assert "rows" not in reply
        assert set(reply["data"][0]) == {"f64"} and len(reply["data"][1]) == 30
        fetched = client.fetch(session.session_id)
        assert fetched["truncated"] and fetched["row_count"] == 100
        assert fetched["rows"] == [list(row) for row in rows[:30]]
