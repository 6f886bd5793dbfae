"""Tests for the RPC wire layer: the codec, length-prefixed frames (with a
Hypothesis fuzz of the decoder), envelopes, retry schedules, and the fault
injector's rule engine."""

import asyncio
import json
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rpc.errors import FrameError
from repro.rpc.faults import FaultInjector, FaultRule
from repro.rpc.framing import (
    MAX_FRAME_BYTES,
    JsonCodec,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.rpc.messages import Request, Response, correlation_ids
from repro.rpc.retry import RetryPolicy


def frame_of(body: bytes) -> bytes:
    """A frame around an arbitrary (possibly malformed) body."""
    return struct.pack(">I", len(body)) + body


def body_of(text: bytes, blobs=(), n_blobs=None, lengths=None) -> bytes:
    """A body with a hand-built header: JSON text, then the blob table."""
    n = len(blobs) if n_blobs is None else n_blobs
    sizes = [len(b) for b in blobs] if lengths is None else lengths
    table = struct.pack(f">{len(sizes)}I", *sizes)
    return struct.pack(">II", len(text), n) + text + table + b"".join(blobs)


async def read_all(data: bytes, eof: bool = True) -> list:
    """Every message ``read_frame`` yields from a stream holding ``data``."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    out = []
    while (obj := await read_frame(reader)) is not None:
        out.append(obj)
    return out


def read_stream(data: bytes, eof: bool = True, timeout_s: float = 1.0) -> list:
    """Run :func:`read_all` with a hang guard."""
    return asyncio.run(asyncio.wait_for(read_all(data, eof), timeout_s))


class TestCodec:
    def test_roundtrip(self):
        obj = {"kind": "req", "id": "x-1", "params": {"keys": ["a", "b"], "n": 3}}
        assert JsonCodec.decode(JsonCodec.encode(obj)) == obj

    def test_plain_message_is_one_json_document(self):
        obj = {"n": [1, 2], "s": "\u00e9t\u00e9"}
        body = JsonCodec.encode(obj)
        json_len, n_blobs = struct.unpack_from(">II", body)
        assert n_blobs == 0 and len(body) == 8 + json_len
        assert json.loads(body[8:]) == obj

    def test_bytes_ride_raw_in_the_tail(self):
        payload = bytes(range(256)) * 16
        obj = {"entries": [["fp", payload]]}
        body = JsonCodec.encode(obj)
        json_len, n_blobs = struct.unpack_from(">II", body)
        assert n_blobs == 1
        assert body.endswith(payload)  # verbatim: no text encoding
        assert len(body) == 8 + json_len + 4 + len(payload)
        assert JsonCodec.decode(body) == obj

    def test_decoded_payloads_are_bytes_copies(self):
        body = JsonCodec.encode({"a": b"x" * 100, "b": [b"", b"yz"]})
        decoded = JsonCodec.decode(body)
        assert type(decoded["a"]) is bytes and decoded["a"] == b"x" * 100
        assert [type(v) for v in decoded["b"]] == [bytes, bytes]

    def test_reserved_key_next_to_bytes_rejected(self):
        with pytest.raises(FrameError):
            JsonCodec.encode({"\x00": 0, "payload": b"x"})
        with pytest.raises(FrameError):
            JsonCodec.encode([{"k": 1, "\x00": 0}, b"x"])
        # Without bytes there is no placeholder to confuse it with.
        assert JsonCodec.decode(JsonCodec.encode({"\x00": 0})) == {"\x00": 0}


class TestFrames:
    def test_roundtrip(self):
        obj = {"hello": "world", "n": [1, 2, 3]}
        decoded, consumed = decode_frame(encode_frame(obj))
        assert decoded == obj
        assert consumed == len(encode_frame(obj))

    def test_frames_are_self_describing(self):
        # A frame's header says where its JSON ends and its blobs lie, so
        # a reader decodes any message without knowing its shape up front.
        for obj in ({"n": 1}, {"chunks": {"a": b"1", "b": None, "c": b""}}):
            decoded, _ = decode_frame(encode_frame(obj))
            assert decoded == obj

    def test_truncated_frame_rejected(self):
        frame = encode_frame({"k": "v"})
        with pytest.raises(FrameError):
            decode_frame(frame[:-1])

    def test_short_header_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\x00")

    def test_tail_table_overrun_rejected(self):
        text = b'{"k":{"\\u0000":0}}'
        for body in (
            body_of(text, n_blobs=1_000_000, lengths=[]),  # table past the end
            body_of(text, [b"abc"], lengths=[4]),  # blob past the end
            body_of(text, [b"abc"], lengths=[2]),  # stray tail bytes
            body_of(text, [b"abc"], n_blobs=0, lengths=[]),  # no table at all
            body_of(b'{"k":{"\\u0000":1}}', [b"abc"]),  # no such blob
        ):
            with pytest.raises(FrameError):
                decode_frame(frame_of(body))

    def test_malformed_bodies_raise_frame_error(self):
        for frame in (
            b"\x00\x00\x00\x02\x00{",  # body shorter than its header
            frame_of(body_of(b"{")),  # not JSON
            frame_of(body_of(b"\xff\xfe")),  # not UTF-8
            frame_of(body_of(b'{"k":{"\\u0000":"x"}}', [b"a"])),  # bad placeholder
            frame_of(body_of(b"[" * 100_000 + b"]" * 100_000)),  # too deep
        ):
            with pytest.raises(FrameError):
                decode_frame(frame)

    def test_oversize_length_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\xff\xff\xff\xff" + b"x" * 16)

    def test_two_frames_back_to_back(self):
        buf = encode_frame({"i": 1}) + encode_frame({"i": 2})
        first, consumed = decode_frame(buf)
        second, _ = decode_frame(buf[consumed:])
        assert (first, second) == ({"i": 1}, {"i": 2})


class TestAsyncReadFrame:
    def test_reads_stream_of_frames(self):
        data = encode_frame({"i": 1}) + encode_frame({"i": 2, "b": b"\x00"})
        assert read_stream(data) == [{"i": 1}, {"i": 2, "b": b"\x00"}]  # then EOF

    def test_eof_mid_frame_is_an_error(self):
        with pytest.raises(FrameError):
            read_stream(encode_frame({"i": 1})[:-2])

    def test_oversize_prefix_rejected_before_the_body(self):
        # No EOF and no body: a reader that waited for the body would hang.
        with pytest.raises(FrameError):
            read_stream(struct.pack(">I", MAX_FRAME_BYTES + 1), eof=False)


# Messages the store could send: JSON values plus bytes anywhere. Dict keys
# avoid "\x00", the placeholder key a message with bytes may not use.
_keys = st.text(max_size=6).filter(lambda k: k != "\x00")
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
    | st.binary(max_size=48)
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=16,
)
# A message is a dict, as every envelope is (a bare null would read as EOF).
_messages = st.dictionaries(_keys, _values, max_size=4)


class TestFrameFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    @example(b"\x00\x00\x00\x02\x00{")
    def test_decode_frame_is_total(self, data):
        for frame in (data, frame_of(data)):
            try:
                decode_frame(frame)
            except FrameError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=24), st.lists(st.binary(max_size=8), max_size=3))
    def test_decode_of_structured_garbage_is_total(self, text, blobs):
        # Valid headers around arbitrary JSON text and tails reach the
        # parser instead of failing on the length checks.
        try:
            decode_frame(frame_of(body_of(text, blobs)))
        except FrameError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=48))
    def test_read_frame_on_arbitrary_streams(self, data):
        # A closed stream never leaves the reader waiting: read_stream's
        # hang guard would raise TimeoutError, which fails the property.
        try:
            read_stream(data)
        except FrameError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.dictionaries(_keys, _leaves, max_size=3), min_size=1, max_size=3), st.data())
    def test_truncated_streams_end_in_frame_error(self, messages, data):
        stream = b"".join(encode_frame(m) for m in messages)
        cut = data.draw(st.integers(min_value=0, max_value=len(stream)))
        bounds = [0]
        for m in messages:
            bounds.append(bounds[-1] + len(encode_frame(m)))
        whole = sum(1 for b in bounds[1:] if b <= cut)
        if cut in bounds:
            assert read_stream(stream[:cut]) == messages[:whole]
        else:
            with pytest.raises(FrameError):
                read_stream(stream[:cut])

    @settings(max_examples=60, deadline=None)
    @given(_messages)
    @example({"chunks": {"a": b"", "b": None, "\u00e9\u4e2d": [b"", b"x", "\U0001f600"]}})
    @example({"blobs": [b"\x00" * 3] * 300})
    @example({"entries": [[f"fp{i}", bytes([i]) * i] for i in range(40)]})
    def test_roundtrip_with_bytes(self, message):
        decoded, consumed = decode_frame(encode_frame(message))
        assert decoded == message
        assert consumed == len(encode_frame(message))


class TestEnvelopes:
    def test_request_roundtrip(self):
        req = Request("id-1", "multi_get", {"keys": ["a"]}, src="n0", dst="n1")
        assert Request.from_wire(req.to_wire()) == req

    def test_response_roundtrip(self):
        resp = Response.success("id-1", {"entries": {}})
        assert Response.from_wire(resp.to_wire()) == resp

    def test_failure_envelope_names_the_type(self):
        resp = Response.failure("id-2", ValueError("boom"))
        assert resp.error == {"type": "ValueError", "message": "boom"}

    def test_malformed_request_rejected(self):
        with pytest.raises(FrameError):
            Request.from_wire({"kind": "resp", "id": "x"})
        with pytest.raises(FrameError):
            Request.from_wire(["not", "a", "dict"])
        for bad in (
            {"kind": "req", "id": [1], "method": "ping"},
            {"kind": "req", "id": "x", "method": "ping", "params": [1]},
            {"kind": "req", "id": "x", "method": "ping", "deadline_s": "soon"},
        ):
            with pytest.raises(FrameError):
                Request.from_wire(bad)

    def test_correlation_ids_unique_across_clients(self):
        a, b = correlation_ids(), correlation_ids()
        ids = {next(a) for _ in range(100)} | {next(b) for _ in range(100)}
        assert len(ids) == 200


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(attempts=4, base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=10.0, jitter=0.0)
        assert list(policy.backoff_delays(random.Random(0))) == [0.1, 0.2, 0.4]

    def test_backoff_respects_ceiling(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.1, multiplier=10.0,
                             max_delay_s=0.3, jitter=0.0)
        assert list(policy.backoff_delays(random.Random(0))) == [0.1, 0.3, 0.3, 0.3]

    def test_jitter_stays_in_band_and_is_seeded(self):
        policy = RetryPolicy(attempts=6, base_delay_s=0.1, multiplier=1.0,
                             max_delay_s=0.1, jitter=0.5)
        delays = list(policy.backoff_delays(random.Random(42)))
        assert all(0.05 <= d <= 0.15 for d in delays)
        assert delays == list(policy.backoff_delays(random.Random(42)))

    def test_single_attempt_has_no_backoff(self):
        assert list(RetryPolicy(attempts=1).backoff_delays(random.Random(0))) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)

    def test_worst_case_bounds_the_schedule(self):
        policy = RetryPolicy(attempts=3, base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=1.0, jitter=0.5)
        assert policy.worst_case_s(0.25) == pytest.approx(3 * 0.25 + (0.1 + 0.2) * 1.5)


class TestFaultInjector:
    def test_no_rules_is_a_noop(self):
        inj = FaultInjector()
        plan = inj.plan_send("a", "b")
        assert not plan.drop and not plan.duplicate and plan.delay_s == 0.0
        assert not inj.should_drop_response("a", "b")

    def test_drop_times_budget(self):
        inj = FaultInjector()
        inj.drop_requests(times=2)
        assert inj.plan_send("a", "b").drop
        assert inj.plan_send("a", "b").drop
        assert not inj.plan_send("a", "b").drop  # budget spent
        assert inj.stats.dropped_requests == 2

    def test_pair_matching(self):
        inj = FaultInjector()
        inj.drop_requests(src="a", dst="b")
        assert inj.plan_send("a", "b").drop
        assert not inj.plan_send("b", "a").drop
        assert not inj.plan_send("a", "c").drop

    def test_delay_and_duplicate_compose(self):
        inj = FaultInjector()
        inj.delay_requests(0.01)
        inj.duplicate_requests()
        plan = inj.plan_send("a", "b")
        assert plan.delay_s == pytest.approx(0.01)
        assert plan.duplicate and not plan.drop

    def test_response_drop_is_separate_from_request_drop(self):
        inj = FaultInjector()
        inj.drop_responses(times=1)
        assert not inj.plan_send("a", "b").drop
        assert inj.should_drop_response("a", "b")
        assert not inj.should_drop_response("a", "b")

    def test_partition_is_symmetric_and_heals(self):
        inj = FaultInjector()
        inj.partition("a", "b")
        assert inj.plan_send("a", "b").drop
        assert inj.plan_send("b", "a").drop
        assert inj.should_drop_response("a", "b")
        assert not inj.plan_send("a", "c").drop
        inj.heal("a", "b")
        assert not inj.plan_send("a", "b").drop

    def test_probability_is_seeded(self):
        def run(seed):
            inj = FaultInjector(seed=seed)
            inj.drop_requests(probability=0.5)
            return [inj.plan_send("a", "b").drop for _ in range(50)]

        outcomes = run(1)
        assert outcomes == run(1)
        assert any(outcomes) and not all(outcomes)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("explode")
        with pytest.raises(ValueError):
            FaultRule("drop", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule("duplicate", direction="response")  # dup is request-only
        with pytest.raises(ValueError):
            FaultRule("drop", times=0)

    def test_heal_requires_both_or_neither(self):
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.heal("a")
