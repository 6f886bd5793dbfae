"""Length-prefixed wire framing: a JSON message with its bytes carried raw.

A frame on the wire is::

    +--------+----------+---------+--------+---------------+-------------+
    | length | json_len | n_blobs | JSON   | blob lengths  | blob bytes  |
    | u32    | u32      | u32     |        | n_blobs x u32 | back to back|
    +--------+----------+---------+--------+---------------+-------------+

Every integer is big-endian. ``length`` covers the rest of the frame (the
*body*), so a reader needs exactly two ``readexactly`` calls per frame.

The message is JSON, except that every ``bytes`` value in it is lifted
out into the frame's tail: the JSON holds the placeholder ``{"\\u0000": i}``
in its place and blob ``i`` of the tail holds the bytes, uncopied by any
text encoding. Chunk payloads (``put_chunks``, ``get_chunks``,
``chunk_dump``) thereby cross the wire raw, while the envelope, the
fingerprints and the metadata stay greppable JSON. A frame without
``bytes`` values has an empty tail and decodes with one ``json.loads``.
Because of the placeholder, a message that carries ``bytes`` must not use
``"\\x00"`` as a dict key (encoding it raises :class:`FrameError`).

Decoding is total: any malformed body — a short header, a tail table that
overruns the body, bytes left over, text that is not UTF-8 JSON, a bad
placeholder — raises :class:`FrameError` and nothing else. Decoded blobs
are ``bytes`` copies of their slice of the body, so a payload kept by the
caller never pins the whole frame buffer.

:class:`JsonCodec` is the one codec. :func:`encode_frame` and
:func:`read_frame` look its ``encode``/``decode`` up on the class per
frame, so wrapping those attributes wraps every frame either end sends.
"""

from __future__ import annotations

import asyncio
import json
import re
import struct
from typing import Any, Optional

from repro.rpc.errors import FrameError

# A frame larger than this is a protocol violation, not a big message —
# reject it instead of letting a corrupt length prefix allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")
_HEAD = struct.Struct(">II")  # json_len, n_blobs

# Placeholder key for a lifted bytes value: {"\x00": blob index}.
_BLOB = "\x00"
# A "\x00" dict key in the JSON text; only placeholders may produce one.
_BLOB_KEY = re.compile(rb'[{,]"\\u0000":')
# Encodes a message without bytes; shared, as encoding keeps no state.
_PLAIN = json.JSONEncoder(separators=(",", ":"))


class JsonCodec:
    """The wire codec: a message body is JSON plus a raw-bytes tail."""

    @staticmethod
    def encode(obj: Any) -> bytes:
        """Serialize ``obj`` into a frame body (everything after the length)."""
        try:
            text = _PLAIN.encode(obj).encode("utf-8")
        except TypeError:
            return _encode_lifted(obj)  # a bytes value (or a bad type)
        return _HEAD.pack(len(text), 0) + text

    @staticmethod
    def decode(body: bytes) -> Any:
        """Parse a frame body back into the message.

        Raises:
            FrameError: any malformed body.
        """
        if len(body) < _HEAD.size:
            raise FrameError(f"frame body needs {_HEAD.size} header bytes, got {len(body)}")
        json_len, n_blobs = _HEAD.unpack_from(body)
        text_end = _HEAD.size + json_len
        if n_blobs:
            blobs = _split_tail(body, text_end, n_blobs)
        elif text_end != len(body):
            raise FrameError(f"frame header names {json_len} JSON bytes, body has {len(body)}")
        try:
            text = body[_HEAD.size : text_end].decode("utf-8")
            if not n_blobs:
                return json.loads(text)
            return json.loads(text, object_hook=lambda obj: _place(obj, blobs))
        except (ValueError, RecursionError) as exc:
            raise FrameError(f"frame body is not a JSON message: {exc}") from None


def _encode_lifted(obj: Any) -> bytes:
    """Encode a message holding bytes: each one becomes a placeholder in
    the JSON and a blob in the tail."""
    blobs: list[bytes] = []

    def lift(value: Any) -> dict:
        if isinstance(value, (bytes, bytearray)):
            blobs.append(value)
            return {_BLOB: len(blobs) - 1}
        raise TypeError(f"{type(value).__name__} is not wire-serializable")

    text = json.dumps(obj, separators=(",", ":"), default=lift).encode("utf-8")
    if len(_BLOB_KEY.findall(text)) != len(blobs):
        raise FrameError("a message carrying bytes may not use the reserved dict key '\\x00'")
    table = struct.pack(f">{len(blobs)}I", *map(len, blobs))
    return b"".join([_HEAD.pack(len(text), len(blobs)), text, table, *blobs])


def _split_tail(body: bytes, text_end: int, n_blobs: int) -> list[bytes]:
    """The blobs after the JSON, each a copy of its slice of the body."""
    table_end = text_end + 4 * n_blobs
    if table_end > len(body):
        raise FrameError(
            f"frame header ({text_end - _HEAD.size} JSON bytes, {n_blobs} blobs) "
            f"overruns its {len(body)}-byte body"
        )
    lengths = struct.unpack_from(f">{n_blobs}I", body, text_end)
    if sum(lengths) != len(body) - table_end:
        raise FrameError(
            f"blob table names {sum(lengths)} bytes, the tail holds {len(body) - table_end}"
        )
    blobs = []
    start = table_end
    for n in lengths:
        blobs.append(body[start : start + n])
        start += n
    return blobs


def _place(obj: dict, blobs: list[bytes]) -> Any:
    """Swap a placeholder dict for its blob (``json.loads`` object hook)."""
    if _BLOB not in obj:
        return obj
    index = obj[_BLOB]
    if len(obj) != 1 or type(index) is not int or not 0 <= index < len(blobs):
        raise FrameError(f"bad blob placeholder {obj!r}")
    return blobs[index]


def _check_body_len(body_len: int) -> None:
    if body_len < _HEAD.size:
        raise FrameError(f"frame body length must be >= {_HEAD.size}, got {body_len}")
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {body_len} bytes exceeds limit {MAX_FRAME_BYTES}")


def encode_frame(obj: Any) -> bytes:
    """Serialize ``obj`` into one complete wire frame."""
    body = JsonCodec.encode(obj)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds limit {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def decode_frame(frame: bytes) -> tuple[Any, int]:
    """Decode one complete frame; returns ``(message, bytes_consumed)``.

    Raises:
        FrameError: short buffer, bad length, or a malformed body.
    """
    if len(frame) < _LEN.size:
        raise FrameError(f"frame header needs {_LEN.size} bytes, got {len(frame)}")
    (body_len,) = _LEN.unpack_from(frame)
    _check_body_len(body_len)
    end = _LEN.size + body_len
    if len(frame) < end:
        raise FrameError(f"truncated frame: need {end} bytes, got {len(frame)}")
    return JsonCodec.decode(bytes(frame[_LEN.size : end])), end


async def write_frame(writer: asyncio.StreamWriter, obj: Any) -> None:
    """Write one framed message and drain the transport."""
    writer.write(encode_frame(obj))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> Optional[Any]:
    """Read one framed message; returns None on clean EOF at a frame boundary.

    The length prefix is checked before the body is read, so a corrupt or
    hostile prefix never makes the reader wait for (or buffer) a body
    above :data:`MAX_FRAME_BYTES`.

    Raises:
        FrameError: bad length, a malformed body, or EOF inside a frame.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise FrameError(
            f"connection closed mid-header ({len(exc.partial)} of {_LEN.size} bytes)"
        ) from None
    (body_len,) = _LEN.unpack(header)
    _check_body_len(body_len)
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)} of {body_len} bytes)"
        ) from None
    return JsonCodec.decode(body)
