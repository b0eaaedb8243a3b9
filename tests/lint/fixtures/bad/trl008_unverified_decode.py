"""Fixture: decode/replay without CRC discipline (TRL008)."""

from repro.core.format import decode_record_header, restore_payload


def scan(raw: bytes):
    return decode_record_header(raw)


def replay(entries, masked: bytes) -> bytes:
    return restore_payload(entries, masked)
