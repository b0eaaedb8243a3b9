"""Fixture: decode/replay without CRC discipline (TRL008)."""

from repro.core.format import decode_record_header, restore_payload


def scan(raw: bytes):
    return decode_record_header(raw)  # expect: TRL008


def replay(entries, masked: bytes) -> bytes:
    return restore_payload(entries, masked)  # expect: TRL008
