"""Fixture: near-miss patterns every trailint rule accepts."""

from repro.core.format import (
    decode_record_header, payload_crc32, restore_payload)
from repro.errors import LogFormatError


def guarded(action):
    try:
        return action()
    except Exception:
        raise


def scan(raw: bytes):
    try:
        return decode_record_header(raw)
    except LogFormatError:
        return None


def replay(header, masked: bytes):
    if payload_crc32(masked) != header.payload_crc:
        return None
    return restore_payload(header.entries, masked)
