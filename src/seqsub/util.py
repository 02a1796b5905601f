"""Small shared helpers: bitmask sets, JSON files and field access."""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator

from .errors import ValidationError


def mask_of(items: Iterable[int]) -> int:
    """Bitmask with bit j set for each 0-based product j in `items`."""
    m = 0
    for j in items:
        m |= 1 << j
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def json_field(data, key: str, convert: Callable, where: str):
    """convert(data[key]); a ValidationError naming `key` if it is missing or ill-typed."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValidationError(f"{where}: missing key {key!r}")
    try:
        return convert(data[key])
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"{where}: ill-typed key {key!r} ({exc})") from None


def read_json(path):
    """Parse the JSON file at `path`; a ValidationError naming the file if malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def dumps(data) -> str:
    """`data` as indented JSON with sorted keys and a final newline: the text
    of every file the package writes and of every JSON report."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_json(path, data) -> None:
    """Write dumps(data) to `path`, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))
