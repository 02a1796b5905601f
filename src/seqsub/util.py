"""Small shared helpers: bitmask sets, JSON files and field access."""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Iterable, Iterator

from .errors import ValidationError

#: Types whose JSON text holds no item separator: the leaves of a report.
_SCALARS = frozenset((str, int, float, bool, type(None)))


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
    of every file the package writes and of every JSON report. It is byte for
    byte json.dumps(data, indent=2, sort_keys=True) + "\n", but json's C
    encoder writes each container of scalars, and a list renders each distinct
    item object once (a revenue report's trials share one entry per order)."""
    encoders = {}

    def flat(o, level: int) -> str:  # json's compact text, with items `level` indents apart
        if level not in encoders:
            default, sep = json.JSONEncoder().default, ",\n" + "  " * level
            encoders[level] = c_make_encoder(  # json.dumps(sort_keys=True)'s but for `sep`
                None, default, encode_basestring_ascii, None, ": ", sep, True, False, True
            )
        return "".join(encoders[level](o, 0))

    def key(k) -> str:  # json's spelling of a non-str key, or its TypeError
        return encode_basestring_ascii(k) if isinstance(k, str) else flat({k: 0}, 0)[1:-4]

    def text(o, level: int) -> str:
        if not isinstance(o, (dict, list, tuple)):
            return flat(o, 0)
        inner = "\n" + "  " * (level + 1)
        values = o.values() if isinstance(o, dict) else o
        if _SCALARS.issuperset(map(type, values)):
            body = flat(o, level + 1)[1:-1]
        elif values is o:
            texts = {id(v): v for v in o}
            texts = {i: text(v, level + 1) for i, v in texts.items()}
            body = ("," + inner).join([texts[id(v)] for v in o])
        else:
            items = sorted(o.items())
            body = ("," + inner).join([key(k) + ": " + text(v, level + 1) for k, v in items])
        ends = "[]" if values is o else "{}"
        return ends[0] + inner + body + inner[:-2] + ends[1] if o else ends

    return text(data, 0) + "\n"


def write_json(path, data) -> None:
    """Write dumps(data) to `path`, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))
