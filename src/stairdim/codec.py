"""One codec between the config dataclasses and their JSON form.

``to_dict`` writes every field: nested dataclasses as objects, tuples as
lists, ``*_rad`` fields in degrees under ``*_deg`` keys. ``from_dict`` lays a
JSON object over a default instance, checks each value against its field's
annotation and rejects unknown keys; ``scenario`` lists the file rules. Every
failure is a ValueError, or a KeyError naming a missing key that a field's
``metadata={"required": True}`` demands.

``read_json`` reads every JSON input file and names the file in its
ValueError, and ``naming`` names a file in the errors of checking what was
read from it; ``write_json`` writes every JSON artifact in the indented,
key-sorted form that keeps fixed-seed reruns byte-identical.

``rewrite`` is the one way the package writes a file. It rewrites an
existing file in place instead of truncating it on open, which would free its
blocks only for the new bytes to allocate them again, and cuts the file at
the last byte written when it closes, so no tail of a longer old file is left.
A writer killed before that cut can leave the new bytes followed by the old
file's tail, at the old length. A reader that must not take such a file keeps
a record that is written after the files it vouches for: ``stairdim
simulate`` removes a walk's sidecar before rewriting its cubes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import types
import typing
from pathlib import Path

__all__ = ["to_dict", "from_dict", "naming", "read_json", "read_json_object", "rewrite", "write_json"]

_BAD = object()  # _check's verdict on a value that does not fit


def _key(name: str) -> str:
    return name[: -len("_rad")] + "_deg" if name.endswith("_rad") else name


def _encode(name: str, value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_encode(name, v) for v in value]
    if name.endswith("_rad"):
        return math.degrees(value)
    return value


def to_dict(obj) -> dict:
    """``obj`` (a dataclass instance) as plain JSON-ready data."""
    return {_key(f.name): _encode(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)}


@functools.cache
def _fields(cls) -> tuple:
    # resolving the string annotations costs more than the rest of a decode
    hints = typing.get_type_hints(cls)
    return tuple((f, _key(f.name), hints[f.name]) for f in dataclasses.fields(cls))


def _check(tp, value):
    """``value`` converted to annotation ``tp``, or _BAD."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None if type(None) in args else _BAD
        (tp,) = [a for a in args if a is not type(None)]
        return _check(tp, value)
    if origin is tuple:
        if not isinstance(value, list):
            return _BAD
        item_types = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(item_types) != len(value):
            return _BAD
        items = tuple(_check(t, v) for t, v in zip(item_types, value))
        return _BAD if any(v is _BAD for v in items) else items
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is float and number and (isinstance(value, float) or abs(value) <= sys.float_info.max):
        return float(value)
    if tp is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if tp in (bool, str) and isinstance(value, tp):
        return value
    return _BAD


def from_dict(base, d, section: str = ""):
    """The dataclass instance ``base`` with the JSON object ``d`` laid over it.

    ``section`` is the dotted path of ``d`` within the file, for messages.
    """
    where = f"scenario section {section!r}" if section else "scenario"
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    known = _fields(type(base))
    unknown = sorted(set(d) - {key for _, key, _ in known})
    if unknown:
        raise ValueError(f"{where} has unknown key {unknown[0]!r}")
    changes = {}
    for f, key, tp in known:
        if key not in d:
            if f.metadata.get("required"):
                raise KeyError(key)
            continue
        path = f"{section}.{key}" if section else key
        if dataclasses.is_dataclass(tp):
            changes[f.name] = from_dict(getattr(base, f.name), d[key], path)
            continue
        value = _check(tp, d[key])
        if value is _BAD:
            raise ValueError(f"scenario key {path!r} must be {f.type}, got {d[key]!r}")
        changes[f.name] = math.radians(value) if f.name.endswith("_rad") else value
    return dataclasses.replace(base, **changes)


def read_json(path: str | Path):
    """The JSON value in file ``path``; text that is not JSON is a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None


def read_json_object(path: str | Path) -> dict:
    """``read_json`` of a file that must hold a JSON object."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: must hold a JSON object, got {type(doc).__name__}")
    return doc


@contextlib.contextmanager
def naming(path: str | Path):
    """A ValueError or KeyError raised in the block, as a ValueError that starts with ``path``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing required key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextlib.contextmanager
def rewrite(path: str | Path, binary: bool = False):
    """A file object that writes ``path`` from its first byte, created if missing.

    Text is UTF-8 and written as given, with no newline translation. The file
    is opened without ``O_TRUNC``, with the mode bits ``open(path, "w")``
    gives a new file. On exit, whether the block finished or raised, the file
    is cut at the position reached and closed: it holds exactly the bytes
    written.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    fh = os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", encoding="utf-8", newline="")
    try:
        yield fh
    finally:
        try:
            fh.truncate()  # flushes, then cuts at the current position
        finally:
            fh.close()


def write_json(doc, path: str | Path) -> None:
    """``doc`` written to ``path`` indented, with sorted keys and a final newline."""
    with rewrite(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
