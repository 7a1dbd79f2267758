"""Atomic file commits, sha256 digests, and JSON reading and writing.

Every file the library writes goes through `atomic_open`, so a reader, or a
crash at any point, sees the old file or the complete new one, never a prefix.
Every JSON file it reads is parsed here too, by `read_json*` or `parse_json_lines`.
"""
from __future__ import annotations

import contextlib
import json
import os
import threading


@contextlib.contextmanager
def atomic_open(path, mode: str):
    """Write `<path>.tmp.<pid>.<thread id>` ("w" is UTF-8 text, "wb" binary);
    a clean exit commits it by fsync + rename + fsync of the directory, so the
    new name survives a crash too; anything raised removes it."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(os.path.dirname(os.path.abspath(path)))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _fsync_dir(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sha256_hex(data: bytes) -> str:
    """Hex sha256 of `data`."""
    import hashlib  # on use: it loads OpenSSL, ~4 MB of RSS
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    """Hex sha256 of a file, read in 1 MiB chunks."""
    import hashlib  # on use: it loads OpenSSL, ~4 MB of RSS
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# json.dumps builds a new JSONEncoder per call when given separators; every
# JSON-lines writer shares this one, which holds no state between calls.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def write_json(path, obj) -> None:
    """Commit `obj` as indented JSON with a trailing newline."""
    with atomic_open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


# built once: json.loads with parse_constant builds a decoder per call
_decode = json.JSONDecoder(parse_constant=_refuse_constant).decode


def _parse(raw: bytes, parse, error, name):
    try:
        return parse(_decode(raw.decode("utf-8")))
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise error(f"{name}: {type(exc).__name__}: {exc}") from exc


def read_json(path, parse, error):
    """`parse` of the JSON in the file at `path`. A file that is not UTF-8
    JSON, or a value that `parse` refuses with a ValueError, LookupError,
    TypeError or AttributeError, raises `error` naming the file."""
    with open(path, "rb") as fh:
        return _parse(fh.read(), parse, error, path)


def parse_json_lines(data: bytes, parse, error, name) -> list:
    """`parse` of each non-blank line of the JSON-lines bytes `data`, in
    order, refused as in `read_json`; `error` names `name` and the line."""
    return [
        _parse(line, parse, error, f"{name} line {n}")
        for n, line in enumerate(data.splitlines(), start=1) if line.strip()
    ]


def read_json_lines(path, parse, error) -> list:
    """`parse_json_lines` of the file at `path`."""
    with open(path, "rb") as fh:
        return parse_json_lines(fh.read(), parse, error, path)


def string_list(value) -> list:
    """`value` if it is a JSON array of strings, else TypeError."""
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise TypeError(f"expected an array of strings, got {value!r:.60}")
    return value
