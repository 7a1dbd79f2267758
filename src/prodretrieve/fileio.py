"""Atomic file commits, streaming file hashes and compact JSON lines.

Every file the library writes goes through `atomic_open`, so a reader, or a
crash at any point, sees the old file or the complete new one, never a prefix.
"""
from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_open(path, mode: str):
    """Write `<path>.tmp.<pid>` ("w" is UTF-8 text, "wb" binary); a clean exit
    commits it by fsync + rename, anything raised removes it."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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
