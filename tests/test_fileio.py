import hashlib
import os

import pytest

from prodretrieve.fileio import atomic_open, sha256_file, write_json


def test_commit_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with atomic_open(path, "w") as fh:
        fh.write("new")
        # nothing is visible at the path until the commit
        assert path.read_text() == "old"
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_error_in_body_keeps_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("writer died")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failed_rename_removes_temp(tmp_path):
    path = tmp_path / "taken"
    path.mkdir()
    with pytest.raises(OSError):
        with atomic_open(path, "wb") as fh:
            fh.write(b"data")
    assert os.listdir(tmp_path) == ["taken"]


def test_sha256_file_streams_past_one_chunk(tmp_path):
    data = os.urandom((1 << 20) + 123)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_write_json_format(tmp_path):
    path = tmp_path / "obj.json"
    write_json(path, {"a": [1, 2], "é": "x"})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "\\u00e9": "x"\n}\n'
    )
