import hashlib
import os
import re
import stat
import threading

import pytest

from prodretrieve.fileio import (
    atomic_open,
    read_json,
    read_json_lines,
    sha256_file,
    sha256_hex,
    string_list,
    write_json,
)


class Refused(Exception):
    pass


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


def test_commit_fsyncs_file_then_directory(tmp_path, monkeypatch):
    """The directory is fsynced once, after the rename, so the new name is
    durable when atomic_open returns."""
    path = tmp_path / "out.txt"
    real_fsync = os.fsync
    synced = []

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        synced.append(("dir", path.read_text()) if is_dir else ("file", None))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with atomic_open(path, "w") as fh:
        fh.write("new")
    assert synced == [("file", None), ("dir", "new")]


def test_two_threads_one_path_each_commit_whole_file(tmp_path):
    """Both threads hold their temp file open at once; each commit is whole
    and no temp file is left."""
    path = tmp_path / "out.txt"
    both_open = threading.Barrier(2, timeout=10)
    errors = []

    def write(char):
        try:
            with atomic_open(path, "w") as fh:
                fh.write(char * 50_000)
                fh.flush()
                both_open.wait()
                fh.write(char * 50_000)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(c,)) for c in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert errors == []
    assert path.read_text() in ("a" * 100_000, "b" * 100_000)
    assert os.listdir(tmp_path) == ["out.txt"]

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


def test_sha256_hex():
    assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()


def test_read_json_lines_skips_blank_lines_and_names_the_bad_one(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a": 1}\n\n  \n{"a": 2}\r\n{"b": 3}\n')
    with pytest.raises(Refused, match=f"^{re.escape(str(path))} line 5: KeyError: 'a'$"):
        read_json_lines(path, lambda obj: obj["a"], Refused)
    path.write_bytes(b'{"a": 1}\n\n  \n{"a": 2}\r\n')
    assert read_json_lines(path, lambda obj: obj["a"], Refused) == [1, 2]


@pytest.mark.parametrize("data,error", [
    (b'{"a": [1', "JSONDecodeError"),
    (b'{"a": "\xff"}', "UnicodeDecodeError"),
    (b'[1]', "TypeError"),
    (b'{"a": "x"}', "ValueError"),
])
def test_read_json_refusals_name_the_file(tmp_path, data, error):
    path = tmp_path / "x.json"
    path.write_bytes(data)
    with pytest.raises(Refused, match=f"^{re.escape(str(path))}: {error}: "):
        read_json(path, lambda obj: int(obj["a"]), Refused)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_refused(tmp_path, constant):
    """json.loads reads these as floats; no reader takes them."""
    path = tmp_path / "x.jsonl"
    path.write_text(f"[1.5]\n[{constant}]\n")
    message = f"^{re.escape(str(path))} line 2: ValueError: {constant} is not a JSON number$"
    with pytest.raises(Refused, match=message):
        read_json_lines(path, list, Refused)


def test_read_json_leaves_other_errors_alone(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "absent.json", dict.copy, Refused)


@pytest.mark.parametrize("value", ["ab", ["a", 1], ("a",), None, {"a": "b"}])
def test_string_list_refuses_all_but_an_array_of_strings(value):
    with pytest.raises(TypeError):
        string_list(value)
    assert string_list(["a", ""]) == ["a", ""]
