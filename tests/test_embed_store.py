import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodretrieve import embed_store
from prodretrieve.errors import (
    DuplicateId,
    IoFailure,
    MagicMismatch,
    MisalignedScales,
    NonFiniteValue,
    TruncatedFile,
    ZeroVector,
)
from prodretrieve.embed_store import (
    EmbeddingSet,
    ScaleGroup,
    fuse_multiscale,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)


def make_set(ids, rows):
    return EmbeddingSet(ids=tuple(ids), vectors=np.asarray(rows, dtype=np.float32))


@st.composite
def embedding_sets(draw):
    dim = draw(st.integers(min_value=1, max_value=16))
    n = draw(st.integers(min_value=0, max_value=12))
    ids = draw(
        st.lists(
            st.text(min_size=1, max_size=20), min_size=n, max_size=n, unique=True
        )
    )
    rows = draw(
        st.lists(
            st.lists(
                st.floats(
                    min_value=-1e6, max_value=1e6, allow_nan=False, width=32
                ),
                min_size=dim, max_size=dim,
            ),
            min_size=n, max_size=n,
        )
    )
    return EmbeddingSet(
        ids=tuple(ids), vectors=np.asarray(rows, dtype=np.float32).reshape(n, dim)
    )


class TestFormat:
    def test_round_trip_small(self, tmp_path):
        emb = make_set(["a", "b", "c"], np.arange(12).reshape(3, 4))
        path = tmp_path / "x.emb"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.ids == emb.ids
        assert back.vectors.tobytes() == emb.vectors.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_load_from_a_pipe(self, tmp_path):
        """A pipe (`--queries <(cat q.emb)`) has no size to read up front."""
        emb = make_set([f"i{k}" for k in range(300)], np.arange(300 * 64).reshape(300, 64))
        path = tmp_path / "x.emb"
        save_embeddings(emb, path)
        data = path.read_bytes()
        r, w = os.pipe()
        writer = threading.Thread(target=lambda: (os.write(w, data), os.close(w)))
        writer.start()  # the file is larger than the pipe's buffer
        try:
            back = load_embeddings(f"/dev/fd/{r}")
        finally:
            writer.join()
            os.close(r)
        assert back.ids == emb.ids
        assert back.vectors.tobytes() == emb.vectors.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(embedding_sets())
    def test_round_trip_property(self, tmp_path_factory, emb):
        path = tmp_path_factory.mktemp("rt") / "x.emb"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.ids == emb.ids
        assert back.vectors.tobytes() == emb.vectors.tobytes()

    def test_empty_set_is_header_only(self, tmp_path):
        emb = EmbeddingSet(ids=(), vectors=np.zeros((0, 2048), dtype=np.float32))
        path = tmp_path / "empty.emb"
        save_embeddings(emb, path)
        data = path.read_bytes()
        assert len(data) == 16
        magic, count, dim, reserved = struct.unpack("<4sIII", data)
        assert (magic, count, dim, reserved) == (b"EMB1", 0, 2048, 0)

    def test_byte_layout_by_hand(self, tmp_path):
        # 2 items, dim 2: header 16 + (2+1) + (2+2) id bytes + 16 payload
        emb = make_set(["a", "bc"], [[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "x.emb"
        save_embeddings(emb, path)
        data = path.read_bytes()
        assert len(data) == 16 + 3 + 4 + 16
        assert data[:16] == struct.pack("<4sIII", b"EMB1", 2, 2, 0)
        assert data[16:19] == b"\x01\x00a"
        assert data[19:23] == b"\x02\x00bc"
        assert data[23:] == np.array(
            [[1.0, 2.0], [3.0, 4.0]], dtype="<f4"
        ).tobytes()

    def test_deterministic_bytes(self, tmp_path):
        emb = make_set(["p", "q"], np.random.default_rng(0).normal(size=(2, 8)))
        a, b = tmp_path / "a.emb", tmp_path / "b.emb"
        save_embeddings(emb, a)
        save_embeddings(emb, b)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(MagicMismatch):
            load_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        emb = make_set([f"i{k}" for k in range(100)],
                       np.ones((100, 32), dtype=np.float32))
        path = tmp_path / "x.emb"
        save_embeddings(emb, path)
        data = path.read_bytes()
        cut = len(data) - (100 * 32 * 4) // 2  # drop half the payload
        (tmp_path / "trunc.emb").write_bytes(data[:cut])
        with pytest.raises(TruncatedFile):
            load_embeddings(tmp_path / "trunc.emb")

    def test_truncated_id_block(self, tmp_path):
        emb = make_set(["abcdef"], np.ones((1, 4), dtype=np.float32))
        path = tmp_path / "x.emb"
        save_embeddings(emb, path)
        (tmp_path / "trunc.emb").write_bytes(path.read_bytes()[:18])
        with pytest.raises(TruncatedFile):
            load_embeddings(tmp_path / "trunc.emb")

    def test_failed_save_keeps_old_file(self, tmp_path):
        """An id too long for EMB1 fails the save; the file already at the
        path survives and no temp file is left."""
        path = tmp_path / "a.emb"
        save_embeddings(make_set(["old"], [[1.0, 2.0]]), path)
        before = path.read_bytes()
        bad = make_set(["ok", "x" * 70_000], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(IoFailure):
            save_embeddings(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.emb"]

    def test_id_block_bytes_across_batches(self, tmp_path):
        """More ids than one batch holds, some with a 2-byte UTF-8 character:
        the file is the header, each id's (uint16 length, bytes) record, then
        the payload."""
        n = 2 * embed_store.ID_BATCH + 3
        ids = [f"{'é' if i % 3 else 'a'}{i}" for i in range(n)]
        emb = make_set(ids, np.arange(2 * n, dtype=np.float32).reshape(n, 2))
        path = tmp_path / "x.emb"
        save_embeddings(emb, path)
        records = b"".join(
            struct.pack("<H", len(i.encode())) + i.encode() for i in ids
        )
        assert path.read_bytes() == (
            struct.pack("<4sIII", b"EMB1", n, 2, 0) + records + emb.vectors.tobytes()
        )
        assert load_embeddings(path).ids == emb.ids

    def test_id_length_limit(self, tmp_path):
        """A 65,535-byte id fits its uint16 length; a 65,536-byte one is
        refused, in a later batch than the first, leaving no file behind."""
        path = tmp_path / "ok.emb"
        save_embeddings(make_set(["é" * 32767 + "a"], [[1.0]]), path)
        assert load_embeddings(path).ids == ("é" * 32767 + "a",)
        n = embed_store.ID_BATCH + 1
        ids = [f"i{k}" for k in range(n - 1)] + ["é" * 32768]
        with pytest.raises(IoFailure):
            save_embeddings(make_set(ids, np.zeros((n, 1))), tmp_path / "bad.emb")
        assert [p.name for p in tmp_path.iterdir()] == ["ok.emb"]

    def test_load_peak_memory_about_file_size(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "big.emb"
        save_embeddings(
            make_set([f"i{i}" for i in range(10_000)],
                     rng.standard_normal((10_000, 1024), dtype=np.float32)),
            path,
        )
        size = path.stat().st_size
        tracemalloc.start()
        try:
            emb = load_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emb.vectors.shape == (10_000, 1024)
        assert peak < 1.5 * size, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB file"


class TestValidation:
    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            make_set(["a", "a"], np.ones((2, 2)))

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            make_set(["a"], [[np.nan, 1.0]])
        with pytest.raises(NonFiniteValue):
            make_set(["a"], [[np.inf, 1.0]])

    def test_empty_id(self):
        with pytest.raises(ValueError):
            make_set([""], np.ones((1, 2)))

    def test_vectors_read_only(self):
        emb = make_set(["a"], np.ones((1, 2)))
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 5.0


class TestNormalize:
    def test_three_four_five(self):
        emb = make_set(["a"], [[3.0, 4.0]])
        out = l2_normalize(emb)
        np.testing.assert_allclose(out.vectors[0], [0.6, 0.8], atol=1e-7)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        emb = make_set([f"i{k}" for k in range(10)], rng.normal(size=(10, 16)))
        once = l2_normalize(emb)
        twice = l2_normalize(once)
        np.testing.assert_allclose(once.vectors, twice.vectors, atol=1e-6)

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        out = l2_normalize(
            make_set([f"i{k}" for k in range(20)], rng.normal(size=(20, 64)) * 100)
        )
        norms = np.linalg.norm(out.vectors.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6

    def test_zero_vector_is_error(self):
        with pytest.raises(ZeroVector):
            l2_normalize(make_set(["a", "b"], [[1.0, 0.0], [0.0, 0.0]]))

    def test_preserves_cosine_ordering(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(8, 16)) * rng.uniform(0.5, 20, size=(8, 1))
        emb = make_set([f"i{k}" for k in range(8)], raw)
        normed = l2_normalize(emb)
        q = normed.vectors[0]
        raw64 = raw.astype(np.float64)
        cos_raw = (raw64 @ raw64[0]) / (
            np.linalg.norm(raw64, axis=1) * np.linalg.norm(raw64[0])
        )
        cos_norm = normed.vectors.astype(np.float64) @ q
        assert list(np.argsort(-cos_raw)) == list(np.argsort(-cos_norm))


class TestFusion:
    def _sets(self, rng, n_scales, n=5, dim=8):
        ids = [f"i{k}" for k in range(n)]
        return [
            (f"s{j}", make_set(ids, rng.normal(size=(n, dim))))
            for j in range(n_scales)
        ]

    def test_identical_scales(self):
        rng = np.random.default_rng(6)
        member = make_set(["a", "b"], rng.normal(size=(2, 4)))
        fused = fuse_multiscale(ScaleGroup((("x", member), ("y", member))))
        np.testing.assert_allclose(
            fused.vectors, l2_normalize(member).vectors, atol=1e-6
        )

    def test_single_member_equals_normalize(self):
        rng = np.random.default_rng(7)
        member = make_set(["a", "b", "c"], rng.normal(size=(3, 6)))
        fused = fuse_multiscale(ScaleGroup((("only", member),)))
        np.testing.assert_allclose(
            fused.vectors, l2_normalize(member).vectors, atol=1e-6
        )

    def test_orthogonal_pair_hits_diagonal(self):
        a = make_set(["x"], [[1.0, 0.0]])
        b = make_set(["x"], [[0.0, 1.0]])
        fused = fuse_multiscale(ScaleGroup((("a", a), ("b", b))))
        np.testing.assert_allclose(
            fused.vectors[0], [0.70710678, 0.70710678], atol=1e-6
        )

    def test_against_reference_computation(self):
        rng = np.random.default_rng(8)
        scales = self._sets(rng, 3)
        fused = fuse_multiscale(ScaleGroup(tuple(scales)))
        # independent reference: normalize(mean(normalize(row))) in float64
        for r in range(5):
            rows = [m.vectors[r].astype(np.float64) for _, m in scales]
            rows = [v / np.linalg.norm(v) for v in rows]
            mean = sum(rows) / len(rows)
            expect = mean / np.linalg.norm(mean)
            np.testing.assert_allclose(fused.vectors[r], expect, atol=1e-6)

    def test_scale_order_invariance(self):
        rng = np.random.default_rng(9)
        scales = self._sets(rng, 3)
        a = fuse_multiscale(ScaleGroup(tuple(scales)))
        b = fuse_multiscale(ScaleGroup(tuple(reversed(scales))))
        assert np.abs(a.vectors - b.vectors).max() <= 1e-6

    def test_misaligned_ids(self):
        rng = np.random.default_rng(10)
        a = make_set(["a", "b"], rng.normal(size=(2, 4)))
        b = make_set(["b", "a"], rng.normal(size=(2, 4)))
        with pytest.raises(MisalignedScales):
            ScaleGroup((("x", a), ("y", b)))

    def test_zero_row_is_error(self):
        a = make_set(["a"], [[0.0, 0.0]])
        with pytest.raises(ZeroVector):
            fuse_multiscale(ScaleGroup((("x", a),)))
