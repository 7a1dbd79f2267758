"""Embedding containers, the EMB1 on-disk format, and multi-scale fusion.

An EmbeddingSet is the universal currency of the pipeline: an ordered list
of item ids paired with one float32 feature row each. Sets are immutable
after construction and safe to share across parallel workers.

EMB1 binary layout (all integers little-endian):

    bytes 0-3    magic ASCII "EMB1"
    bytes 4-7    uint32 count N
    bytes 8-11   uint32 dim D
    bytes 12-15  reserved, zero
    id block     N records of (uint16 length, UTF-8 bytes)
    payload      N*D float32, row-major
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateId,
    IoFailure,
    MagicMismatch,
    MisalignedScales,
    NonFiniteValue,
    TruncatedFile,
    ZeroVector,
)
from .fileio import atomic_open

MAGIC = b"EMB1"
HEADER = struct.Struct("<4sIII")
ID_BATCH = 4096  # ids per write of the id block: a save holds one batch's records

# Norm below this is treated as a corrupt/degenerate vector, never clamped.
ZERO_NORM_EPS = 1e-12


@dataclass(frozen=True)
class EmbeddingSet:
    """Ordered ids plus a float32 (n, dim) matrix, validated on construction."""

    ids: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if vecs.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vecs.shape}")
        object.__setattr__(self, "ids", tuple(self.ids))
        if len(self.ids) != vecs.shape[0]:
            raise ValueError(
                f"{len(self.ids)} ids but {vecs.shape[0]} vector rows"
            )
        for i in self.ids:
            if not isinstance(i, str) or not i:
                raise ValueError("ids must be non-empty strings")
        if len(set(self.ids)) != len(self.ids):
            raise DuplicateId("duplicate item ids in embedding set")
        if vecs.size and not np.isfinite(vecs).all():
            raise NonFiniteValue("embedding matrix contains NaN or inf")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ScaleGroup:
    """Per-resolution embedding sets with identical id order and dim."""

    scales: tuple[tuple[str, EmbeddingSet], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(self.scales))
        if not self.scales:
            raise MisalignedScales("scale group needs at least one member")
        _, first = self.scales[0]
        for label, member in self.scales[1:]:
            if member.ids != first.ids:
                raise MisalignedScales(f"scale {label!r}: id order mismatch")
            if member.dim != first.dim:
                raise MisalignedScales(f"scale {label!r}: dim mismatch")

    @property
    def ids(self) -> tuple[str, ...]:
        return self.scales[0][1].ids

    @property
    def dim(self) -> int:
        return self.scales[0][1].dim


def save_embeddings(emb: EmbeddingSet, path) -> None:
    """Commit the EMB1 format atomically; bytes are deterministic for a set."""
    with atomic_open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, len(emb), emb.dim, 0))
        for start in range(0, len(emb), ID_BATCH):
            records = []
            for item_id in emb.ids[start:start + ID_BATCH]:
                raw = item_id.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise IoFailure(f"id longer than 65535 bytes: {item_id[:32]}...")
                records += (len(raw).to_bytes(2, "little"), raw)
            fh.write(b"".join(records))
        fh.write(emb.vectors.astype("<f4", copy=False).data)


def load_embeddings(path) -> EmbeddingSet:
    """Read an EMB1 file; round-trips bit-exactly with save_embeddings."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < HEADER.size or data[:4] != MAGIC:
        raise MagicMismatch(f"{path}: not an EMB1 file")
    _, count, dim, reserved = HEADER.unpack_from(data, 0)
    if reserved != 0:
        raise MagicMismatch(f"{path}: reserved header field is nonzero")

    ids = []
    off = HEADER.size
    for _ in range(count):
        if off + 2 > len(data):
            raise TruncatedFile(f"{path}: id block ends early")
        (length,) = struct.unpack_from("<H", data, off)
        off += 2
        if off + length > len(data):
            raise TruncatedFile(f"{path}: id record ends early")
        ids.append(data[off:off + length].decode("utf-8"))
        off += length

    payload = count * dim * 4
    if len(data) - off < payload:
        raise TruncatedFile(
            f"{path}: payload has {len(data) - off} bytes, expected {payload}"
        )
    if len(data) - off > payload:
        raise TruncatedFile(f"{path}: {len(data) - off - payload} trailing bytes")
    # a read-only view of the file's bytes, not a copy: peak memory ~ file size
    vectors = np.frombuffer(
        data, dtype="<f4", count=count * dim, offset=off
    ).reshape(count, dim)
    return EmbeddingSet(ids=tuple(ids), vectors=vectors)


def row_norms(vectors: np.ndarray) -> np.ndarray:
    # float64 accumulation so the 1e-6 unit-norm contract survives large dims
    return np.linalg.norm(vectors.astype(np.float64), axis=1)


def _nonzero(norms: np.ndarray, what: str = "zero-norm rows") -> np.ndarray:
    """`norms`, or ZeroVector naming the first rows at or below ZERO_NORM_EPS."""
    bad = np.where(norms <= ZERO_NORM_EPS)[0]
    if bad.size:
        raise ZeroVector(f"{what} at indices {bad[:8].tolist()}")
    return norms


def l2_normalize(emb: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm. Zero rows are a hard error."""
    norms = _nonzero(row_norms(emb.vectors))
    out = (emb.vectors.astype(np.float64) / norms[:, None]).astype(np.float32)
    return EmbeddingSet(ids=emb.ids, vectors=out)


def fuse_multiscale(group: ScaleGroup) -> EmbeddingSet:
    """Fuse per-resolution features into one descriptor per item.

    Each member row is unit-normalized, the normalized rows are averaged
    across scales, and the mean is normalized again. A single-member group
    therefore reduces to plain l2_normalize.
    """
    acc = np.zeros((len(group.ids), group.dim), dtype=np.float64)
    for _, member in group.scales:
        norms = _nonzero(row_norms(member.vectors))
        acc += member.vectors.astype(np.float64) / norms[:, None]
    acc /= len(group.scales)
    mean_norms = _nonzero(np.linalg.norm(acc, axis=1), "scale means cancel to zero")
    fused = (acc / mean_norms[:, None]).astype(np.float32)
    return EmbeddingSet(ids=group.ids, vectors=fused)
