import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from prodretrieve import blas
from prodretrieve.embed_store import EmbeddingSet, l2_normalize
from prodretrieve.rerank import (
    NeighbourIndex,
    RerankParams,
    build_neighbours,
    kreciprocal_rerank,
    rerank_rows,
)
from prodretrieve.search import QUERY_BLOCK, pairwise_cosine_distance
from test_rerank import duplicate_instance, rerank_1000_instance

needs_control = pytest.mark.skipif(not blas.controls(), reason="no BLAS thread control found")


class FakeControl:
    """A (get, set) pair that records every count set."""

    def __init__(self, count):
        self.count, self.history = count, []

    def get(self):
        return self.count

    def set(self, count):
        self.count = count
        self.history.append(count)


@pytest.fixture
def fake(monkeypatch):
    control = FakeControl(4)
    monkeypatch.setattr(blas, "controls", lambda: ((control.get, control.set),))
    return control


class TestOneBlasThread:
    def test_restores_after_exit(self, fake):
        with blas.one_blas_thread():
            assert fake.count == 1
        assert fake.count == 4

    def test_restores_after_exception(self, fake):
        with pytest.raises(KeyError):
            with blas.one_blas_thread():
                raise KeyError("x")
        assert fake.count == 4

    def test_nested_entries_share_one_pin(self, fake):
        with blas.one_blas_thread():
            with blas.one_blas_thread():
                assert fake.count == 1
            assert fake.count == 1  # the inner exit keeps the outer pin
        assert (fake.count, fake.history) == (4, [1, 4])

    def test_many_threads_entering_and_leaving(self, fake):
        """8 threads on 2 cores, switching every microsecond: whenever any
        thread is inside, the count is 1, and the last exit restores 4."""
        seen = set()

        def churn():
            for _ in range(300):
                with blas.one_blas_thread():
                    seen.add(fake.count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == {1} and fake.count == 4

    @needs_control
    def test_real_count_restored(self):
        before = [get() for get, _ in blas.controls()]
        with pytest.raises(RuntimeError):
            with blas.one_blas_thread():
                assert [get() for get, _ in blas.controls()] == [1] * len(before)
                raise RuntimeError
        assert [get() for get, _ in blas.controls()] == before


class TestOverlapped:
    def test_blocks_in_order_into_alternate_buffers(self, fake):
        bufs = [np.zeros(1), np.zeros(1)]
        used = []

        def produce(start, buf):
            used.append(next(i for i, b in enumerate(bufs) if b is buf))
            assert fake.count == 1
            return start * 10

        assert list(blas.overlapped(produce, range(5), bufs)) == [(s, s * 10) for s in range(5)]
        assert used == [0, 1, 0, 1, 0]
        assert fake.count == 4

    def test_without_control_inline_into_first_buffer(self, monkeypatch):
        monkeypatch.setattr(blas, "controls", tuple)
        bufs = [np.zeros(1), np.zeros(1)]
        threads = set()

        def produce(start, buf):
            assert buf is bufs[0]
            threads.add(threading.get_ident())
            return start

        assert [b for _, b in blas.overlapped(produce, range(4), bufs)] == [0, 1, 2, 3]
        assert threads == {threading.get_ident()}

    def test_error_in_a_block_joins_the_helper(self, fake):
        before = threading.active_count()

        def produce(start, buf):
            if start == 2:
                raise ValueError(start)
            return start

        with pytest.raises(ValueError):
            list(blas.overlapped(produce, range(4), [None, None]))
        assert threading.active_count() == before
        assert fake.count == 4


def search_instance():
    """Five query blocks, the last one short, against 700 gallery rows."""
    rng = np.random.default_rng(23)
    q, g = (l2_normalize(EmbeddingSet([f"{tag}{i}" for i in range(n)], rng.normal(size=(n, 48))))
            for tag, n in (("q", 4 * QUERY_BLOCK + 37), ("g", 700)))
    return q, g


class TestSearchPool:
    @pytest.mark.parametrize("control", ["found", "none"])
    def test_bytes_equal_for_every_thread_count(self, monkeypatch, control):
        if control == "none":
            monkeypatch.setattr(blas, "controls", tuple)
        q, g = search_instance()
        base = pairwise_cosine_distance(q, g, threads=1).values.tobytes()
        for threads in (2, 3, 5):
            assert pairwise_cosine_distance(q, g, threads=threads).values.tobytes() == base

    def test_pool_pins_and_restores(self, fake):
        q, g = search_instance()
        pairwise_cosine_distance(q, g, threads=1)
        assert fake.history == []  # one thread: no pool and no pin
        pairwise_cosine_distance(q, g, threads=3)
        assert (fake.count, fake.history) == (4, [1, 4])

    @needs_control
    def test_real_count_restored_and_pool_joined(self):
        """No pool thread outlives the call, so `coordinate` still forks a
        single-threaded process after a search in the same process."""
        q, g = search_instance()
        before = [get() for get, _ in blas.controls()]
        alive = threading.active_count()
        pairwise_cosine_distance(q, g, threads=2)
        assert [get() for get, _ in blas.controls()] == before
        assert threading.active_count() == alive


def index_arrays(index):
    return [(f.name, a.dtype, a.shape, a.tobytes())
            for f in fields(NeighbourIndex)[3:] for a in [getattr(index, f.name)]]


class TestRerankWithBlasControl:
    @pytest.mark.parametrize("case", ["rerank_1000", "ties"])
    def test_no_control_changes_no_byte(self, monkeypatch, case):
        if case == "ties":
            queries, gallery = duplicate_instance()
            params, rows = RerankParams(6, 3, 0.3), [6, 0, 3]
        else:
            queries, gallery, params = rerank_1000_instance()
            rows = [599, 3, 300, 0, 256, 511]
        want = build_neighbours(queries, gallery, params)
        want_values = [rerank_rows(want, r).values.tobytes() for r in (None, rows)]
        monkeypatch.setattr(blas, "controls", tuple)
        got = build_neighbours(queries, gallery, params)
        assert index_arrays(got) == index_arrays(want)
        assert [rerank_rows(got, r).values.tobytes() for r in (None, rows)] == want_values

    def test_rows_in_any_order(self):
        queries, gallery, params = rerank_1000_instance()
        index = build_neighbours(queries, gallery, params)
        full = rerank_rows(index)
        rows = np.random.default_rng(3).permutation(len(queries))[:200].tolist()
        got = rerank_rows(index, rows)
        assert got.query_ids == tuple(full.query_ids[r] for r in rows)
        assert got.values.tobytes() == full.values[rows].tobytes()
        assert rerank_rows(index, []).values.shape == (0, len(gallery))

    def test_no_helper_thread_left(self):
        # the coordinator forks right after the build: a live helper thread
        # would be a thread the forked workers do not have
        queries, gallery, params = rerank_1000_instance()
        before = threading.active_count()
        index = build_neighbours(queries, gallery, params)
        assert threading.active_count() == before
        rerank_rows(index, range(0, 600, 7))
        assert threading.active_count() == before

    @needs_control
    def test_two_threads_reranking_at_once(self):
        queries, gallery, params = rerank_1000_instance()
        want = kreciprocal_rerank(queries, gallery, params).values.tobytes()
        before = [get() for get, _ in blas.controls()]
        got = [None, None]

        def run(i):
            got[i] = kreciprocal_rerank(queries, gallery, params).values.tobytes()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert got == [want, want]
        assert [get() for get, _ in blas.controls()] == before


def test_stages_of_the_rerank():
    queries, gallery, params = rerank_1000_instance()
    stages = {}
    kreciprocal_rerank(queries, gallery, params, stages=stages)
    assert list(stages) == ["pass1", "expansion", "pass2", "query_expansion", "jaccard"]
    for record in stages.values():
        assert set(record) == {"wall_s", "cpu_s", "maxrss_mb"}
