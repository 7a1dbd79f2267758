"""Returning the C heap's free pages after a re-rank (`prodretrieve.heap`)."""
import numpy as np
import pytest

from prodretrieve import heap
from prodretrieve.rerank import RerankParams, build_neighbours, kreciprocal_rerank, rerank_rows
from test_entry import python
from test_rerank import clustered_instance


@pytest.mark.skipif(heap._malloc_trim() is None, reason="the C library has no malloc_trim")
def test_trim_releases_free_pages_inside_the_heap():
    # 30 freed 100 kB arrays, each below a live 8 kB one, so none borders
    # the top of the heap and free() alone returns none of their pages
    out = python(
        "import json, os\n"
        "import numpy as np\n"
        "from prodretrieve import heap\n"
        "def rss_mb():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 1e6\n"
        "big, pins = [], []\n"
        "for _ in range(30):\n"
        "    big.append(np.ones(12_500))\n"
        "    pins.append(np.ones(1_000))\n"
        "before = rss_mb()\n"
        "del big\n"
        "freed = rss_mb()\n"
        "heap.trim()\n"
        "print(json.dumps({'kept': before - freed, 'released': freed - rss_mb()}))\n"
    )
    assert out["kept"] < 1.0 and out["released"] > 2.0, out


def test_trim_without_malloc_trim_does_nothing(monkeypatch):
    monkeypatch.setattr(heap, "_malloc_trim", lambda: None)
    assert heap.trim() is None


def test_kreciprocal_rerank_trims_once_after_freeing_the_index(monkeypatch):
    queries, gallery = clustered_instance(3)
    params = RerankParams(k1=6, k2=3, lam=0.3)
    calls = []
    monkeypatch.setattr(heap, "trim", lambda: calls.append(1))
    matrix = kreciprocal_rerank(queries, gallery, params)
    assert calls == [1]
    expected = rerank_rows(build_neighbours(queries, gallery, params)).values
    assert matrix.values.tobytes() == expected.tobytes()
