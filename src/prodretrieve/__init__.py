"""Product-retrieval pipeline over precomputed dense embeddings.

Submodules:
    embed_store  EMB1 container format, normalization, multi-scale fusion
    search       exact cosine distances, top-K, crop-group aggregation
    rerank       k-reciprocal re-ranking and query sharding
    ensemble     maximum (score) and voting (rank) ensembles
    pseudolabel  threshold-graph clustering and pseudo-class assignment
    harness      coordinator/worker execution of sharded rerank jobs
    fileio       atomic (fsync + rename) file commits, sha256 of a file
    evalbench    MAR@k evaluation and the synthetic benchmark generator
    cli          the `prodretrieve` command

The names in `__all__` load their submodule on first use (PEP 562), so
`import prodretrieve` loads no numpy: `python -m prodretrieve` can set the
BLAS thread count before numpy starts OpenBLAS (see `__main__`).
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["EmbeddingSet", "ScaleGroup", "fuse_multiscale", "l2_normalize",
                     "load_embeddings", "save_embeddings"], "embed_store"),
    **dict.fromkeys(["max_ensemble", "vote_ensemble"], "ensemble"),
    **dict.fromkeys(["GroundTruth", "gen_synthetic", "mar_at_k"], "evalbench"),
    **dict.fromkeys(["assign_pseudo_labels", "cluster_features", "filter_confident"],
                    "pseudolabel"),
    **dict.fromkeys(["RerankParams", "kreciprocal_rerank"], "rerank"),
    **dict.fromkeys(["CropGroupMap", "DistanceMatrix", "RankingList", "aggregate_crops",
                     "pairwise_cosine_distance", "topk"], "search"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
