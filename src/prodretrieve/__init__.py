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
"""

from .embed_store import (
    EmbeddingSet,
    ScaleGroup,
    fuse_multiscale,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from .ensemble import max_ensemble, vote_ensemble
from .evalbench import GroundTruth, gen_synthetic, mar_at_k
from .pseudolabel import assign_pseudo_labels, cluster_features, filter_confident
from .rerank import RerankParams, kreciprocal_rerank
from .search import (
    CropGroupMap,
    DistanceMatrix,
    RankingList,
    aggregate_crops,
    pairwise_cosine_distance,
    topk,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingSet",
    "ScaleGroup",
    "fuse_multiscale",
    "l2_normalize",
    "load_embeddings",
    "save_embeddings",
    "max_ensemble",
    "vote_ensemble",
    "GroundTruth",
    "gen_synthetic",
    "mar_at_k",
    "assign_pseudo_labels",
    "cluster_features",
    "filter_confident",
    "RerankParams",
    "kreciprocal_rerank",
    "CropGroupMap",
    "DistanceMatrix",
    "RankingList",
    "aggregate_crops",
    "pairwise_cosine_distance",
    "topk",
]
