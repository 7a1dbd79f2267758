"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately written with plain Python loops and no
shared code with the package, so a bug in the fast paths cannot hide in
its own oracle. `naive_gen_synthetic` is numpy, because it must reproduce
the generator's bits: it draws every vector in one call.
"""
from __future__ import annotations

import math

import numpy as np


def naive_cosine_distance(queries, gallery):
    """Scalar double loop: 1 - dot per pair. Inputs: lists of float rows."""
    out = []
    for q in queries:
        row = []
        for g in gallery:
            dot = 0.0
            for a, b in zip(q, g):
                dot += float(a) * float(b)
            row.append(1.0 - dot)
        out.append(row)
    return out


def naive_topk(row, gallery_ids, k):
    """Full sort then truncate; ties by ascending gallery id."""
    pairs = sorted(zip(row, gallery_ids), key=lambda t: (t[0], t[1]))
    return [(gid, dist) for dist, gid in pairs[:k]]


def naive_group_min(matrix, gallery_ids, crop_to_parent):
    """Per-parent minimum over crop columns, parents by first appearance."""
    parents = []
    for gid in gallery_ids:
        parent = crop_to_parent[gid]
        if parent not in parents:
            parents.append(parent)
    out = []
    for row in matrix:
        out_row = []
        for parent in parents:
            best = min(
                row[j] for j, gid in enumerate(gallery_ids)
                if crop_to_parent[gid] == parent
            )
            out_row.append(best)
        out.append(out_row)
    return parents, out


def naive_rerank(query_rows, gallery_rows, k1, k2, lam):
    """Dense-loop k-reciprocal re-ranking over the joint probe set.

    Returns a nested list: one row per query, one column per gallery item.
    """
    probes = [list(map(float, r)) for r in query_rows] + [
        list(map(float, r)) for r in gallery_rows
    ]
    nq, n = len(query_rows), len(probes)

    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            dot = sum(a * b for a, b in zip(probes[i], probes[j]))
            d[i][j] = max(0.0, min(2.0, 1.0 - dot))

    # nearest neighbors of p excluding p, ties by index
    def neighbors(p, k):
        others = sorted(
            (q for q in range(n) if q != p), key=lambda q: (d[p][q], q)
        )
        return others[:k]

    def reciprocal(p, k):
        result = []
        for g in neighbors(p, k):
            if p in neighbors(g, k):
                result.append(g)
        return result

    half = math.ceil(k1 / 2)
    r_full = [reciprocal(p, k1) for p in range(n)]
    r_half = [reciprocal(p, half) for p in range(n)]

    expanded = []
    for p in range(n):
        members = set(r_full[p])
        for c in r_full[p]:
            overlap = len([g for g in r_half[c] if g in r_full[p]])
            if r_half[c] and overlap >= (2.0 / 3.0) * len(r_half[c]):
                members.update(r_half[c])
        expanded.append(members)

    v = [[0.0] * n for _ in range(n)]
    for p in range(n):
        for g in expanded[p]:
            v[p][g] = math.exp(-d[p][g])

    # local query expansion over p plus its k2 nearest neighbors
    v2 = [[0.0] * n for _ in range(n)]
    for p in range(n):
        group = [p] + neighbors(p, k2)
        for j in range(n):
            v2[p][j] = sum(v[q][j] for q in group) / len(group)
    v = v2

    out = [[0.0] * (n - nq) for _ in range(nq)]
    for qi in range(nq):
        for col, gi in enumerate(range(nq, n)):
            mins = sum(min(v[qi][j], v[gi][j]) for j in range(n))
            maxs = sum(max(v[qi][j], v[gi][j]) for j in range(n))
            jaccard = 1.0 - mins / maxs if maxs > 0 else 1.0
            out[qi][col] = (1.0 - lam) * jaccard + lam * d[qi][gi]
    return out


def naive_borda(model_lists, k):
    """model_lists: list of {query: [gallery ids best-first]}."""
    queries = sorted({q for m in model_lists for q in m})
    results = {}
    for q in queries:
        points = {}
        voters = {}
        for model in model_lists:
            for r, gid in enumerate(model.get(q, [])[:k], start=1):
                points[gid] = points.get(gid, 0) + (k + 1 - r)
                voters[gid] = voters.get(gid, 0) + 1
        order = sorted(points, key=lambda g: (-points[g], -voters[g], g))[:k]
        results[q] = [(g, points[g]) for g in order]
    return results


def naive_pairs(vectors, threshold):
    """Every (i, j), i < j, whose dot, summed left to right, is >= threshold."""
    n = len(vectors)
    return [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if sum(float(a) * float(b) for a, b in zip(vectors[i], vectors[j])) >= threshold
    ]


def naive_components(vectors, ids, threshold):
    """All-pairs threshold graph, BFS components, canonical ordering."""
    n = len(ids)
    adj = [[] for _ in range(n)]
    for i, j in naive_pairs(vectors, threshold):
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    clusters, pool = [], []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            node = stack.pop()
            comp.append(node)
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        names = sorted(ids[i] for i in comp)
        if len(names) >= 2:
            clusters.append(tuple(names))
        else:
            pool.extend(names)
    clusters.sort(key=lambda c: c[0])
    return clusters, sorted(pool)


def naive_recall_at_k(ranked_ids, relevant, k):
    hits = len([g for g in ranked_ids[:k] if g in relevant])
    return hits / min(len(relevant), k)


def naive_gen_synthetic(n_classes, gallery_per_class, queries_per_class, dim, noise_sigma, seed):
    """The synthetic benchmark from one float64 draw of every vector at once:
    (gallery ids, gallery rows, query ids, query rows, {query id: relevant ids}),
    rows as float32 arrays. Row norms come from a 1 x d @ d x 1 matmul, the
    bits of `row / math.sqrt(row.dot(row))`."""
    def unit_rows(vecs):
        vecs /= np.sqrt(np.matmul(vecs[..., None, :], vecs[..., :, None]))[..., 0]

    per_class = 1 + gallery_per_class + queries_per_class
    vecs = np.random.default_rng(seed).standard_normal((n_classes, per_class, dim))
    unit_rows(vecs[:, :1])
    members = vecs[:, 1:]
    members *= noise_sigma
    members += vecs[:, :1]
    unit_rows(members)
    g_ids = [[f"g{c:05d}_{i:03d}" for i in range(gallery_per_class)] for c in range(n_classes)]
    q_ids = [[f"q{c:05d}_{i:03d}" for i in range(queries_per_class)] for c in range(n_classes)]
    relevant = {qid: set(gids) for gids, qids in zip(g_ids, q_ids) for qid in qids}
    return (
        [i for row in g_ids for i in row],
        members[:, :gallery_per_class].astype(np.float32).reshape(-1, dim),
        [i for row in q_ids for i in row],
        members[:, gallery_per_class:].astype(np.float32).reshape(-1, dim),
        relevant,
    )
