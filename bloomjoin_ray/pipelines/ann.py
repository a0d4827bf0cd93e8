"""Approximate-nearest-neighbor pipelines over embedding columns.

* ``ann_topk`` — brute-force cosine top-k: one dense matmul per Arrow
  block against a broadcast query matrix (the exact baseline; linear in
  corpus size but perfectly parallel — per-block local top-k candidates,
  then a dataset-native bucketed reduce; ``as_dataset=True`` keeps the
  result distributed for large query sets).
* ``lsh_ann_topk`` — the scale path: random-hyperplane LSH buckets both
  corpus and queries; only same-bucket vectors are scored (probing the
  query's bucket). Recall < 1 by design; increase ``n_bits`` ↓ bucket
  size, add multiprobe by flipping bits for recall.
* ``embedding_dedup_pairs`` — near-duplicate vector pairs (cosine ≥ τ)
  via LSH buckets + in-bucket verification.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.ann_stages import (BruteForceTopK, LshBucketStage, _cosine_scores,
                                 _normalize, embeddings_to_matrix)

# knn_join cell reduce: cap on transient score-matrix elements per matmul
# chunk (~32 MB as _cosine_scores' float64 accumulator) — a hot LSH cell
# (duplicate-heavy / low-entropy corpus) is processed in bounded
# query-side slices instead of one |Q_cell| × |C_cell| cross product.
# Tests shrink this to force chunking.
_CELL_CHUNK_ELEMS = 1 << 22


def _probe_masks(n_bits: int, radius: int) -> np.ndarray:
    """All XOR flip masks within Hamming distance ``radius`` of a bucket
    key (mask 0 = the bucket itself), ordered by distance then bit
    pattern — ``sum_{d<=radius} C(n_bits, d)`` int64 masks. Masks are
    distinct, so a query's probed buckets are distinct and candidate
    (query, vector) pairs stay duplicate-free at any radius."""
    from itertools import combinations

    if not 0 <= radius <= n_bits:
        raise ValueError(f"multiprobe radius must be in [0, {n_bits}]")
    masks = [0]
    for d in range(1, radius + 1):
        for bits in combinations(range(n_bits), d):
            m = 0
            for b in bits:
                m |= 1 << b
            masks.append(m)
    return np.array(masks, dtype=np.int64)


def _directed_probe_masks(margins: np.ndarray, n_bits: int,
                          T: int) -> np.ndarray:
    """Query-directed multiprobe (Lv et al. 2007, "Multi-Probe LSH"):
    for each query row, the ``T`` XOR flip masks with the smallest total
    |hyperplane margin| — the own bucket (cost 0) plus the T−1 cheapest
    single/double/triple bit flips ranked by how close the query sits to
    each flipped hyperplane. Beats blind Hamming-radius probing at equal
    bucket count because a cheap 2-bit flip (two near-zero margins)
    outranks an expensive 1-bit flip. Fully vectorized over rows:
    one argsort of margins, a static flip-pattern table over the sorted
    bit order, one argpartition per the (rows × patterns) cost matrix.
    Returns int64 masks of shape ``(len(margins), T)`` — distinct per
    row, mask 0 first, remainder in (cost, pattern) order so a larger
    ``T`` probes a strict superset (recall is monotone in T)."""
    from itertools import combinations

    nb = n_bits
    patterns = ([(i,) for i in range(nb)]
                + list(combinations(range(nb), 2))
                + list(combinations(range(nb), 3)))
    if not 1 <= T <= 1 + len(patterns):
        raise ValueError(
            f"probe_buckets must be in [1, {1 + len(patterns)}] for "
            f"n_bits={nb} (own bucket + single/double/triple flips)")
    n = len(margins)
    out = np.zeros((n, T), dtype=np.int64)
    if T == 1:
        return out
    ordm = np.argsort(margins, axis=1, kind="stable")   # cheap bits first
    sm = np.take_along_axis(margins, ordm, axis=1)
    bit1 = (np.int64(1) << ordm.astype(np.int64))       # per-row bit masks
    P = len(patterns)
    costs = np.empty((n, P), dtype=margins.dtype)
    masks = np.empty((n, P), dtype=np.int64)
    for p, pat in enumerate(patterns):                  # static, ≤ nb³/6
        c = sm[:, pat[0]].copy()
        m = bit1[:, pat[0]].copy()
        for i in pat[1:]:
            c += sm[:, i]
            m |= bit1[:, i]
        costs[:, p] = c
        masks[:, p] = m
    k = T - 1
    part = np.argpartition(costs, k - 1, axis=1)[:, :k] if k < P else (
        np.tile(np.arange(P), (n, 1)))
    pc_ = np.take_along_axis(costs, part, axis=1)
    # deterministic final order: (cost, pattern index), row-wise
    order = np.lexsort((part, pc_), axis=1)
    sel = np.take_along_axis(part, order, axis=1)
    out[:, 1:] = np.take_along_axis(masks, sel, axis=1)
    return out


def _topk_per_query_idx(qids: np.ndarray, ids: np.ndarray,
                        scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of each query's top-k rows (score desc, id asc), fully
    vectorized: one lexsort + a cumcount mask — no per-query loop."""
    n = len(qids)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((ids, -scores, qids))
    qs = qids[order]
    new_q = np.empty(n, dtype=bool)
    new_q[0] = True
    new_q[1:] = qs[1:] != qs[:-1]
    starts = np.nonzero(new_q)[0]
    rank = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    return order[rank < k]


def _candidates_topk(cand_rows: list[dict], k: int, id_col: str) -> pa.Table:
    """Driver-side final sort/top-k over (already reduced) rows."""
    if not cand_rows:
        return pa.table({"query_id": [], id_col: [], "score": []})
    qids = np.array([r["query_id"] for r in cand_rows])
    ids = np.array([r[id_col] for r in cand_rows])
    scores = np.array([r["score"] for r in cand_rows], dtype=np.float32)
    keep = _topk_per_query_idx(qids, ids, scores, k)
    return pa.table({"query_id": pa.array(qids[keep].astype(np.int32)),
                     id_col: pa.array(ids[keep]),
                     "score": pa.array(scores[keep], type=pa.float32())})


def _reduce_candidates(cand_ds, k: int, id_col: str,
                       qid_col: str = "query_id"):
    """Dataset-native final reduce: bucket candidate rows by query id and
    take each query's global top-k inside ``map_groups`` — the driver
    never sees more than the final nq × k rows (and with
    ``as_dataset=True``, nothing at all). Each (query, vector) pair
    occurs in exactly one block, so per-bucket top-k needs no dedupe."""
    from .buckets import packed_bucket_map_groups

    def bucket_topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group.drop_columns(["__gbucket"])
        qids = np.asarray(group.column(qid_col))
        ids = np.asarray(group.column(id_col))
        scores = np.asarray(group.column("score"))
        keep = _topk_per_query_idx(qids, ids, scores, k)
        return (group.take(pa.array(keep))
                     .drop_columns(["__gbucket"]))

    return packed_bucket_map_groups(cand_ds, [qid_col], bucket_topk)


def ann_topk(ds, queries: np.ndarray, k: int = 10, *, id_col: str = "vec_id",
             vec_col: str = "embedding", as_dataset: bool = False):
    """Exact cosine top-k for each query row. Returns
    pa.Table[query_id, id_col, score] sorted by (query_id, -score, id),
    or (``as_dataset=True``) a Dataset of the same rows bucketed by
    query id — the scale path for query *datasets* (large nq)."""
    import ray

    qref = ray.put(np.ascontiguousarray(queries, dtype=np.float32))
    local = ds.map_batches(
        BruteForceTopK(qref, k, id_col, vec_col),
        batch_format="pyarrow",
    )
    reduced = _reduce_candidates(local, k, id_col)
    if as_dataset:
        return reduced
    return _candidates_topk(reduced.take_all(), k, id_col)  # nq × k rows


def lsh_ann_topk(ds, queries: np.ndarray, k: int = 10, *,
                 id_col: str = "vec_id", vec_col: str = "embedding",
                 n_bits: int = 8, seed: int = 0xA11,
                 multiprobe: int = 0, probe_buckets: int | None = None,
                 as_dataset: bool = False):
    """LSH-bucketed ANN: score only vectors sharing the query's bucket.

    ``multiprobe=r`` additionally probes every bucket within Hamming
    distance r of each query's own bucket (``sum_{d<=r} C(n_bits, d)``
    buckets total — the same flip construction as ``knn_join``), trading
    proportionally more scored candidates for higher recall; recall is
    monotone in r and r=n_bits degenerates to brute force.

    ``probe_buckets=T`` (mutually exclusive with ``multiprobe``) probes
    exactly T buckets per query, QUERY-DIRECTED: the own bucket plus the
    T−1 flips with the smallest total |hyperplane margin|
    (``_directed_probe_masks``) — higher recall than blind Hamming
    probing at the same candidate cost, and per-query cost is exact
    rather than radius-quantized.

    Each corpus vector lives in exactly one bucket and a query's probed
    buckets are distinct, so candidate (query, vector) pairs stay
    duplicate-free and the bucketed reduce needs no dedupe."""
    import ray

    if probe_buckets is not None and multiprobe != 0:
        raise ValueError("pass multiprobe OR probe_buckets, not both")
    Q = np.ascontiguousarray(queries, dtype=np.float32)
    dim = Q.shape[1]
    stage = LshBucketStage(dim, n_bits, id_col, vec_col, seed)
    qproj = Q @ stage.planes
    qbits = qproj > 0
    qkey = np.zeros(len(Q), dtype=np.int64)
    for b in range(n_bits):
        qkey |= qbits[:, b].astype(np.int64) << b
    wanted = {}
    if probe_buckets is not None:
        qmasks = _directed_probe_masks(np.abs(qproj), n_bits,
                                       probe_buckets)
        for qi, kk in enumerate(qkey):
            for mask in qmasks[qi]:
                wanted.setdefault(int(kk) ^ int(mask), []).append(qi)
    else:
        masks = _probe_masks(n_bits, multiprobe)   # validates the radius
        for mask in masks:
            for qi, kk in enumerate(qkey):
                wanted.setdefault(int(kk) ^ int(mask), []).append(qi)
    wanted_ref = ray.put(wanted)
    qref = ray.put(_normalize(Q))

    def score_bucket(batch: pa.Table) -> pa.Table:
        w = ray.get(wanted_ref)
        qm = ray.get(qref)
        buckets = np.asarray(batch.column("bucket"))
        keep = np.isin(buckets, np.fromiter(w.keys(), dtype=np.int64))
        sub = batch.filter(pa.array(keep))
        if sub.num_rows == 0:
            return pa.table({"query_id": pa.array([], type=pa.int32()),
                             id_col: batch.column(id_col).slice(0, 0),
                             "score": pa.array([], type=pa.float32())})
        V = _normalize(embeddings_to_matrix(sub.column(vec_col)).astype(np.float32))
        ids = np.asarray(sub.column(id_col))
        sub_buckets = np.asarray(sub.column("bucket"))
        out_q, out_i, out_s = [], [], []
        for bk, qis in w.items():
            m = sub_buckets == bk
            if not m.any():
                continue
            sims = _cosine_scores(V[m], qm[qis])
            for col, qi in enumerate(qis):
                out_q.append(np.full(int(m.sum()), qi, dtype=np.int64))
                out_i.append(ids[m])
                out_s.append(sims[:, col])
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int32()),
                             id_col: batch.column(id_col).slice(0, 0),
                             "score": pa.array([], type=pa.float32())})
        qarr = np.concatenate(out_q)
        iarr = np.concatenate(out_i)
        sarr = np.concatenate(out_s)
        # per-block local top-k: candidate volume leaving each block is
        # bounded by k × nq regardless of bucket occupancy
        keep = _topk_per_query_idx(qarr, iarr, sarr, k)
        return pa.table({"query_id": pa.array(qarr[keep].astype(np.int32)),
                         id_col: pa.array(iarr[keep]),
                         "score": pa.array(sarr[keep], type=pa.float32())})

    scored = ds.map_batches(stage, batch_format="pyarrow").map_batches(
        score_bucket, batch_format="pyarrow")
    reduced = _reduce_candidates(scored, k, id_col)
    if as_dataset:
        return reduced
    return _candidates_topk(reduced.take_all(), k, id_col)


def _minibatch_kmeans(sample: np.ndarray, n_centroids: int, seed: int,
                      iters: int = 10) -> np.ndarray:
    """Deterministic seeded k-means on a driver-side sample (spherical:
    rows and centroids normalized — cosine clustering)."""
    rng = np.random.default_rng(seed)
    X = _normalize(sample.astype(np.float32))
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                C[c] = X[m].mean(axis=0)
        C = _normalize(C)
    return C


def _row_hashes(M: np.ndarray) -> np.ndarray:
    """Deterministic per-row uint64 content hash of a float32 matrix
    (vectorized FNV fold over the bit patterns + final mix)."""
    u = np.ascontiguousarray(M).view(np.uint32).astype(np.uint64)
    h = np.full(len(u), np.uint64(0xCBF29CE484222325))
    for j in range(u.shape[1]):
        h = (h ^ u[:, j]) * np.uint64(0x100000001B3)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    return h


def _even_sample_matrix(ds, vec_col: str, sample_rows: int) -> np.ndarray:
    """Corpus-wide unbiased vector sample: every row enters with equal
    probability via a content-hash Bernoulli draw (``_row_hashes``), so
    a cluster-sorted / partitioned corpus still yields centroids
    spanning the whole distribution (a head ``limit()`` sample sees
    only the first blocks and skews them). Content hashing makes the
    sample deterministic and independent of batch/block boundaries;
    the workers ship the hash alongside each kept row so the driver's
    canonical sort needs no second hashing pass. The draw rate is
    slightly overshot and the hash-sorted gather capped at exactly
    ``sample_rows`` (bottom-k by content hash), so the sample size —
    and driver memory — is deterministic, not binomial."""
    n = ds.count()
    frac = min(1.0, (sample_rows * 1.15 + 64) / max(n, 1))
    cut = np.uint64(int(frac * float(1 << 32)))

    def take_some(b: pa.Table) -> pa.Table:
        col = b.column(vec_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if b.num_rows == 0:
            return pa.table({vec_col: col,
                             "__h": pa.array([], type=pa.int64())})
        h = _row_hashes(embeddings_to_matrix(col).astype(np.float32))
        if frac < 1.0:
            m = (h >> np.uint64(32)) < cut
            col = col.filter(pa.array(m))
            h = h[m]
        return pa.table({vec_col: col, "__h": pa.array(h.view(np.int64))})

    rows = (ds.select_columns([vec_col])
              .map_batches(take_some, batch_format="pyarrow")
              .take_all())
    M = np.array([r[vec_col] for r in rows], dtype=np.float32)
    if len(M) == 0:
        return M
    # canonical row order (content-hash sort): the gathered block order
    # is not guaranteed stable, and k-means init draws by position
    h = np.array([r["__h"] for r in rows], dtype=np.int64).view(np.uint64)
    return M[np.argsort(h, kind="stable")][:sample_rows]


def ivf_ann_topk(ds, queries: np.ndarray, k: int = 10, *,
                 id_col: str = "vec_id", vec_col: str = "embedding",
                 n_centroids: int = 16, n_probe: int = 2,
                 sample_rows: int = 4096, seed: int = 0x1FF,
                 sample: str = "even", as_dataset: bool = False):
    """IVF-style ANN: cluster a sample into spherical k-means centroids
    (driver-side, deterministic), broadcast them, assign every vector to
    its nearest centroid inside ``map_batches``, and score each query only
    against vectors in its ``n_probe`` nearest cells. Recall grows with
    ``n_probe``; cost drops by ~``n_probe / n_centroids`` vs brute force.

    ``sample="even"`` (default) draws the k-means training sample evenly
    from every block; ``"head"`` is the old biased ``limit()`` sample,
    kept only to demonstrate the failure mode in tests.
    """
    import ray

    if sample == "even":
        smp = _even_sample_matrix(ds, vec_col, sample_rows)
    elif sample == "head":
        sample_tbl = ds.limit(sample_rows).take_batch(
            sample_rows, batch_format="pyarrow")
        smp = embeddings_to_matrix(sample_tbl.column(vec_col))
    else:
        raise ValueError("sample must be 'even' or 'head'")
    C = _minibatch_kmeans(smp, n_centroids, seed)
    cref = ray.put(C)

    Q = _normalize(np.ascontiguousarray(queries, dtype=np.float32))
    qcells = np.argsort(-(Q @ C.T), axis=1)[:, :n_probe]       # (nq, n_probe)
    wanted: dict[int, list[int]] = {}
    for qi, cells in enumerate(qcells):
        for c in cells:
            wanted.setdefault(int(c), []).append(qi)
    wanted_ref = ray.put(wanted)
    qref = ray.put(Q)

    def score(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        w = ray.get(wanted_ref)
        qm = ray.get(qref)
        V = _normalize(embeddings_to_matrix(batch.column(vec_col)).astype(np.float32))
        ids = np.asarray(batch.column(id_col))
        cells = np.argmax(V @ cents.T, axis=1)
        out_q, out_i, out_s = [], [], []
        for cell, qis in w.items():
            m = cells == cell
            if not m.any():
                continue
            sims = _cosine_scores(V[m], qm[qis])
            for col, qi in enumerate(qis):
                out_q.append(np.full(int(m.sum()), qi, dtype=np.int64))
                out_i.append(ids[m])
                out_s.append(sims[:, col])
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int32()),
                             id_col: batch.column(id_col).slice(0, 0),
                             "score": pa.array([], type=pa.float32())})
        qarr = np.concatenate(out_q)
        iarr = np.concatenate(out_i)
        sarr = np.concatenate(out_s)
        keep = _topk_per_query_idx(qarr, iarr, sarr, k)  # per-block top-k
        return pa.table({"query_id": pa.array(qarr[keep].astype(np.int32)),
                         id_col: pa.array(iarr[keep]),
                         "score": pa.array(sarr[keep], type=pa.float32())})

    reduced = _reduce_candidates(
        ds.map_batches(score, batch_format="pyarrow"), k, id_col)
    if as_dataset:
        return reduced
    return _candidates_topk(reduced.take_all(), k, id_col)


def knn_join(ds_corpus, ds_queries, k: int = 10, *,
             corpus_id: str = "vec_id", query_id: str = "query_id",
             vec_col: str = "embedding", query_vec_col: str | None = None,
             n_bits: int = 8, seed: int = 0xA11, dim: int | None = None,
             multiprobe: int = 0, probe_buckets: int | None = None,
             cell_chunk_elems: int = _CELL_CHUNK_ELEMS):
    """Dataset × Dataset ANN join — the scale path when the QUERY side is
    itself a large Dataset (too many queries for a broadcast matrix).

    Both sides are LSH-bucketed with the SAME hyperplanes, co-partitioned
    by cell, and each cell runs one matmul + per-query top-k inside the
    bucketed reduce — so with the same ``n_bits``/``seed`` a query meets
    the same candidates as in ``lsh_ann_topk``. Both paths score them
    with ``_cosine_scores``, whose elements do not depend on how the
    rows are sliced, so neither ``cell_chunk_elems`` nor bucket
    occupancy can move a score, and ties break in the same
    (score desc, id asc) order: the result is identical to
    ``lsh_ann_topk`` (pinned in tests), but neither side is ever
    materialized on the driver. Single-probe: a query only meets
    corpus vectors in its own cell (recall < 1 by design; lower
    ``n_bits`` for recall, raise it to bound cell sizes — the per-cell
    cost is |Q_cell| × |C_cell|). ``multiprobe=r`` additionally probes
    every cell within Hamming distance r of each query's own cell
    (``sum_{d<=r} C(n_bits, d)`` cells total), trading proportionally
    more query-side rows for higher recall — monotone in r;
    ``probe_buckets=T`` (mutually exclusive) probes exactly the T
    margin-cheapest cells per query (query-directed, computed
    vectorized inside the query-side prep — same masks as
    ``lsh_ann_topk``, so the two stay identical at equal params). The
    per-query top-k is then merged across cells with the dataset-native
    bucketed reduce. Returns Dataset[query_id, corpus_id, score] with
    per-query global top-k.
    """
    from .buckets import numeric_segments, packed_bucket_map_groups

    if probe_buckets is not None and multiprobe != 0:
        raise ValueError("pass multiprobe OR probe_buckets, not both")
    if probe_buckets is not None:
        _directed_probe_masks(np.zeros((1, n_bits), np.float32),
                              n_bits, probe_buckets)   # validate T early
        probe_flips = None
    else:
        probe_flips = _probe_masks(n_bits, multiprobe)  # validates radius
    qvec = query_vec_col or vec_col
    if dim is None:
        dim = _infer_dim(ds_corpus, vec_col)
    c_stage = LshBucketStage(dim, n_bits, corpus_id, vec_col, seed)
    q_stage = LshBucketStage(dim, n_bits, query_id, qvec, seed)

    c_schema = _schema_of_col(ds_corpus, corpus_id)
    q_schema = _schema_of_col(ds_queries, query_id)
    unified = pa.schema([
        pa.field("__cell", pa.int64()), pa.field("__side", pa.int8()),
        pa.field("__qid", q_schema), pa.field("__cid", c_schema),
        pa.field("__emb", pa.list_(pa.float32())),
    ])

    def prep(stage, side, id_name, vec_name, expand=False):
        def fn(batch: pa.Table) -> pa.Table:
            t = stage(batch.select([id_name, vec_name]))
            M = embeddings_to_matrix(t.column(vec_name)).astype(np.float32)
            cells = np.asarray(t.column("bucket"), dtype=np.int64)
            n = t.num_rows
            ids = t.column(id_name)
            ids = (ids.combine_chunks()
                   if isinstance(ids, pa.ChunkedArray) else ids)
            if expand and n:
                # replicate each query into its own cell + every probed
                # neighbor cell (blind Hamming radius, or query-directed
                # margin-ranked masks computed per row)
                if probe_flips is not None:
                    cells = (cells[:, None]
                             ^ probe_flips[None, :]).reshape(-1)
                    fan = len(probe_flips)
                else:
                    margins = np.abs(M @ stage.planes)
                    qmasks = _directed_probe_masks(margins, n_bits,
                                                   probe_buckets)
                    cells = (cells[:, None] ^ qmasks).reshape(-1)
                    fan = probe_buckets
                idx = np.repeat(np.arange(n), fan)
                M = M[idx]
                ids = ids.take(pa.array(idx))
                n = n * fan
            emb = pa.ListArray.from_arrays(
                pa.array(np.arange(len(M) + 1) * M.shape[1], type=pa.int32()),
                pa.array(M.reshape(-1)))
            return pa.Table.from_arrays([
                pa.array(cells),
                pa.array(np.full(n, side, dtype=np.int8)),
                ids if side == 1 else pa.nulls(n, q_schema),
                ids if side == 0 else pa.nulls(n, c_schema),
                emb,
            ], schema=unified)

        return fn

    tagged = (ds_corpus.map_batches(prep(c_stage, 0, corpus_id, vec_col),
                                    batch_format="pyarrow")
              .union(ds_queries.map_batches(
                  prep(q_stage, 1, query_id, qvec,
                       expand=multiprobe >= 1 or (probe_buckets or 1) > 1),
                  batch_format="pyarrow")))

    def cell_reduce(group: pa.Table) -> pa.Table:
        def empty():
            return pa.table({query_id: pa.nulls(0, q_schema),
                             corpus_id: pa.nulls(0, c_schema),
                             "score": pa.array([], type=pa.float32())})

        if group.num_rows == 0:
            return empty()
        cells = np.asarray(group.column("__cell"), dtype=np.int64)
        order, bounds = numeric_segments([cells])
        g = group.take(pa.array(order))
        side = np.asarray(g.column("__side"))
        Mn = _normalize(embeddings_to_matrix(g.column("__emb")))
        qids = g.column("__qid").combine_chunks()
        cids = g.column("__cid").combine_chunks()
        q_all, c_all, s_all = [], [], []
        for s in range(len(bounds) - 1):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            sl = side[lo:hi]
            qpos = np.nonzero(sl == 1)[0] + lo
            cpos = np.nonzero(sl == 0)[0] + lo
            if not qpos.size or not cpos.size:
                continue
            # per-segment, query-chunked top-k: only ≤ |Q_chunk| × k rows
            # survive each matmul, so a hot cell costs bounded memory —
            # never the full |Q_cell| × |C_cell| cross product at once.
            # Results match lsh_ann_topk exactly, also on duplicate-heavy
            # input, because both sides score through _cosine_scores: a
            # score is the same whatever the chunk (even a 1-row one) or
            # bucket occupancy, and ties then break in the same
            # (score desc, corpus-id asc) order of _topk_per_query_idx.
            cid_seg = np.asarray(cids.take(pa.array(cpos)))
            cmat = Mn[cpos].astype(np.float64)   # gathered once per segment
            step = max(1, cell_chunk_elems // len(cpos))
            for i in range(0, len(qpos), step):
                qc = qpos[i:i + step]
                sims = _cosine_scores(Mn[qc], cmat).reshape(-1)
                qa_c = np.repeat(qc, len(cpos))
                keep = _topk_per_query_idx(
                    qa_c, np.tile(cid_seg, len(qc)), sims, k)
                q_all.append(qa_c[keep])
                c_all.append(np.tile(cpos, len(qc))[keep])
                s_all.append(sims[keep])
        if not q_all:
            return empty()
        qa = np.concatenate(q_all)
        ca = np.concatenate(c_all)
        sa = np.concatenate(s_all)
        # final merge over the ≤ k-per-(query, cell) survivors (queries
        # in this reduce group may span several cells under multiprobe)
        cid_vals = np.asarray(cids.take(pa.array(ca)))
        keep = _topk_per_query_idx(qa, cid_vals, sa, k)
        return pa.table({query_id: qids.take(pa.array(qa[keep])),
                         corpus_id: cids.take(pa.array(ca[keep])),
                         "score": pa.array(sa[keep])})

    out = packed_bucket_map_groups(tagged, ["__cell"], cell_reduce)
    if multiprobe == 0 and (probe_buckets is None or probe_buckets == 1):
        # each query lives in exactly one cell, and all of a cell's rows
        # land in one reduce task — per-cell top-k IS the global answer
        return out
    # probed cells are distinct and corpus rows live in one cell each,
    # so candidates are duplicate-free; merge per-query across cells
    return _reduce_candidates(out, k, corpus_id, qid_col=query_id)


def _schema_of_col(ds, col: str) -> pa.DataType:
    from .asof import _schema_of

    return _schema_of(ds).field(col).type


def _infer_dim(ds, vec_col: str) -> int:
    """Embedding dimensionality. Free when the schema carries it
    (``fixed_size_list``); otherwise falls back to ``take_batch(1)``,
    which executes the input lineage once before the real run — hot
    paths over derived datasets should pass ``dim`` explicitly."""
    t = _schema_of_col(ds, vec_col)
    if pa.types.is_fixed_size_list(t):
        return t.list_size
    first = ds.take_batch(1, batch_format="pyarrow")
    return embeddings_to_matrix(first.column(vec_col)).shape[1]


def _bucket_cosine_pairs(bucketed, *, threshold: float, id_col: str,
                         vec_col: str, bucket_col: str = "bucket",
                         pair_chunk_elems: int | None = None):
    """Shared verify stage for near-dup pair generation: within every
    value of ``bucket_col`` (an LSH cell or a k-means cluster id),
    all-pairs cosine over the members, emitting ``(id_a, id_b, cosine)``
    rows for pairs at or above ``threshold``. One packed bucketed
    exchange; pair WORK is quadratic only in BUCKET occupancy, never in
    corpus size — and transient memory is bounded regardless: candidate
    pairs are expanded in ``pair_chunk_elems``-sized chunks (default
    sized so each chunk's two vector gathers stay ~16 MB at any dim), so
    a hot cell (duplicate-heavy / one-semantic-mode corpus) streams
    through the reduce instead of materializing its full triangle."""
    from .buckets import numeric_segments, packed_bucket_map_groups, dedupe_pairs

    def verify(group: pa.Table) -> pa.Table:
        """One reduce task per hash bucket of cells (not one Python
        dispatch per cell — the cell count grows with the bucketing
        resolution); only multi-member cells produce candidate pairs,
        and only ``pair_chunk_elems`` of them are in flight at once."""
        import pyarrow.compute as pc

        id_type = group.column(id_col).type

        def empty():
            return pa.table({"id_a": pa.array([], type=id_type),
                             "id_b": pa.array([], type=id_type),
                             "cosine": pa.array([], type=pa.float64())})

        if group.num_rows == 0:
            return empty()
        cells = np.asarray(group.column(bucket_col), dtype=np.int64)
        order, bounds = numeric_segments([cells])
        sizes = np.diff(bounds)
        sorted_g = group.take(pa.array(order))
        V = _normalize(embeddings_to_matrix(
            sorted_g.column(vec_col)).astype(np.float32))
        ids = sorted_g.column(id_col).combine_chunks()
        # sorted row r pairs with every EARLIER row of its segment:
        # cnt[r] = r - seg_start(r); chunk emission over cumulative cnt
        # exactly like knn_join's cell_chunk_elems / the interval-join
        # sweep — per-chunk vectorized, no per-cell Python
        n = len(V)
        seg_start = np.repeat(bounds[:-1], sizes)
        cnt = np.arange(n, dtype=np.int64) - seg_start
        ccum = np.concatenate([[0], np.cumsum(cnt)])
        if ccum[-1] == 0:
            return empty()
        chunk = pair_chunk_elems or max(
            1, _CELL_CHUNK_ELEMS // max(V.shape[1], 1))
        tables: list[pa.Table] = []
        a = 0
        while a < n:
            b = int(np.searchsorted(ccum, ccum[a] + chunk,
                                    side="right")) - 1
            b = min(max(b, a + 1), n)
            c_chunk = cnt[a:b]
            total = int(ccum[b] - ccum[a])
            if total == 0:
                a = b
                continue
            ai = np.repeat(np.arange(a, b), c_chunk)
            off = (np.arange(total)
                   - np.repeat(ccum[a:b] - ccum[a], c_chunk))
            bi = np.repeat(seg_start[a:b], c_chunk) + off
            cos = np.einsum("ij,ij->i", V[ai], V[bi]).astype(np.float64)
            hit = cos >= threshold
            if hit.any():
                a_ids = ids.take(pa.array(ai[hit]))
                b_ids = ids.take(pa.array(bi[hit]))
                t = pa.table({
                    "id_a": pc.min_element_wise(a_ids, b_ids),
                    "id_b": pc.max_element_wise(a_ids, b_ids),
                    "cosine": pa.array(cos[hit]),
                })
                # duplicate-row pairs (identical ids) never count
                tables.append(t.filter(pc.not_equal(a_ids, b_ids)))
            a = b
        if not tables:
            return empty()
        return pa.concat_tables(tables).combine_chunks()

    pairs = packed_bucket_map_groups(bucketed, [bucket_col], verify)
    return dedupe_pairs(pairs, {"cosine": "min"})


def embedding_dedup_pairs(ds, *, threshold: float = 0.95,
                          id_col: str = "vec_id", vec_col: str = "embedding",
                          n_bits: int = 6, seed: int = 0xA11,
                          dim: int | None = None,
                          pair_chunk_elems: int | None = None):
    """Near-duplicate embedding pairs (cosine ≥ threshold) via LSH bucket
    + in-bucket exact verification (chunk-bounded — a hot bucket streams,
    see ``_bucket_cosine_pairs``). Returns Dataset[id_a, id_b, cosine]."""
    if dim is None:
        dim = _infer_dim(ds, vec_col)
    stage = LshBucketStage(dim, n_bits, id_col, vec_col, seed)
    return _bucket_cosine_pairs(
        ds.select_columns([id_col, vec_col])
          .map_batches(stage, batch_format="pyarrow"),
        threshold=threshold, id_col=id_col, vec_col=vec_col,
        pair_chunk_elems=pair_chunk_elems)


def kmeans_fit(ds, *, vec_col: str = "embedding", n_clusters: int = 16,
               sample_rows: int = 4096, seed: int = 0x1FF,
               iters: int = 10) -> np.ndarray:
    """Fit spherical k-means centroids over an embedding column:
    corpus-wide unbiased content-hash sample (partition-invariant, the
    same draw IVF training uses) + deterministic seeded Lloyd iterations
    on the driver. Returns an L2-normalized ``(n_clusters, dim)``
    float32 matrix — broadcast it with ``ray.put`` and assign with
    ``assign_clusters``. Only ``sample_rows`` vectors ever reach the
    driver; the corpus streams."""
    smp = _even_sample_matrix(ds, vec_col, sample_rows)
    if len(smp) == 0:
        raise ValueError("kmeans_fit on an empty dataset")
    return _minibatch_kmeans(smp, n_clusters, seed, iters=iters)


def assign_clusters(ds, centroids: np.ndarray, *,
                    vec_col: str = "embedding",
                    cluster_col: str = "cluster_id",
                    sim_col: str | None = None):
    """Append each row's nearest-centroid id (int32 argmax of cosine
    against the broadcast centroid matrix; ties break to the lowest id)
    and optionally the cosine itself (``sim_col`` — SemDeDup's
    keep-most-/least-typical policies key on it). One ``ray.put`` of the
    centroids, one vectorized matmul per block; no shuffle."""
    import ray

    C = _normalize(np.ascontiguousarray(centroids, dtype=np.float32))
    cref = ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        if batch.num_rows == 0:
            out = batch.append_column(cluster_col,
                                      pa.array([], type=pa.int32()))
            if sim_col:
                out = out.append_column(sim_col,
                                        pa.array([], type=pa.float32()))
            return out
        V = _normalize(embeddings_to_matrix(
            batch.column(vec_col)).astype(np.float32))
        sims = V @ cents.T
        cells = np.argmax(sims, axis=1)
        out = batch.append_column(cluster_col,
                                  pa.array(cells.astype(np.int32)))
        if sim_col:
            best = sims[np.arange(len(cells)), cells]
            out = out.append_column(sim_col, pa.array(best, pa.float32()))
        return out

    return ds.map_batches(assign, batch_format="pyarrow")


def semdedup_pairs(ds, *, threshold: float = 0.95,
                   id_col: str = "vec_id", vec_col: str = "embedding",
                   n_clusters: int = 16, sample_rows: int = 4096,
                   seed: int = 0x5EED, centroids: np.ndarray | None = None,
                   pair_chunk_elems: int | None = None):
    """SemDeDup-style near-duplicate pairs (Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embedding space, then exact
    all-pairs cosine WITHIN each cluster only. Complements
    ``embedding_dedup_pairs``: k-means cells follow the data's density
    (hot LSH buckets split; sparse ones merge), and the same fitted
    ``centroids`` can be reused across corpus snapshots for stable cell
    boundaries. Pair WORK is quadratic in cluster occupancy — size
    ``n_clusters ≈ corpus_rows / target_cluster_size`` — but a
    degenerate corpus (one dominant semantic mode) no longer blows the
    reduce: candidate pairs stream in ``pair_chunk_elems``-bounded
    chunks (see ``_bucket_cosine_pairs``). Returns
    Dataset[id_a, id_b, cosine]."""
    if centroids is None:
        centroids = kmeans_fit(ds, vec_col=vec_col, n_clusters=n_clusters,
                               sample_rows=sample_rows, seed=seed)
    bucketed = assign_clusters(ds.select_columns([id_col, vec_col]),
                               centroids, vec_col=vec_col,
                               cluster_col="bucket")
    return _bucket_cosine_pairs(bucketed, threshold=threshold,
                                id_col=id_col, vec_col=vec_col,
                                pair_chunk_elems=pair_chunk_elems)


# ------------------------------------------------------ product quant ----

def _euclid_kmeans(X: np.ndarray, n_centroids: int, seed: int,
                   iters: int = 12) -> np.ndarray:
    """Deterministic seeded Lloyd k-means (Euclidean — PQ subvectors are
    not unit vectors, unlike the spherical ``_minibatch_kmeans``)."""
    rng = np.random.default_rng(seed)
    X = np.ascontiguousarray(X, dtype=np.float32)
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)),
                     replace=False)].copy()
    for _ in range(iters):
        d = (C * C).sum(axis=1) - 2.0 * (X @ C.T)   # + |x|², argmin-free
        assign = np.argmin(d, axis=1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                C[c] = X[m].mean(axis=0)
    return C


def pq_fit(ds, *, vec_col: str = "embedding", m: int = 8, nbits: int = 8,
           sample_rows: int = 8192, seed: int = 0x50C0DE,
           iters: int = 12, dim: int | None = None) -> dict:
    """Train a product-quantization codebook (Jégou, Douze, Schmid 2011)
    on a corpus-wide unbiased vector sample: the embedding is split into
    ``m`` subspaces and each gets its own ``2**nbits``-centroid
    Euclidean k-means. Vectors are L2-normalized FIRST, so ADC inner
    products approximate COSINE — the metric every other ANN path here
    uses. Returns ``{"codebook": (m, 2**nbits, dsub) float32, "m",
    "nbits", "dim"}``; at the default m=8/nbits=8 a d=64 float32
    embedding compresses 256 B → 8 B (32×) — the difference between a
    100 TB embedding corpus and a 3 TB code table that fits hot.

    v1 supports nbits=8 only (one byte per subspace — the layout
    ``pq_encode`` packs)."""
    if nbits != 8:
        raise ValueError("pq_fit: only nbits=8 is supported "
                         "(one byte per subquantizer)")
    dim = dim or _infer_dim(ds, vec_col)
    if dim % m:
        raise ValueError(f"pq_fit: dim {dim} not divisible by m={m}")
    sample = _even_sample_matrix(ds, vec_col, sample_rows)
    if len(sample) < (1 << nbits):
        raise ValueError(f"pq_fit: sample of {len(sample)} rows cannot "
                         f"train {1 << nbits} centroids per subspace")
    sample = _normalize(sample.astype(np.float32))
    dsub = dim // m
    cb = np.stack([
        _euclid_kmeans(sample[:, j * dsub:(j + 1) * dsub], 1 << nbits,
                       seed + j, iters)
        for j in range(m)
    ])  # (m, 2**nbits, dsub)
    return {"codebook": cb.astype(np.float32), "m": int(m),
            "nbits": int(nbits), "dim": int(dim)}


class _PQEncodeStage:
    """map_batches actor: L2-normalize, quantize each subvector to its
    nearest codebook centroid, emit one fixed_size_binary(m) code per
    row — the broadcast codebook ships once per actor via ray.put."""

    def __init__(self, cb_ref, id_col: str, vec_col: str):
        import ray

        model = ray.get(cb_ref)
        self.C = model["codebook"]              # (m, K, dsub)
        self.cn = (self.C * self.C).sum(axis=2)  # (m, K)
        self.m, self.dim = model["m"], model["dim"]
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        code_type = pa.binary(self.m)
        if n == 0:
            return pa.table({self.id_col: batch.column(self.id_col),
                             "code": pa.array([], type=code_type)})
        V = _normalize(embeddings_to_matrix(
            batch.column(self.vec_col)).astype(np.float32))
        dsub = self.dim // self.m
        codes = np.empty((n, self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = V[:, j * dsub:(j + 1) * dsub]
            d = self.cn[j] - 2.0 * (sub @ self.C[j].T)
            codes[:, j] = np.argmin(d, axis=1)
        code_arr = pa.Array.from_buffers(
            code_type, n,
            [None, pa.py_buffer(np.ascontiguousarray(codes).tobytes())])
        return pa.table({self.id_col: batch.column(self.id_col),
                         "code": code_arr})


def pq_encode(ds, model: dict, *, id_col: str = "vec_id",
              vec_col: str = "embedding"):
    """Compress an embedding dataset to PQ codes:
    Dataset[id_col, code fixed_size_binary(m)]. Streaming, no shuffle;
    write the result with ``write_parquet`` / ``write_bucketed`` to
    persist the compressed index."""
    import ray

    cb_ref = ray.put(model)
    return ds.select_columns([id_col, vec_col]).map_batches(
        _PQEncodeStage(cb_ref, id_col, vec_col), batch_format="pyarrow")


def _codes_matrix(col: pa.ChunkedArray | pa.Array, m: int) -> np.ndarray:
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.frombuffer(col.buffers()[1], dtype=np.uint8,
                         offset=col.offset * m,
                         count=len(col) * m).reshape(-1, m)


class _PQAdcTopK:
    """map_batches actor: asymmetric-distance (ADC) top-k — each block's
    score is m byte-indexed lookups into the query LUT summed, never a
    float reconstruction. LUT = (nq, m, K) query-subvector × centroid
    inner products, built once on the driver and broadcast."""

    def __init__(self, lut_ref, k: int, id_col: str):
        import ray

        self.LUT = ray.get(lut_ref)             # (nq, m, K) float32
        self.k, self.id_col = k, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(self.id_col))
        n = batch.num_rows
        nq, m, _K = self.LUT.shape
        if n == 0:
            return pa.table({"query_id": pa.array([], type=pa.int32()),
                             self.id_col: batch.column(self.id_col),
                             "score": pa.array([], type=pa.float32())})
        codes = _codes_matrix(batch.column("code"), m)
        sims = np.zeros((nq, n), dtype=np.float32)
        for j in range(m):
            sims += self.LUT[:, j, codes[:, j]]
        k = min(self.k, n)
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]   # (nq, k)
        qids = np.repeat(np.arange(nq, dtype=np.int32), k)
        rows = top.ravel()
        return pa.table({
            "query_id": pa.array(qids),
            self.id_col: pa.array(ids[rows]),
            "score": pa.array(sims[qids, rows].astype(np.float32)),
        })


def pq_ann_topk(codes_ds, queries: np.ndarray, model: dict, k: int = 10, *,
                id_col: str = "vec_id", as_dataset: bool = False):
    """Approximate cosine top-k over a PQ-COMPRESSED corpus
    (``pq_encode`` output): the scan touches m bytes per vector instead
    of 4·dim — the 100-TB path where even one float32 pass over the
    embeddings is the bottleneck. Same candidate shape as every other
    ANN path (per-block local top-k → dataset-native bucketed reduce);
    recall is bounded by quantization error — raise ``m`` (finer cells)
    or re-rank the top candidates against the raw vectors for the exact
    head."""
    import ray

    C = model["codebook"]                       # (m, K, dsub)
    m, dim = model["m"], model["dim"]
    dsub = dim // m
    Q = _normalize(np.ascontiguousarray(queries, dtype=np.float32))
    if Q.shape[1] != dim:
        raise ValueError(f"pq_ann_topk: queries dim {Q.shape[1]} != "
                         f"codebook dim {dim}")
    Qs = Q.reshape(len(Q), m, dsub)             # (nq, m, dsub)
    lut = np.einsum("qjd,jkd->qjk", Qs, C).astype(np.float32)
    lut_ref = ray.put(lut)
    local = codes_ds.map_batches(_PQAdcTopK(lut_ref, k, id_col),
                                 batch_format="pyarrow")
    reduced = _reduce_candidates(local, k, id_col)
    if as_dataset:
        return reduced
    return _candidates_topk(reduced.take_all(), k, id_col)


def rerank_topk(ds, candidates, queries: np.ndarray, k: int = 10, *,
                id_col: str = "vec_id", vec_col: str = "embedding",
                as_dataset: bool = False):
    """EXACT re-rank of approximate ANN output: one streamed
    brute-force pass over only the rows named in ``candidates`` (a
    Dataset or Arrow table with an ``id_col`` column — e.g.
    ``pq_ann_topk``/``lsh_ann_topk``/``ivf_ann_topk`` results at a
    generous k′ > k), scoring true cosine and reducing to per-query
    top-k. The standard two-stage shape: a cheap wide scan proposes,
    the exact head is recovered by touching only nq·k′ raw vectors.

    Scoring runs over the candidate UNION (every query sees every
    candidate row), so the result is the exact top-k restricted to the
    union — recall can only improve over the proposing stage. The
    candidate-id set broadcasts once via ``ray.put`` (bounded by
    nq·k′, driver-side by construction of every ANN reduce here)."""
    import pyarrow.compute as pc
    import ray

    if isinstance(candidates, pa.Table):
        cand_ids = candidates.column(id_col)
    else:
        rows = candidates.select_columns([id_col]).take_all()
        cand_ids = pa.array([r[id_col] for r in rows])
    cand_ref = ray.put(pc.unique(
        cand_ids.combine_chunks() if isinstance(cand_ids, pa.ChunkedArray)
        else cand_ids))

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column(id_col),
                                 value_set=ray.get(cand_ref)))

    filtered = ds.select_columns([id_col, vec_col]).map_batches(
        keep, batch_format="pyarrow")
    return ann_topk(filtered, queries, k, id_col=id_col, vec_col=vec_col,
                    as_dataset=as_dataset)


class _IvfPqEncodeStage:
    """map_batches actor: one pass assigns each vector its coarse cell
    (argmax cosine vs the centroid matrix) AND its PQ code — the
    compressed IVF layout needs no second scan."""

    def __init__(self, ref, id_col: str, vec_col: str):
        import ray

        model, centroids = ray.get(ref)
        self.C = model["codebook"]
        self.cn = (self.C * self.C).sum(axis=2)
        self.m, self.dim = model["m"], model["dim"]
        self.T = np.ascontiguousarray(centroids, dtype=np.float32).T
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        code_type = pa.binary(self.m)
        if n == 0:
            return pa.table({self.id_col: batch.column(self.id_col),
                             "cell": pa.array([], type=pa.int32()),
                             "code": pa.array([], type=code_type)})
        V = _normalize(embeddings_to_matrix(
            batch.column(self.vec_col)).astype(np.float32))
        cells = np.argmax(V @ self.T, axis=1).astype(np.int32)
        dsub = self.dim // self.m
        codes = np.empty((n, self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = V[:, j * dsub:(j + 1) * dsub]
            codes[:, j] = np.argmin(
                self.cn[j] - 2.0 * (sub @ self.C[j].T), axis=1)
        code_arr = pa.Array.from_buffers(
            code_type, n,
            [None, pa.py_buffer(np.ascontiguousarray(codes).tobytes())])
        return pa.table({self.id_col: batch.column(self.id_col),
                         "cell": pa.array(cells),
                         "code": code_arr})


def ivfpq_encode(ds, model: dict, centroids: np.ndarray, *,
                 id_col: str = "vec_id", vec_col: str = "embedding"):
    """Compress an embedding corpus to the IVF-PQ layout:
    Dataset[id_col, cell int32, code fixed_size_binary(m)] — persist it
    (ideally ``write_partitioned_by(..., "cell")`` so a probe touches
    only its cells' files). Vectors are quantized raw (no residual
    subtraction — the simpler IVF+PQ variant; ADC scores stay directly
    comparable across cells, at some recall cost vs residual PQ)."""
    import ray

    ref = ray.put((model, np.asarray(centroids, dtype=np.float32)))
    return ds.select_columns([id_col, vec_col]).map_batches(
        _IvfPqEncodeStage(ref, id_col, vec_col), batch_format="pyarrow")


class _IvfPqAdcTopK:
    """map_batches actor: drop rows outside every query's probed cells,
    ADC-score the survivors, mask per-query non-probed rows to -inf."""

    def __init__(self, ref, k: int, id_col: str):
        import ray

        self.LUT, self.probe_mask = ray.get(ref)  # (nq,m,K), (nq,ncells)
        self.k, self.id_col = k, id_col
        self.any_probed = self.probe_mask.any(axis=0)  # (ncells,)

    def __call__(self, batch: pa.Table) -> pa.Table:
        nq, m, _K = self.LUT.shape

        def empty():
            return pa.table({
                "query_id": pa.array([], type=pa.int32()),
                self.id_col: batch.column(self.id_col).slice(0, 0),
                "score": pa.array([], type=pa.float32())})

        if batch.num_rows == 0:
            return empty()
        cells = np.asarray(batch.column("cell"))
        keep = self.any_probed[cells]
        if not keep.any():
            return empty()
        sub = batch.filter(pa.array(keep))
        ids = np.asarray(sub.column(self.id_col))
        codes = _codes_matrix(sub.column("code"), m)
        n = len(ids)
        sims = np.zeros((nq, n), dtype=np.float32)
        for j in range(m):
            sims += self.LUT[:, j, codes[:, j]]
        sims[~self.probe_mask[:, cells[keep]]] = -np.inf
        k = min(self.k, n)
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        qids = np.repeat(np.arange(nq, dtype=np.int32), k)
        rows = top.ravel()
        scores = sims[qids, rows]
        ok = np.isfinite(scores)          # drop masked placeholders
        return pa.table({
            "query_id": pa.array(qids[ok]),
            self.id_col: pa.array(ids[rows[ok]]),
            "score": pa.array(scores[ok].astype(np.float32)),
        })


def ivfpq_ann_topk(codes_ds, queries: np.ndarray, model: dict,
                   centroids: np.ndarray, k: int = 10, *,
                   n_probe: int = 4, id_col: str = "vec_id",
                   as_dataset: bool = False):
    """Approximate cosine top-k over the IVF-PQ layout: each query
    probes its ``n_probe`` best coarse cells and ADC-scores ONLY rows
    in probed cells — compute ∝ probed fraction of the corpus at m
    bytes per vector, the standard billion-scale serving shape. With
    ``n_probe = len(centroids)`` this equals ``pq_ann_topk`` exactly
    (pinned in tests); recall is monotone in ``n_probe``. Chain
    ``rerank_topk`` for the exact head."""
    import ray

    C = np.asarray(centroids, dtype=np.float32)
    m, dim = model["m"], model["dim"]
    if queries.shape[1] != dim:
        raise ValueError(f"ivfpq_ann_topk: queries dim "
                         f"{queries.shape[1]} != codebook dim {dim}")
    n_probe = min(int(n_probe), len(C))
    Q = _normalize(np.ascontiguousarray(queries, dtype=np.float32))
    cell_aff = Q @ C.T                           # (nq, ncells)
    probed = np.argpartition(-cell_aff, n_probe - 1,
                             axis=1)[:, :n_probe]
    probe_mask = np.zeros((len(Q), len(C)), dtype=bool)
    np.put_along_axis(probe_mask, probed, True, axis=1)
    dsub = dim // m
    lut = np.einsum("qjd,jkd->qjk", Q.reshape(len(Q), m, dsub),
                    model["codebook"]).astype(np.float32)
    ref = ray.put((lut, probe_mask))
    local = codes_ds.map_batches(_IvfPqAdcTopK(ref, k, id_col),
                                 batch_format="pyarrow")
    reduced = _reduce_candidates(local, k, id_col)
    if as_dataset:
        return reduced
    return _candidates_topk(reduced.take_all(), k, id_col)
