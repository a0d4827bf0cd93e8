"""ANN pipelines: brute-force exactness vs a numpy oracle, LSH recall."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def emb(ray_session):
    import ray.data as rd

    ds = rd.read_parquet("/root/testdata/sf0.01/embeddings.parquet")
    import pyarrow.parquet as pq

    t = pq.read_table("/root/testdata/sf0.01/embeddings.parquet")
    V = np.array(t.column("embedding").to_pylist(), dtype=np.float32)
    ids = np.asarray(t.column("vec_id"))
    return ds, V, ids


def _oracle_topk(V, ids, Q, k):
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Vn @ Qn.T
    out = {}
    for qi in range(Q.shape[0]):
        order = np.lexsort((ids, -sims[:, qi]))[:k]
        out[qi] = list(ids[order])
    return out


def test_bruteforce_matches_numpy_oracle(emb):
    from bloomjoin_ray.pipelines.ann import ann_topk

    ds, V, ids = emb
    Q = V[:5]  # first five vectors as queries
    got = ann_topk(ds, Q, k=10).to_pandas()
    want = _oracle_topk(V, ids, Q, 10)
    for qi in range(5):
        g = got[got["query_id"] == qi]["vec_id"].tolist()
        assert g == want[qi]
        # self must be its own nearest neighbor
        assert g[0] == ids[qi]


def test_bruteforce_scores_are_cosine(emb):
    from bloomjoin_ray.pipelines.ann import ann_topk

    ds, V, ids = emb
    got = ann_topk(ds, V[:1], k=1).to_pandas()
    assert got["score"].iloc[0] == pytest.approx(1.0, abs=1e-5)


def test_lsh_ann_recall(emb):
    from bloomjoin_ray.pipelines.ann import ann_topk, lsh_ann_topk

    ds, V, ids = emb
    Q = V[10:20]
    exact = ann_topk(ds, Q, k=5).to_pandas()
    approx = lsh_ann_topk(ds, Q, k=5, n_bits=4).to_pandas()
    # self-hit must survive (query bucket == its own bucket)
    for qi in range(10):
        a = approx[approx["query_id"] == qi]["vec_id"].tolist()
        assert ids[10 + qi] in a
    # overall recall of the approximate against exact should be reasonable
    hit = 0
    tot = 0
    for qi in range(10):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        hit += len(e & a)
        tot += len(e)
    assert hit / tot > 0.3


def test_ivf_ann_recall_and_self_hits(emb):
    from bloomjoin_ray.pipelines.ann import ann_topk, ivf_ann_topk

    ds, V, ids = emb
    Q = V[30:40]
    exact = ann_topk(ds, Q, k=5).to_pandas()
    approx = ivf_ann_topk(ds, Q, k=5, n_centroids=8, n_probe=3).to_pandas()
    for qi in range(10):
        a = approx[approx["query_id"] == qi]["vec_id"].tolist()
        assert ids[30 + qi] in a  # self vector lives in its own probed cell
    hit = tot = 0
    for qi in range(10):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        hit += len(e & a)
        tot += len(e)
    assert hit / tot > 0.4  # n_probe=3/8 cells probed

    # determinism: same seed → same result
    again = ivf_ann_topk(ds, Q, k=5, n_centroids=8, n_probe=3).to_pandas()
    assert approx.equals(again)


def test_embeddings_to_matrix_fixed_and_var(ray_session):
    from bloomjoin_ray.stages.ann_stages import embeddings_to_matrix

    fixed = pa.array([[1.0, 2.0], [3.0, 4.0]], type=pa.list_(pa.float32(), 2))
    var = pa.array([[1.0, 2.0], [3.0, 4.0]], type=pa.list_(pa.float32()))
    np.testing.assert_array_equal(embeddings_to_matrix(fixed),
                                  [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(embeddings_to_matrix(var),
                                  [[1.0, 2.0], [3.0, 4.0]])
    ragged = pa.array([[1.0], [1.0, 2.0]], type=pa.list_(pa.float32()))
    with pytest.raises(ValueError, match="ragged"):
        embeddings_to_matrix(ragged)


def test_topk_per_query_idx_matches_naive():
    """Vectorized per-query top-k == per-query lexsort loop, and the LSH
    score stage's output is bounded by k × nq per block."""
    from bloomjoin_ray.pipelines.ann import _topk_per_query_idx

    rng = np.random.default_rng(3)
    qids = rng.integers(0, 7, size=500)
    ids = rng.integers(0, 10_000, size=500)
    scores = rng.random(500).astype(np.float32)
    k = 5
    keep = _topk_per_query_idx(qids, ids, scores, k)
    assert len(keep) <= 7 * k
    for q in np.unique(qids):
        m = qids == q
        want = np.lexsort((ids[m], -scores[m]))[:k]
        got = keep[qids[keep] == q]
        np.testing.assert_array_equal(ids[m][want], ids[got])
        np.testing.assert_array_equal(scores[m][want], scores[got])


def test_ann_topk_large_nq_dataset_native(ray_session):
    """nq=10k queries: as_dataset=True returns a Dataset (bucketed by
    query id, no driver table); the reduced row volume is exactly
    nq × k and spot-checked queries match the numpy oracle."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import ann_topk

    rng = np.random.default_rng(41)
    n, dim, k = 2000, 8, 5
    V = rng.standard_normal((n, dim)).astype(np.float32)
    ids = np.arange(n)
    t = pa.table({"vec_id": pa.array(ids, type=pa.int64()),
                  "embedding": pa.array(list(V),
                                        type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(4)
    Q = rng.standard_normal((10_000, dim)).astype(np.float32)
    out = ann_topk(ds, Q, k=k, as_dataset=True)
    assert not isinstance(out, pa.Table)
    df = out.to_pandas()
    assert len(df) == 10_000 * k
    want = _oracle_topk(V, ids, Q[:3], k)
    for qi in range(3):
        g = (df[df["query_id"] == qi]
             .sort_values("score", ascending=False)["vec_id"].tolist())
        assert g == want[qi]


def test_ivf_even_sample_beats_head_on_sorted_corpus(ray_session):
    """Cluster-sorted corpus: the old head (limit) sample trains all
    centroids on the first cluster and recall collapses; the per-block
    evenly-spaced sample spans the distribution (verdict r2 #4)."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import ivf_ann_topk

    rng = np.random.default_rng(5)
    dim, per, k = 16, 1500, 10
    centers = np.eye(4, dim, dtype=np.float32) * 5.0
    blocks = [centers[c] + 0.3 * rng.standard_normal((per, dim))
              .astype(np.float32) for c in range(4)]
    V = np.concatenate(blocks)               # sorted by cluster
    ids = np.arange(len(V))
    t = pa.table({"vec_id": pa.array(ids, type=pa.int64()),
                  "embedding": pa.array(list(V),
                                        type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(8)     # blocks are cluster-pure
    Q = np.stack([V[per * c + 7] for c in range(4)])   # one per cluster
    want = _oracle_topk(V, ids, Q, k)

    def recall(sample):
        got = ivf_ann_topk(ds, Q, k=k, n_centroids=4, n_probe=1,
                           sample_rows=1000, sample=sample).to_pandas()
        hits = 0
        for qi in range(4):
            g = set(got[got["query_id"] == qi]["vec_id"])
            hits += len(g & set(want[qi]))
        return hits / (4 * k)

    r_even, r_head = recall("even"), recall("head")
    assert r_even >= 0.95, (r_even, r_head)
    assert r_head <= 0.75, (r_even, r_head)


def test_knn_join_matches_lsh_ann_topk(ray_session):
    """knn_join (query DATASET) computes the identical single-probe LSH
    result as lsh_ann_topk (broadcast query matrix) under the same
    planes — same algorithm, dataset-native plumbing."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import knn_join, lsh_ann_topk

    rng = np.random.default_rng(77)
    n, nq, dim, k = 3000, 200, 16, 5
    V = rng.standard_normal((n, dim)).astype(np.float32)
    Q = rng.standard_normal((nq, dim)).astype(np.float32)
    corpus = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n), type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32())),
    })).repartition(4)
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array(np.arange(nq), type=pa.int64()),
        "embedding": pa.array(list(Q), type=pa.list_(pa.float32())),
    })).repartition(3)

    got = (knn_join(corpus, queries, k=k, n_bits=4).to_pandas()
           .sort_values(["query_id", "score", "vec_id"],
                        ascending=[True, False, True])
           .reset_index(drop=True))
    want = (lsh_ann_topk(corpus, Q, k=k, n_bits=4).to_pandas()
            .sort_values(["query_id", "score", "vec_id"],
                         ascending=[True, False, True])
            .reset_index(drop=True))
    assert len(got) == len(want)
    assert got["query_id"].tolist() == want["query_id"].astype("int64").tolist()
    assert got["vec_id"].tolist() == want["vec_id"].tolist()
    assert np.allclose(got["score"], want["score"], atol=1e-6)


def test_knn_join_planted_self_hits(ray_session):
    """Slightly perturbed corpus vectors as queries: the source vector
    must surface as a hit for the vast majority of queries."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import knn_join

    rng = np.random.default_rng(13)
    n, dim = 2000, 16
    V = rng.standard_normal((n, dim)).astype(np.float32)
    src = rng.integers(0, n, 100)
    Q = V[src] + 0.01 * rng.standard_normal((100, dim)).astype(np.float32)
    corpus = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n), type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32()))}))
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array(np.arange(100), type=pa.int64()),
        "embedding": pa.array(list(Q), type=pa.list_(pa.float32()))}))
    df = knn_join(corpus, queries, k=3, n_bits=4).to_pandas()
    hits = sum(src[q] in set(df[df["query_id"] == q]["vec_id"])
               for q in range(100))
    assert hits >= 90, hits


def test_knn_join_tie_break_with_duplicate_vectors(ray_session):
    """Duplicate corpus vectors produce tied scores: selection and
    ordering must still match lsh_ann_topk exactly (score desc, id asc),
    deterministically (code-review r3 finding)."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import knn_join, lsh_ann_topk

    rng = np.random.default_rng(3)
    dim = 8
    base = rng.standard_normal(dim).astype(np.float32)
    V = np.concatenate([np.tile(base, (300, 1)),
                        rng.standard_normal((200, dim)).astype(np.float32)])
    ids = np.arange(len(V))
    rng.shuffle(ids)          # ids uncorrelated with row order
    corpus = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32())),
    })).repartition(4)
    Q = base[None, :]
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array([0], type=pa.int64()),
        "embedding": pa.array(list(Q), type=pa.list_(pa.float32()))}))
    got = (knn_join(corpus, queries, k=5, n_bits=2).to_pandas()
           .sort_values(["score", "vec_id"], ascending=[False, True]))
    want = (lsh_ann_topk(corpus, Q, k=5, n_bits=2).to_pandas()
            .sort_values(["score", "vec_id"], ascending=[False, True]))
    assert got["vec_id"].tolist() == want["vec_id"].tolist()
    # and rerunning gives the same answer (determinism under ties)
    again = (knn_join(corpus, queries, k=5, n_bits=2).to_pandas()
             .sort_values(["score", "vec_id"], ascending=[False, True]))
    assert got["vec_id"].tolist() == again["vec_id"].tolist()


def test_knn_join_multiprobe_raises_recall(ray_session):
    """multiprobe=1 (own + Hamming-1 cells) strictly dominates single
    probe on random data and reaches high recall vs the exact oracle."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import knn_join

    rng = np.random.default_rng(21)
    n, nq, dim, k = 3000, 100, 16, 10
    V = rng.standard_normal((n, dim)).astype(np.float32)
    Q = rng.standard_normal((nq, dim)).astype(np.float32)
    corpus = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n), type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32()))}))
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array(np.arange(nq), type=pa.int64()),
        "embedding": pa.array(list(Q), type=pa.list_(pa.float32()))}))
    want = _oracle_topk(V, np.arange(n), Q, k)

    def recall(mp):
        df = knn_join(corpus, queries, k=k, n_bits=6,
                      multiprobe=mp).to_pandas()
        hits = sum(len(set(df[df["query_id"] == q]["vec_id"])
                       & set(want[q])) for q in range(nq))
        return hits / (nq * k)

    r0, r1 = recall(0), recall(1)
    assert r1 > 2 * r0, (r0, r1)
    assert r1 >= 0.45, (r0, r1)


def test_lsh_ann_topk_multiprobe_raises_recall(emb):
    """lsh_ann_topk multiprobe=1 (own + Hamming-1 buckets) dominates
    single probe against the exact top-k (verdict r3 #6)."""
    from bloomjoin_ray.pipelines.ann import ann_topk, lsh_ann_topk

    ds, V, ids = emb
    Q = V[50:80]
    k = 5
    exact = ann_topk(ds, Q, k=k).to_pandas()

    def recall(mp):
        df = lsh_ann_topk(ds, Q, k=k, n_bits=6, multiprobe=mp).to_pandas()
        hit = tot = 0
        for qi in range(len(Q)):
            e = set(exact[exact["query_id"] == qi]["vec_id"])
            hit += len(e & set(df[df["query_id"] == qi]["vec_id"]))
            tot += len(e)
        return hit / tot

    r0, r1 = recall(0), recall(1)
    assert r1 >= 1.3 * r0, (r0, r1)
    assert r1 >= 0.3, (r0, r1)
    # self-hit always survives (own bucket is still probed)
    mp = lsh_ann_topk(ds, Q, k=k, n_bits=6, multiprobe=1).to_pandas()
    for qi in range(len(Q)):
        assert ids[50 + qi] in set(mp[mp["query_id"] == qi]["vec_id"])

    with pytest.raises(ValueError, match="radius"):
        lsh_ann_topk(ds, Q, k=k, n_bits=6, multiprobe=7)   # > n_bits
    with pytest.raises(ValueError, match="radius"):
        lsh_ann_topk(ds, Q, k=k, n_bits=6, multiprobe=-1)


def test_knn_join_hot_cell_stays_bounded(ray_session):
    """Adversarial hot cell (n_bits=1, duplicate-heavy corpus → one cell
    holds nearly everything): with the per-segment chunk cap forced tiny,
    knn_join still returns exactly the lsh_ann_topk answer — the reduce
    never needs the full |Q_cell| × |C_cell| cross product (verdict r3
    #2)."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import knn_join, lsh_ann_topk

    rng = np.random.default_rng(9)
    dim, k = 8, 4
    base = rng.standard_normal(dim).astype(np.float32)
    # 1200 near-duplicates + 300 random rows, single hyperplane: nearly
    # every vector shares one LSH cell
    V = np.concatenate([
        np.tile(base, (1200, 1)) + 0.01 * rng.standard_normal((1200, dim))
        .astype(np.float32),
        rng.standard_normal((300, dim)).astype(np.float32)])
    ids = np.arange(len(V))
    corpus = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32())),
    })).repartition(3)
    nq = 60
    Q = V[::25][:nq] + 0.005 * rng.standard_normal((nq, dim)).astype(np.float32)
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array(np.arange(nq), type=pa.int64()),
        "embedding": pa.array(list(Q), type=pa.list_(pa.float32()))}))

    # chunk cap of 512 score elements → every hot-cell matmul is ≤ 512
    # elements; result must be bit-identical to the broadcast-matrix path
    got = (knn_join(corpus, queries, k=k, n_bits=1,
                    cell_chunk_elems=512).to_pandas()
           .sort_values(["query_id", "score", "vec_id"],
                        ascending=[True, False, True]).reset_index(drop=True))
    want = (lsh_ann_topk(corpus, Q, k=k, n_bits=1).to_pandas()
            .sort_values(["query_id", "score", "vec_id"],
                         ascending=[True, False, True]).reset_index(drop=True))
    assert got["query_id"].tolist() == want["query_id"].astype("int64").tolist()
    assert got["vec_id"].tolist() == want["vec_id"].tolist()
    assert np.allclose(got["score"], want["score"], atol=1e-6)


@pytest.mark.parametrize("dim", [8, 384])
def test_cosine_scores_independent_of_slice_shape(dim):
    """Every slice of the ANN scoring kernel — 1, 2 or 7 rows of either
    operand — equals the same rows of the full product bit for bit. A
    plain float32 matmul fails this (a 1-row operand runs BLAS gemv, not
    gemm, and sums in another order), which is what let a chunked
    knn_join drift from lsh_ann_topk on near-duplicate neighbours."""
    from bloomjoin_ray.stages.ann_stages import _cosine_scores, _normalize

    rng = np.random.default_rng(dim)
    A = _normalize(rng.standard_normal((40, dim)).astype(np.float32))
    B = _normalize(rng.standard_normal((90, dim)).astype(np.float32))
    full = _cosine_scores(A, B)
    assert full.dtype == np.float32 and full.shape == (40, 90)
    for rows in (1, 2, 7):
        for lo in range(0, 40 - rows + 1, rows):
            np.testing.assert_array_equal(
                _cosine_scores(A[lo:lo + rows], B), full[lo:lo + rows])
        for lo in range(0, 90 - rows + 1, rows):
            np.testing.assert_array_equal(
                _cosine_scores(A, B[lo:lo + rows]), full[:, lo:lo + rows])


def test_kmeans_fit_deterministic_and_normalized(emb):
    from bloomjoin_ray.pipelines.ann import kmeans_fit

    ds, V, ids = emb
    C1 = kmeans_fit(ds, n_clusters=8, sample_rows=256, seed=3)
    C2 = kmeans_fit(ds.repartition(5), n_clusters=8, sample_rows=256, seed=3)
    assert C1.shape == (8, V.shape[1]) and C1.dtype == np.float32
    # content-hash sample → identical centroids under any partitioning
    np.testing.assert_array_equal(C1, C2)
    np.testing.assert_allclose(np.linalg.norm(C1, axis=1), 1.0, atol=1e-5)


def test_assign_clusters_matches_numpy_argmax(emb):
    from bloomjoin_ray.pipelines.ann import assign_clusters, kmeans_fit

    ds, V, ids = emb
    C = kmeans_fit(ds, n_clusters=8, sample_rows=256, seed=3)
    got = (assign_clusters(ds, C, sim_col="centroid_sim").to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    sims = Vn[np.argsort(ids)] @ C.T
    want = np.argmax(sims, axis=1)
    np.testing.assert_array_equal(got["cluster_id"], want)
    np.testing.assert_allclose(got["centroid_sim"],
                               sims[np.arange(len(want)), want], atol=1e-5)
    assert got["cluster_id"].dtype == np.int32


def test_semdedup_pairs_single_cluster_is_exhaustive(ray_session):
    """n_clusters=1 puts everything in one cell, so semdedup_pairs must
    equal the brute-force all-pairs cosine-threshold set exactly."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import semdedup_pairs

    rng = np.random.default_rng(11)
    V = rng.standard_normal((80, 16)).astype(np.float32)
    V[40:44] = V[0] + 0.001 * rng.standard_normal((4, 16)).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(80), type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32())),
    })).repartition(4)

    got = semdedup_pairs(ds, threshold=0.9, n_clusters=1,
                         sample_rows=80).to_pandas()
    got_set = set(zip(got["id_a"], got["id_b"]))
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    S = Vn @ Vn.T
    want = {(a, b) for a in range(80) for b in range(a + 1, 80)
            if S[a, b] >= 0.9}
    assert got_set == want and len(want) >= 10


def test_semdedup_hot_cell_chunked_matches_unchunked(ray_session):
    """Verdict r4 #3: a degenerate corpus (ALL vectors near one semantic
    mode → one k-means cell holds everything) must stream through the
    pair reduce in bounded chunks. A tiny pair_chunk_elems forces many
    emission chunks (500 rows → 124,750 candidate pairs vs chunk=977)
    and the result must equal both the unchunked run and brute force."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import semdedup_pairs

    rng = np.random.default_rng(17)
    base = rng.standard_normal(24).astype(np.float32)
    V = (base[None, :]
         + 0.05 * rng.standard_normal((500, 24))).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(500), type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32())),
    })).repartition(4)

    kw = dict(threshold=0.995, n_clusters=8, sample_rows=500)
    chunked = semdedup_pairs(ds, pair_chunk_elems=977, **kw).to_pandas()
    full = semdedup_pairs(ds, **kw).to_pandas()
    got_c = set(zip(chunked["id_a"], chunked["id_b"]))
    got_f = set(zip(full["id_a"], full["id_b"]))
    assert got_c == got_f
    # brute-force oracle, restricted to same-cell pairs: with one
    # dominant mode virtually all rows share a cell, so require real
    # pair volume to prove the hot path was exercised
    assert len(got_c) > 1000
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    S = Vn @ Vn.T
    brute = {(a, b) for a in range(500) for b in range(a + 1, 500)
             if S[a, b] >= 0.995}
    assert got_c <= brute                      # no false pairs ever
    cos_by_pair = dict(zip(zip(chunked["id_a"], chunked["id_b"]),
                           chunked["cosine"]))
    for (a, b), c in list(cos_by_pair.items())[:50]:
        assert abs(c - S[a, b]) < 1e-5


def test_embedding_dedup_pair_chunking_matches(ray_session):
    """embedding_dedup_pairs with a forced tiny chunk equals the
    unchunked run (LSH-bucketed hot-cell path)."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import embedding_dedup_pairs

    rng = np.random.default_rng(19)
    base = rng.standard_normal(16).astype(np.float32)
    V = (base[None, :]
         + 0.03 * rng.standard_normal((200, 16))).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(200), type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32())),
    })).repartition(3)
    a = (embedding_dedup_pairs(ds, threshold=0.997, n_bits=4,
                               pair_chunk_elems=313).to_pandas())
    b = embedding_dedup_pairs(ds, threshold=0.997, n_bits=4).to_pandas()
    assert set(zip(a["id_a"], a["id_b"])) == set(zip(b["id_a"], b["id_b"]))
    assert len(a) > 50


def test_multiprobe_radius2_recall_dominance(ray_session):
    """Verdict r4 #5: multiprobe radius ≥ 2. On a fixed random corpus,
    recall vs the exact top-k is strictly monotone radius 2 > 1 > 0 for
    BOTH lsh_ann_topk and knn_join, the two stay identical at equal
    params, and radius = n_bits reaches recall 1.0 (degenerates to
    brute force)."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import (ann_topk, knn_join,
                                             lsh_ann_topk, _probe_masks)

    # mask construction: counts and distinctness
    m2 = _probe_masks(8, 2)
    assert len(m2) == 1 + 8 + 28 and len(set(m2.tolist())) == len(m2)
    assert all(bin(int(m)).count("1") <= 2 for m in m2)

    rng = np.random.default_rng(33)
    n, nq, dim, k = 2500, 80, 16, 10
    V = rng.standard_normal((n, dim)).astype(np.float32)
    Q = rng.standard_normal((nq, dim)).astype(np.float32)
    ids = np.arange(n)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32())),
    })).repartition(4)
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array(np.arange(nq), type=pa.int64()),
        "embedding": pa.array(list(Q), type=pa.list_(pa.float32()))}))
    exact = ann_topk(ds, Q, k=k).to_pandas()
    want = {qi: set(exact[exact["query_id"] == qi]["vec_id"])
            for qi in range(nq)}

    def recall(df):
        hit = sum(len(want[qi] & set(df[df["query_id"] == qi]["vec_id"]))
                  for qi in range(nq))
        return hit / (nq * k)

    n_bits = 7
    lsh, kj = {}, {}
    for r in (0, 1, 2):
        a = lsh_ann_topk(ds, Q, k=k, n_bits=n_bits, multiprobe=r).to_pandas()
        b = knn_join(ds, queries, k=k, n_bits=n_bits,
                     multiprobe=r).to_pandas()
        lsh[r], kj[r] = recall(a), recall(b)
        # the two paths probe the same cells → identical result sets
        sa = set(zip(a["query_id"], a["vec_id"]))
        sb = set(zip(b["query_id"], b["vec_id"]))
        assert sa == sb, (r, len(sa ^ sb))
    assert lsh[2] > lsh[1] > lsh[0], lsh
    assert kj[2] > kj[1] > kj[0], kj
    assert lsh[2] >= 0.6, lsh

    # radius = n_bits probes every bucket → exact answer
    full = lsh_ann_topk(ds, Q, k=k, n_bits=5, multiprobe=5).to_pandas()
    assert recall(full) == 1.0


def test_query_directed_probing(ray_session):
    """probe_buckets=T (Lv et al. 2007 margin-ranked multiprobe):
    T=1 equals single probe, recall is monotone in T (larger T probes a
    strict superset), lsh_ann_topk == knn_join at every T, and at equal
    bucket count (T = 1 + n_bits) directed probing matches or beats
    blind Hamming-1 on a fixed corpus."""
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import (ann_topk, knn_join,
                                             lsh_ann_topk)

    rng = np.random.default_rng(47)
    n, nq, dim, k, n_bits = 2500, 80, 16, 10, 7
    V = rng.standard_normal((n, dim)).astype(np.float32)
    Q = rng.standard_normal((nq, dim)).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n), type=pa.int64()),
        "embedding": pa.array(list(V), type=pa.list_(pa.float32())),
    })).repartition(4)
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array(np.arange(nq), type=pa.int64()),
        "embedding": pa.array(list(Q), type=pa.list_(pa.float32()))}))
    exact = ann_topk(ds, Q, k=k).to_pandas()
    want = {qi: set(exact[exact["query_id"] == qi]["vec_id"])
            for qi in range(nq)}

    def recall(df):
        hit = sum(len(want[qi] & set(df[df["query_id"] == qi]["vec_id"]))
                  for qi in range(nq))
        return hit / (nq * k)

    # T=1 == own-bucket-only
    base = lsh_ann_topk(ds, Q, k=k, n_bits=n_bits).to_pandas()
    t1 = lsh_ann_topk(ds, Q, k=k, n_bits=n_bits,
                      probe_buckets=1).to_pandas()
    assert (set(zip(t1["query_id"], t1["vec_id"]))
            == set(zip(base["query_id"], base["vec_id"])))

    rec = {}
    for T in (1, 4, 8, 16, 32):
        a = lsh_ann_topk(ds, Q, k=k, n_bits=n_bits,
                         probe_buckets=T).to_pandas()
        b = knn_join(ds, queries, k=k, n_bits=n_bits,
                     probe_buckets=T).to_pandas()
        assert (set(zip(a["query_id"], a["vec_id"]))
                == set(zip(b["query_id"], b["vec_id"]))), T
        rec[T] = recall(a)
    assert rec[1] < rec[4] <= rec[8] <= rec[16] <= rec[32], rec
    assert rec[32] >= 0.6, rec

    # equal bucket count: directed (1+n_bits) vs blind Hamming-1
    blind = recall(lsh_ann_topk(ds, Q, k=k, n_bits=n_bits,
                                multiprobe=1).to_pandas())
    directed = rec_d = recall(lsh_ann_topk(
        ds, Q, k=k, n_bits=n_bits, probe_buckets=1 + n_bits).to_pandas())
    assert directed >= blind, (directed, blind)

    with pytest.raises(ValueError, match="not both"):
        lsh_ann_topk(ds, Q, k=k, n_bits=n_bits, multiprobe=1,
                     probe_buckets=4)
    with pytest.raises(ValueError, match="not both"):
        knn_join(ds, queries, k=k, n_bits=n_bits, multiprobe=1,
                 probe_buckets=4)
    with pytest.raises(ValueError, match="probe_buckets"):
        lsh_ann_topk(ds, Q, k=k, n_bits=4, probe_buckets=1000)
