"""Actor-pool stages for similarity search over embedding columns.

The query matrix travels once (``ray.put``); each actor resolves and
row-normalizes it in ``__init__`` (once per actor, not per batch) and then
scores its Arrow blocks with one dense matmul per batch.

Every cosine score in the ANN paths goes through ``_cosine_scores``, so a
score does not depend on how the rows were sliced, chunked or bucketed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def embeddings_to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """list<float> / fixed_size_list column → (n, d) float32 matrix,
    zero-copy from the Arrow values buffer when the layout allows."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_fixed_size_list(col.type):
        d = col.type.list_size
        vals = np.asarray(col.values)
        return vals.reshape(-1, d)
    offsets = np.asarray(col.offsets)
    widths = np.diff(offsets)
    d = int(widths[0]) if len(widths) else 0
    if len(widths) and not (widths == d).all():
        raise ValueError("ragged embedding column; expected fixed dimension")
    vals = np.asarray(col.values, dtype=np.float32)
    return vals[offsets[0]: offsets[0] + len(widths) * d].reshape(-1, d)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _cosine_scores(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, d) × (m, d) row-normalized float32 → (n, m) float32 scores
    (an operand may already be float64 holding float32 values; it is
    then used without a copy).

    Accumulated in float64 and rounded once to float32, so each element
    is the same whatever the operands' shapes. A float32 matmul is not:
    a 1-row operand dispatches to BLAS gemv instead of gemm, the two sum
    in different orders, and results drift by an ulp — enough to flip
    the rank of near-duplicate neighbours whose scores lie an ulp apart.
    A product of two float32 values is exact in float64, and the
    rounding error of a float64 sum of a few hundred terms is far below
    half a float32 ulp, so the rounded score no longer depends on the
    kernel or its summation order."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return (A @ B.T).astype(np.float32)


class BruteForceTopK:
    """map_batches actor: per block, cosine top-k of every query against
    the block's vectors; emits local candidates (query_id, id, score)."""

    def __init__(self, queries_ref, k: int, id_col: str, vec_col: str):
        import ray

        q = ray.get(queries_ref)           # once per actor
        self.Q = _normalize(np.asarray(q, dtype=np.float32))  # (nq, d)
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        V = _normalize(embeddings_to_matrix(batch.column(self.vec_col)).astype(np.float32))
        ids = np.asarray(batch.column(self.id_col))
        sims = _cosine_scores(V, self.Q)    # (n, nq)
        n, nq = sims.shape
        k = min(self.k, n)
        if k == 0:
            return pa.table({"query_id": pa.array([], type=pa.int32()),
                             self.id_col: batch.column(self.id_col).slice(0, 0),
                             "score": pa.array([], type=pa.float32())})
        top = np.argpartition(-sims, k - 1, axis=0)[:k]     # (k, nq)
        rows = top.ravel(order="F")
        qids = np.repeat(np.arange(nq, dtype=np.int32), k)
        return pa.table({
            "query_id": pa.array(qids),
            self.id_col: pa.array(ids[rows]),
            "score": pa.array(sims[rows, qids]),
        })


class LshBucketStage:
    """Random-hyperplane LSH: sign-bit bucket key per vector (the scale
    path for ANN / embedding near-dup — candidates collide in buckets
    instead of scoring everything)."""

    def __init__(self, dim: int, n_bits: int, id_col: str, vec_col: str,
                 seed: int = 0xA11):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_bits)).astype(np.float32)
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        V = embeddings_to_matrix(batch.column(self.vec_col)).astype(np.float32)
        bits = (V @ self.planes) > 0
        key = np.zeros(len(V), dtype=np.int64)
        for b in range(bits.shape[1]):
            key |= bits[:, b].astype(np.int64) << b
        out = batch.select([self.id_col, self.vec_col])
        return out.append_column("bucket", pa.array(key))
