"""Driver contract for the bloomjoin_ray engine.

The driver calls ``ray.init`` itself, then imports this module:
``entry()`` smoke-runs the flagship pipeline at sf0.001; each
``queries()[name](sf_dir)`` is compared against ``oracle_sql()[name]`` via
DuckDB at sf0.01 (row count + schema + order-insensitive value hash).
Approximate-sketch / heuristic queries omit the oracle (rows-only check);
their error bounds are asserted in ``tests/`` instead.

Nothing here (or in ``bloomjoin_ray``) calls ``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402


def _rd():
    import ray.data as rd

    return rd


def _read(sf_dir: str, table: str, columns=None):
    return _rd().read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


# --------------------------------------------------------------------------
# query implementations (each takes sf_dir, returns Dataset / Table)
# --------------------------------------------------------------------------

def _q_join_inner(sf_dir: str):
    from bloomjoin_ray.pipelines.join import bloom_join

    ds, _ = bloom_join(_read(sf_dir, "orders"), _read(sf_dir, "customer"),
                       {"o_custkey": "c_custkey"}, "inner")
    return ds


def _q_join_left(sf_dir: str):
    from bloomjoin_ray.pipelines.join import bloom_join

    ds, _ = bloom_join(_read(sf_dir, "lineitem"), _read(sf_dir, "part"),
                       {"l_partkey": "p_partkey"}, "left")
    return ds


def _q_join_right(sf_dir: str):
    from bloomjoin_ray.pipelines.join import bloom_join

    ds, _ = bloom_join(_read(sf_dir, "orders"), _read(sf_dir, "customer"),
                       {"o_custkey": "c_custkey"}, "right")
    return ds


def _q_join_full(sf_dir: str):
    from bloomjoin_ray.pipelines.join import bloom_join

    ds, _ = bloom_join(_read(sf_dir, "customer"), _read(sf_dir, "supplier"),
                       {"c_nationkey": "s_nationkey"}, "full")
    return ds


def _q_join_semi(sf_dir: str):
    from bloomjoin_ray.pipelines.join import bloom_join

    building = _read(sf_dir, "customer").map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow")
    ds, _ = bloom_join(_read(sf_dir, "orders"), building,
                       {"o_custkey": "c_custkey"}, "semi")
    return ds


def _q_join_anti(sf_dir: str):
    from bloomjoin_ray.pipelines.join import bloom_join

    ds, _ = bloom_join(_read(sf_dir, "orders"),
                       _read(sf_dir, "lineitem", columns=["l_orderkey"]),
                       {"o_orderkey": "l_orderkey"}, "anti")
    return ds


def _q_join_multikey(sf_dir: str):
    from bloomjoin_ray.pipelines.join import hash_join

    x = _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_quantity"])
    y = _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_extendedprice"])
    return hash_join(x, y, ["l_orderkey", "l_linenumber"], "inner")


def _q_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped: filter → per-block partial sums → grouped sum."""
    from bloomjoin_ray.pipelines.aggregate import grouped_sums

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_shipdate"])
    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"))
    li = li.map_batches(lambda t: t.filter(pc.less_equal(t["l_shipdate"], cutoff)),
                        batch_format="pyarrow")
    out = grouped_sums(li, ["l_returnflag", "l_linestatus"],
                       {"l_quantity": "sum_qty",
                        "l_extendedprice": "sum_base_price"},
                       count_col="count_order")

    def rounded(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("sum_base_price")
        return batch.set_column(i, "sum_base_price",
                                pc.round(batch["sum_base_price"], 2))

    return out.map_batches(rounded, batch_format="pyarrow")


def _q_events_filtered(sf_dir: str):
    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "value"])
    return ev.map_batches(
        lambda t: t.filter(pc.and_(pc.equal(t["event_type"], "purchase"),
                                   pc.greater(t["value"], 100.0))),
        batch_format="pyarrow")


def _q_events_hourly(sf_dir: str):
    from bloomjoin_ray.pipelines.aggregate import grouped_sums

    ev = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def add_hour(t: pa.Table) -> pa.Table:
        return t.append_column("hour", pc.floor_temporal(t["ts"], unit="hour"))

    ev = ev.map_batches(add_hour, batch_format="pyarrow")
    return grouped_sums(ev.select_columns(["hour", "event_type", "value"]),
                        ["hour", "event_type"], {}, count_col="n")


def _q_topk_event_types(sf_dir: str):
    from bloomjoin_ray.pipelines.aggregate import topk_exact

    return topk_exact(_read(sf_dir, "events", columns=["event_type"]),
                      "event_type", 5)


def _q_distinct_users(sf_dir: str):
    from bloomjoin_ray.pipelines.aggregate import distinct_exact

    n = distinct_exact(_read(sf_dir, "events", columns=["user_id"]), "user_id")
    return pa.table({"n_distinct": pa.array([n], type=pa.int64())})


def _q_hll_users(sf_dir: str):
    from bloomjoin_ray.pipelines.aggregate import hll_distinct

    est = hll_distinct(_read(sf_dir, "events", columns=["user_id"]), "user_id")
    return pa.table({"distinct_est": pa.array([float(est)])})


def _q_hll_event_types_by_user(sf_dir: str):
    from bloomjoin_ray.pipelines.aggregate import hll_distinct

    return hll_distinct(_read(sf_dir, "events", columns=["user_id", "event_type"]),
                        "event_type", key="user_id", salt=4)


def _q_cms_top_event_types(sf_dir: str):
    from bloomjoin_ray.pipelines.aggregate import cms_heavy_hitters

    return cms_heavy_hitters(_read(sf_dir, "events", columns=["event_type"]),
                             "event_type", topk=5, width=8192)


def _q_tdigest_value(sf_dir: str):
    from bloomjoin_ray.pipelines.aggregate import approx_quantiles

    qs = [0.1, 0.5, 0.9, 0.99]
    est = approx_quantiles(_read(sf_dir, "events", columns=["value"]),
                           "value", qs, method="tdigest")
    return pa.table({"q": pa.array(qs), "value_est": pa.array(np.asarray(est))})


def _q_tdigest_by_type(sf_dir: str):
    """Grouped approximate quantiles (t-digest per event_type) — the
    per-key sketch path (rows-only; error bounds pinned in
    tests/test_aggregate.py)."""
    from bloomjoin_ray.pipelines.aggregate import approx_quantiles

    return approx_quantiles(_read(sf_dir, "events",
                                  columns=["event_type", "value"]),
                            "value", [0.1, 0.5, 0.9], key="event_type")


def _q_minhash_join_docs(sf_dir: str):
    """Cross-corpus near-dup JOIN (snapshot-vs-snapshot shape):
    documents joined against a deterministically perturbed copy of
    itself (a few tokens appended, ids offset) — every sufficiently
    long doc should match its own perturbed twin. Approximate (LSH;
    no oracle): recall/side-separation pinned in tests/test_dedup.py."""
    from bloomjoin_ray.pipelines.dedup import minhash_join

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def perturb(b: pa.Table) -> pa.Table:
        txt = pc.binary_join_element_wise(
            b.column("text"), pa.scalar(" snapshot delta marker tokens"),
            pa.scalar(""))
        ids = pc.add(b.column("doc_id"), 10_000_000)
        return pa.table({"doc_id": ids, "text": txt})

    return minhash_join(
        docs, docs.map_batches(perturb, batch_format="pyarrow"),
        threshold=0.6)


def _q_dataset_profile(sf_dir: str):
    """ONE-PASS whole-table profile of events (counts, nulls, HLL
    distinct, min/max, mean/std, KLL quantiles, string mean length) —
    the pre-processing reconnaissance operator. Approximate (no
    oracle): exact counters + sketch bounds pinned vs DuckDB in
    tests/test_tprofile.py."""
    from bloomjoin_ray.pipelines.profile import dataset_profile

    return dataset_profile(_read(sf_dir, "events"))


def _q_ddsketch_value(sf_dir: str):
    """DDSketch quantiles: relative-VALUE-error bound (within α·|true|
    uniformly, incl. tails) — vs t-digest/KLL's rank-error bounds.
    Approximate (no oracle); bound pinned in tests/test_ddsketch.py."""
    from bloomjoin_ray.pipelines.aggregate import approx_quantiles

    qs = [0.1, 0.5, 0.9, 0.99]
    est = approx_quantiles(_read(sf_dir, "events", columns=["value"]),
                           "value", qs, method="ddsketch", alpha=0.01)
    return pa.table({"q": pa.array(qs), "value_est": pa.array(np.asarray(est))})


def _q_kll_value(sf_dir: str):
    from bloomjoin_ray.pipelines.aggregate import approx_quantiles

    qs = [0.1, 0.5, 0.9, 0.99]
    est = approx_quantiles(_read(sf_dir, "events", columns=["value"]),
                           "value", qs, method="kll")
    return pa.table({"q": pa.array(qs), "value_est": pa.array(np.asarray(est))})


def _q_dedup_exact(sf_dir: str):
    from bloomjoin_ray.pipelines.dedup import exact_dedup

    return exact_dedup(_read(sf_dir, "documents"), "text", "doc_id")


def _q_dedup_lines(sf_dir: str):
    """Corpus-level LINE dedup (CCNet/RefinedWeb boilerplate scrub):
    drop every copy of any line occurring more than once corpus-wide,
    rebuild texts in original order ('' when nothing survives). Count
    via packed grouped aggregation on the 128-bit line hash; rebuild is
    one streaming map_batches against the broadcast dup set — document
    text never shuffles."""
    from bloomjoin_ray.pipelines.dedup import dedup_lines

    return dedup_lines(_read(sf_dir, "documents",
                             columns=["doc_id", "text"]))


def _q_dedup_minhash(sf_dir: str):
    from bloomjoin_ray.pipelines.dedup import minhash_dedup

    return minhash_dedup(_read(sf_dir, "documents",
                               columns=["doc_id", "text"]),
                         threshold=0.7)


def _q_dedup_minhash_keep_best(sf_dir: str):
    """Near-dup dedup keeping the HIGHEST-QUALITY member of each MinHash
    cluster (longest doc, min id on ties) instead of an arbitrary one —
    the curation-grade survivor policy. Rows-only: cluster membership is
    approximate; winner-selection parity with brute force is pinned in
    tests/test_dedup.py::test_dedup_by_pairs_keep_best_score."""
    from bloomjoin_ray.pipelines.dedup import minhash_dedup

    return minhash_dedup(_read(sf_dir, "documents",
                               columns=["doc_id", "text", "n_chars"]),
                         threshold=0.7, score_col="n_chars")


def _q_simhash_pairs(sf_dir: str):
    from bloomjoin_ray.pipelines.dedup import simhash_pairs

    return simhash_pairs(_read(sf_dir, "documents", columns=["doc_id", "text"]),
                         max_hamming=3)


def _q_ngram_jaccard(sf_dir: str):
    from bloomjoin_ray.pipelines.dedup import ngram_jaccard_pairs

    # word 3-grams: the synthetic docs draw from a tiny vocabulary, so
    # char shingles are all df-pruned; word n-grams discriminate.
    # ngram="word" runs the batch-vectorized word kernel (no per-doc loop)
    return ngram_jaccard_pairs(_read(sf_dir, "documents",
                                     columns=["doc_id", "text"]),
                               threshold=0.5, max_df=64,
                               ngram="word", shingle_k=3)


def _q_doc_stats(sf_dir: str):
    from bloomjoin_ray.pipelines.text import text_stats

    out = text_stats(_read(sf_dir, "documents", columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "n_chars", "n_tokens", "n_punct",
                               "avg_token_len", "punct_ratio"])


def _q_scrubbed_docs(sf_dir: str):
    """Regex scrubbing (the PII-redaction shape): mask two vocabulary
    words, collapse whitespace. One vectorized RE2 pass per pattern;
    oracle = DuckDB regexp_replace (same RE2 engine)."""
    from bloomjoin_ray.pipelines.text import scrub_text

    return scrub_text(_read(sf_dir, "documents", columns=["doc_id", "text"]),
                      [(r"\b(spark|table)\b", "<TOK>"), (r"\s+", " ")])


def _q_repetition_docs(sf_dir: str):
    """Gopher-style repetition signals per document (dup-line fraction,
    dup-line char fraction, top-token share, dup word-2-gram fraction);
    every metric is integer arithmetic + ONE float64 division, so the
    DuckDB oracle pins the values bit-for-bit."""
    from bloomjoin_ray.pipelines.text import repetition_stats

    out = repetition_stats(_read(sf_dir, "documents",
                                 columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "dup_line_frac",
                               "dup_line_char_frac", "top_token_frac",
                               "dup_ngram_frac"])


def _mod20_split(sf_dir: str):
    """documents split by doc_id % 20: (train, eval) — the deterministic
    held-out set for the decontamination query (SQL-replicable, unlike
    the engine's content-hash split)."""
    def part(want_eval):
        def fn(batch: pa.Table) -> pa.Table:
            m = (np.asarray(batch.column("doc_id")) % 20) == 0
            return batch.filter(pa.array(m if want_eval else ~m))
        return _read(sf_dir, "documents",
                     columns=["doc_id", "text"]).map_batches(
            fn, batch_format="pyarrow")
    return part(False), part(True)


def _q_decontam_docs(sf_dir: str):
    """Benchmark decontamination: flag train docs (doc_id % 20 != 0)
    sharing any word 3-gram with the eval split (doc_id % 20 == 0) —
    Bloom prefilter inside the corpus explode pass, exact semi-join on
    survivors; returns each contaminated doc's exact shared-gram count."""
    from bloomjoin_ray.pipelines.decontam import contaminated_counts

    train, ev = _mod20_split(sf_dir)
    return contaminated_counts(train, ev, n=3)


def _q_cross_doc_repetition(sf_dir: str):
    """Cross-document n-gram repetition score over the whole corpus
    (boilerplate/template signal): per doc, how many of its distinct
    word 3-grams appear in >= 2 documents corpus-wide, plus the
    fraction. One packed exchange keyed on the gram hash (segment size
    IS the document frequency) + one small per-doc sum — no df table
    ever joins back against the posting stream."""
    from bloomjoin_ray.pipelines.decontam import cross_doc_ngram_stats

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return cross_doc_ngram_stats(docs, n=3, min_df=2)


def _q_edit_distance_join_customers(sf_dir: str):
    """Fuzzy self-join: all customer-name pairs within byte-Levenshtein
    1 (record-linkage shape). Symmetric-deletion (SymSpell) blocking →
    one packed candidate exchange → vectorized Myers bit-parallel
    verify; the oracle is DuckDB's own levenshtein() inequality join."""
    from bloomjoin_ray.pipelines.fuzzy import edit_distance_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    return edit_distance_join(cust, col="c_name", id_col="c_custkey",
                              max_dist=1)


def _q_bm25_topk_docs(sf_dir: str):
    """BM25 retrieval: top-10 documents for the query "data sort merge"
    (Okapi BM25, Lucene idf) — two streaming passes (per-block corpus
    stats → broadcast idf constants → block-local top-k prune), no
    shuffle; the SQL oracle writes the identical left-to-right float64
    expression so even the score BITS match."""
    from bloomjoin_ray.pipelines.text import bm25_topk

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(docs, "data sort merge", k=10)


def _q_duplicate_spans(sf_dir: str):
    """Substring-level duplication map of the corpus (Lee et al. 2022
    span dedup): merged token spans covered by word 3-grams occurring
    >= 2 times corpus-wide. Positional postings → packed gram exchange
    (segment size IS the corpus count; only duplicated (doc, pos) rows
    leave) → per-doc gap-scan span merge."""
    from bloomjoin_ray.pipelines.decontam import duplicate_spans

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return duplicate_spans(docs, n=3, min_count=2)


def _q_scrub_spans(sf_dir: str):
    """Substring-level corpus scrub: cut every duplicated 3-gram span
    (>= 2 corpus-wide occurrences) out of each document — docs + span
    rows union into ONE packed exchange keyed on doc_id; each task
    rebuilds all its docs in one vectorized split/mask/binary_join
    pass (case preserved, whitespace-normalized output)."""
    from bloomjoin_ray.pipelines.decontam import scrub_duplicate_spans

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return scrub_duplicate_spans(docs, n=3, min_count=2)


def _q_bpe_token_counts(sf_dir: str):
    """BPE-style pre-tokenizer token counts per document (the training
    token-budget metric): one vectorized re2 pass; DuckDB shares the
    re2 engine so the oracle's regexp_extract_all length matches
    exactly."""
    from bloomjoin_ray.pipelines.text import count_tokens_bpe

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return count_tokens_bpe(docs).map_batches(
        lambda b: b.select(["doc_id", "n_tokens_bpe"]),
        batch_format="pyarrow")


def _q_curation_full(sf_dir: str):
    """End-to-end curation chain over the train split (doc_id % 20 != 0):
    quality filter (token count / punct ratio) → repetition filter
    (top-token share, dup-2-gram fraction) → exact dedup (keep min
    doc_id per text) → benchmark decontamination against the eval split
    (word 5-grams, drop mode). Every stage streams; the whole chain is
    SQL-expressible so the oracle pins the composition end to end."""
    from bloomjoin_ray.pipelines.decontam import decontaminate
    from bloomjoin_ray.pipelines.dedup import exact_dedup
    from bloomjoin_ray.pipelines.text import filter_repetitive, text_stats

    train, ev = _mod20_split(sf_dir)
    stats = text_stats(train)

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.greater_equal(t["n_tokens"], 20),
                                pc.less_equal(t["punct_ratio"], 0.05)))

    filtered = filter_repetitive(
        stats.map_batches(keep, batch_format="pyarrow"),
        max_dup_line_frac=float("inf"),
        max_dup_line_char_frac=float("inf"),
        max_top_token_frac=0.15, max_dup_ngram_frac=0.06)
    deduped = exact_dedup(filtered, "text", "doc_id")
    clean = decontaminate(deduped, ev, n=5, mode="drop")
    return clean.select_columns(["doc_id", "n_tokens"])


def _q_vocab_counts(sf_dir: str):
    """Corpus vocabulary with exact token frequencies (the
    vocabulary-builder word count) — explode + packed grouped sum."""
    from bloomjoin_ray.pipelines.text import token_counts

    return token_counts(_read(sf_dir, "documents", columns=["text"]))


def _q_chunked_docs(sf_dir: str):
    """RAG-style fixed-token chunking: 16-token windows advancing by 12
    (overlap 4) over the corpus tokenization; chunk text re-joined with
    single spaces. Fully vectorized (one take + one binary_join per
    batch); oracle = DuckDB list-slice + array_to_string."""
    from bloomjoin_ray.pipelines.text import chunk_documents

    return chunk_documents(_read(sf_dir, "documents",
                                 columns=["doc_id", "text"]),
                           16, overlap=4)


def _q_doc_frequency(sf_dir: str):
    """Per-token distinct-document counts (the DF side of TF-IDF) —
    per-batch (doc, token) dedupe via Arrow group_by, packed
    order-independent grouped count."""
    from bloomjoin_ray.pipelines.text import doc_frequency

    return doc_frequency(_read(sf_dir, "documents", columns=["text"]))


def _q_tfidf_docs(sf_dir: str):
    """Per-document top-3 TF-IDF terms — term counts ⋈ doc_frequency
    via the engine's hash_join, then topk_rows_per_key (per-block
    prune → packed exchange). Rational idf (N+1)/(df+1): one integer
    product + one IEEE division, bit-exact in SQL."""
    from bloomjoin_ray.pipelines.text import tfidf_topk

    return tfidf_topk(_read(sf_dir, "documents", columns=["doc_id", "text"]),
                      3)


def _q_events_rank_per_user(sf_dir: str):
    """Per-user event sequence numbering — the plain row_number()
    window (topk_rows_per_key with k=None: no prune stage, one packed
    bucketed rank pass)."""
    from bloomjoin_ray.pipelines.aggregate import topk_rows_per_key

    return topk_rows_per_key(
        _read(sf_dir, "events", columns=["user_id", "event_id", "ts"]),
        "user_id", [("ts", "ascending"), ("event_id", "ascending")],
        None)


def _q_events_lag_per_user(sf_dir: str):
    """Per-user LAG window — each event annotated with the previous
    event's ts and value (pure reordering via one packed bucketed
    exchange; bit-exact vs SQL lag())."""
    from bloomjoin_ray.pipelines.windows import shift_per_key

    return shift_per_key(
        _read(sf_dir, "events", columns=["user_id", "event_id", "ts",
                                         "value"]),
        "user_id", [("ts", "ascending"), ("event_id", "ascending")],
        ["ts", "value"])


def _q_tpch_q3_top_orders(sf_dir: str):
    """TPC-H Q3-shaped composite: BUILDING customers ⋈ pre-cutoff
    orders ⋈ post-cutoff lineitems → revenue per order → top 10.
    Exercises the whole engine in one chain: two Bloom-prefiltered
    joins (each build side shrinks the probe scan), integral-cents
    revenue partial sums, and an exact deterministic top-k."""
    from bloomjoin_ray.pipelines.aggregate import grouped_sums
    from bloomjoin_ray.pipelines.join import bloom_join

    cutoff = pa.scalar(np.datetime64("1995-03-15", "us"))
    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING"))
                   .drop_columns(["c_mktsegment"]),
        batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate",
                            "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.less(t["o_orderdate"], cutoff)),
        batch_format="pyarrow")
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"]).map_batches(
        lambda t: t.filter(pc.greater(t["l_shipdate"], cutoff)),
        batch_format="pyarrow")

    def add_revenue(t: pa.Table) -> pa.Table:
        cents = np.floor(
            np.asarray(t.column("l_extendedprice"), dtype=np.float64)
            * (1.0 - np.asarray(t.column("l_discount"), dtype=np.float64))
            * 100.0).astype(np.int64)
        return (t.append_column("revenue_cents", pa.array(cents))
                .drop_columns(["l_extendedprice", "l_discount",
                               "l_shipdate"]))

    ords, _ = bloom_join(orders, cust, {"o_custkey": "c_custkey"}, "semi")
    j, _ = bloom_join(li.map_batches(add_revenue, batch_format="pyarrow"),
                      ords.drop_columns(["o_custkey"]),
                      {"l_orderkey": "o_orderkey"}, "inner")
    rev = grouped_sums(j, ["l_orderkey", "o_orderdate", "o_orderpriority"],
                       {"revenue_cents": "revenue_cents"})

    def recast(t: pa.Table) -> pa.Table:
        # Ray's groupby round-trips date-granular keys through numpy,
        # downcasting timestamp[us] → [s]; restore the input unit
        i = t.schema.get_field_index("o_orderdate")
        return t.set_column(i, "o_orderdate",
                            t.column("o_orderdate").cast(pa.timestamp("us")))

    return (rev.sort(["revenue_cents", "l_orderkey"],
                     descending=[True, False]).limit(10)
            .map_batches(recast, batch_format="pyarrow"))


def _q_events_rank_family(sf_dir: str):
    """SQL rank()/dense_rank()/percent_rank()/cume_dist() per user over
    integral value buckets (floor forces ties so peer semantics are
    actually exercised). Bit-exact: ranks are tie-run arithmetic,
    ratios are single divisions of exact integers."""
    from bloomjoin_ray.pipelines.windows import rank_per_key

    def add_vf(t: pa.Table) -> pa.Table:
        vf = np.floor(np.asarray(t.column("value"),
                                 dtype=np.float64)).astype(np.int64)
        return (t.append_column("vf", pa.array(vf))
                .drop_columns(["value"]))

    ev = _read(sf_dir, "events",
               columns=["user_id", "event_id", "value"]).map_batches(
        add_vf, batch_format="pyarrow")
    return rank_per_key(ev, "user_id", ["vf"])


def _q_events_first_last(sf_dir: str):
    """SQL first_value/last_value/nth_value over the full-partition
    frame: each event annotated with its user's first, latest, and
    third event_type in time order. Pure index gathers — bit-exact."""
    from bloomjoin_ray.pipelines.windows import first_last_per_key

    ev = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "event_type"])
    return first_last_per_key(ev, "user_id", ["ts", "event_id"],
                              "event_type", nth=3)


def _q_value_histogram(sf_dir: str):
    """Equi-width histogram of event values: exact per-bin counts with
    explicit [0, 1000] range so the SQL oracle evaluates the identical
    IEEE bucket expression. Partials-only shuffle, ≤ bins output rows."""
    from bloomjoin_ray.pipelines.aggregate import histogram

    ev = _read(sf_dir, "events", columns=["value"])
    return histogram(ev, "value", 20, lo=0.0, hi=1000.0)


def _q_doc_quality_scores(sf_dir: str):
    """Classifier-based quality gate (the GPT-3/CCNet 'looks like
    reference text' filter): train the hashed-BoW logistic model with
    the real documents as positives vs a deterministic vocabulary-
    scrambled junk twin as negatives, then stream scores over the
    corpus. Rows-only (model output); separation/invariance pinned in
    tests/test_classify.py."""
    import pyarrow.compute as pc

    from bloomjoin_ray.functions.text import fnv1a64_strings, split_tokens
    from bloomjoin_ray.pipelines.classify import (score_text_classifier,
                                                  train_text_classifier)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def junkify(t: pa.Table) -> pa.Table:
        flat, offs = split_tokens(t.column("text"))
        h = (fnv1a64_strings(flat) % np.uint64(9973)).astype(np.int64)
        junk_flat = pa.array(np.char.add("j", h.astype("U5")))
        lst = pa.ListArray.from_arrays(pa.array(offs, type=pa.int32()),
                                       junk_flat)
        return pa.table({"doc_id": t.column("doc_id"),
                         "text": pc.binary_join(lst, " ")})

    junk = docs.map_batches(junkify, batch_format="pyarrow")
    model = train_text_classifier(docs, junk, dim=1024,
                                  sample_rows=2048, iters=100)
    return score_text_classifier(docs, model).select_columns(
        ["doc_id", "quality_score"])


def _q_docs_cap_per_source(sf_dir: str):
    """Per-source diversity cap — keep the 3 longest docs per source
    (doc_id tiebreak), the "at most k pages per domain" curation rule.
    SQL ``row_number() OVER (PARTITION BY source ...) <= 3`` parity via
    the packed mergeable top-k-rows reduce (per-block prune first; only
    ≤ k rows per key per block reach the exchange)."""
    from bloomjoin_ray.pipelines.aggregate import topk_rows_per_key

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "n_chars"])
    return topk_rows_per_key(docs, "source",
                             [("n_chars", "descending"),
                              ("doc_id", "ascending")], 3)


def _q_docs_source_extract(sf_dir: str):
    """Generic named-group regex extraction (SQL regexp_extract): parse
    the numeric suffix out of each document's source tag. One re2 pass
    per batch, no shuffle."""
    from bloomjoin_ray.pipelines.text import regex_extract

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
    return regex_extract(docs, "source", r"^src(?P<src_num>[0-9]+)$")


def _q_docs_canonical(sf_dir: str):
    """Dedup-prep canonical text form (NFC + lower + whitespace
    collapse); vectorized Arrow kernels with the ASCII fast path."""
    from bloomjoin_ray.pipelines.text import canonicalize_text

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return canonicalize_text(docs, "text", out_col="text_canon")


def _q_events_describe(sf_dir: str):
    """Per-column summary stats over the integer event columns — exact
    Python-int sum combine makes mean/std bit-reproducible in SQL."""
    from bloomjoin_ray.pipelines.aggregate import describe

    ev = _read(sf_dir, "events", columns=["event_id", "user_id"])
    return describe(ev, ["event_id", "user_id"])


def _q_mode_type_per_user(sf_dir: str):
    """Per-user modal event_type (deterministic smallest-value
    tie-break) — exact counts through the packed exchange, mergeable
    top-1 prune."""
    from bloomjoin_ray.pipelines.aggregate import mode_per_key

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return mode_per_key(ev, "user_id", "event_type")


def _q_props_k_by_type(sf_dir: str):
    """JSON field extraction + aggregate: pull the numeric ``k`` field
    out of the flat-JSON ``props`` column (one vectorized re2
    extract_regex per batch — no per-row json.loads) and sum it per
    event type."""
    from bloomjoin_ray.pipelines.aggregate import grouped_sums
    from bloomjoin_ray.pipelines.text import json_extract_scalar

    ev = json_extract_scalar(
        _read(sf_dir, "events", columns=["event_type", "props"]),
        "props", "k", out_col="k", cast=pa.int64())
    return grouped_sums(ev.drop_columns(["props"]), ["event_type"],
                        {"k": "sum_k"}, count_col="n")


def _q_user_type_sequences(sf_dir: str):
    """Conversation assembly — SQL ``string_agg(event_type ORDER BY ts,
    event_id)`` per user: one row per user with their full ordered
    event-type sequence plus turn count. One packed exchange; the join
    is a single vectorized binary_join over a zero-copy ListArray."""
    from bloomjoin_ray.pipelines.aggregate import collect_per_key

    ev = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    return collect_per_key(ev, "user_id", "event_type",
                           ["ts", "event_id"], sep=",",
                           out_col="types_seq", count_col="n_turns")


def _q_exact_quantiles_by_type(sf_dir: str):
    """EXACT per-event-type value quantiles (discrete mode — gathers
    actual elements, bit-identical to SQL quantile_disc; the exact
    sibling of tdigest_value_by_type). One packed exchange of
    (event_type, value) rows, one lexsort per bucket."""
    from bloomjoin_ray.pipelines.aggregate import grouped_quantile_exact

    return grouped_quantile_exact(
        _read(sf_dir, "events", columns=["event_type", "value"]),
        "event_type", "value", [0.25, 0.5, 0.9], interpolation="disc")


def _q_events_rollup(sf_dir: str):
    """GROUP BY ROLLUP (event_type, user_id): spend + count at every
    prefix level plus the grand total, one packed exchange of cascaded
    per-block partials (integral cents so the sums are hash-exact)."""
    import numpy as np
    import pyarrow as pa

    from bloomjoin_ray.pipelines.aggregate import rollup_agg

    def add_cents(batch: pa.Table) -> pa.Table:
        cents = np.floor(
            np.asarray(batch.column("value")) * 100).astype(np.int64)
        return batch.append_column("cents", pa.array(cents))

    ev = (_read(sf_dir, "events", columns=["event_type", "user_id", "value"])
          .map_batches(add_cents, batch_format="pyarrow")
          .drop_columns(["value"]))
    return rollup_agg(ev, ["event_type", "user_id"], {"cents": "spend"},
                      count_col="n")


def _q_embedding_unnest(sf_dir: str):
    """SQL UNNEST: one row per embedding element — zero-copy list
    flatten + parent-row take per block, no shuffle."""
    from bloomjoin_ray.pipelines.reshape import explode_column

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return explode_column(emb, "embedding", out_col="v")


def _q_lineitem_unpivot(sf_dir: str):
    """SQL UNPIVOT / melt: (quantity, discount, tax) stacked to
    one row per (lineitem, measure) — pure per-block reshape."""
    from bloomjoin_ray.pipelines.reshape import unpivot

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber",
                        "l_quantity", "l_discount", "l_tax"])
    return unpivot(li, ["l_orderkey", "l_linenumber"],
                   ["l_quantity", "l_discount", "l_tax"],
                   var_col="measure", val_col="value")


def _q_lineitem_moments(sf_dir: str):
    """Per-returnflag mean/variance/stddev/covariance/correlation of
    (quantity, discount-cents) — int64-exact partial sums through one
    order-pinned exchange, finalize expressions bit-reproducible in SQL
    (see grouped_moments docstring for the pinned expression tree)."""
    import numpy as np
    import pyarrow as pa

    from bloomjoin_ray.pipelines.aggregate import grouped_moments

    def derive(batch: pa.Table) -> pa.Table:
        q = np.rint(np.asarray(batch.column("l_quantity"))).astype(np.int64)
        d = np.rint(np.asarray(batch.column("l_discount")) * 100
                    ).astype(np.int64)
        return pa.table({"l_returnflag": batch.column("l_returnflag"),
                         "x": pa.array(q), "y": pa.array(d)})

    li = (_read(sf_dir, "lineitem",
                columns=["l_returnflag", "l_quantity", "l_discount"])
          .map_batches(derive, batch_format="pyarrow"))
    return grouped_moments(li, ["l_returnflag"], "x", "y")


def _q_custkey_union(sf_dir: str):
    """SQL UNION (distinct): order custkeys ∪ customer custkeys — one
    packed dedupe exchange over the concatenated streams."""
    from bloomjoin_ray.pipelines.setops import union_distinct

    o = (_read(sf_dir, "orders", columns=["o_custkey"])
         .map_batches(lambda b: b.rename_columns(["k"]),
                      batch_format="pyarrow"))
    c = (_read(sf_dir, "customer", columns=["c_custkey"])
         .map_batches(lambda b: b.rename_columns(["k"]),
                      batch_format="pyarrow"))
    return union_distinct(o, c, "k")


def _q_custkey_intersect(sf_dir: str):
    """SQL INTERSECT: custkeys present in BOTH orders and customer —
    distinct-then-semi-join (null==null set semantics)."""
    from bloomjoin_ray.pipelines.setops import intersect_distinct

    o = (_read(sf_dir, "orders", columns=["o_custkey"])
         .map_batches(lambda b: b.rename_columns(["k"]),
                      batch_format="pyarrow"))
    c = (_read(sf_dir, "customer", columns=["c_custkey"])
         .map_batches(lambda b: b.rename_columns(["k"]),
                      batch_format="pyarrow"))
    return intersect_distinct(o, c, "k")


def _q_orderkey_except(sf_dir: str):
    """SQL EXCEPT: orders with no lineitems —
    distinct-then-anti-join (null==null set semantics)."""
    from bloomjoin_ray.pipelines.setops import except_distinct

    o = (_read(sf_dir, "orders", columns=["o_orderkey"])
         .map_batches(lambda b: b.rename_columns(["k"]),
                      batch_format="pyarrow"))
    li = (_read(sf_dir, "lineitem", columns=["l_orderkey"])
          .map_batches(lambda b: b.rename_columns(["k"]),
                       batch_format="pyarrow"))
    return except_distinct(o, li, "k")


def _q_events_cube(sf_dir: str):
    """GROUP BY CUBE (event_type, user_id): spend + count for every key
    SUBSET (4 grouping sets), one packed exchange of per-block partials
    (integral cents so the sums are hash-exact)."""
    import numpy as np
    import pyarrow as pa

    from bloomjoin_ray.pipelines.aggregate import cube_agg

    def add_cents(batch: pa.Table) -> pa.Table:
        cents = np.floor(
            np.asarray(batch.column("value")) * 100).astype(np.int64)
        return batch.append_column("cents", pa.array(cents))

    ev = (_read(sf_dir, "events", columns=["event_type", "user_id", "value"])
          .map_batches(add_cents, batch_format="pyarrow")
          .drop_columns(["value"]))
    return cube_agg(ev, ["event_type", "user_id"], {"cents": "spend"},
                    count_col="n")


def _q_events_type_pivot(sf_dir: str):
    """Per-user event-type pivot — the count(*) FILTER wide feature
    table (one indicator pass per block, partials-only shuffle)."""
    from bloomjoin_ray.pipelines.aggregate import pivot_counts

    return pivot_counts(
        _read(sf_dir, "events", columns=["user_id", "event_type"]),
        "user_id", "event_type",
        ["click", "error", "purchase", "signup", "view"], prefix="n_")


def _q_events_rolling_spend(sf_dir: str):
    """Per-user rolling spend — each event's value (in integral cents,
    so the window sum is hash-exact vs SQL) summed over the current +
    5 preceding events in (ts, event_id) order. One packed bucketed
    exchange + two prefix sums per bucket; no sort-shuffle."""
    import numpy as np
    import pyarrow as pa

    from bloomjoin_ray.pipelines.windows import window_agg_per_key

    def add_cents(batch: pa.Table) -> pa.Table:
        cents = np.floor(
            np.asarray(batch.column("value")) * 100).astype(np.int64)
        return batch.append_column("cents", pa.array(cents))

    ev = (_read(sf_dir, "events", columns=["user_id", "event_id", "ts",
                                           "value"])
          .map_batches(add_cents, batch_format="pyarrow")
          .drop_columns(["value"]))
    return window_agg_per_key(
        ev, "user_id", [("ts", "ascending"), ("event_id", "ascending")],
        "cents", agg="sum", rows_preceding=5, out_col="cents_roll_sum")


def _q_events_context_tail(sf_dir: str):
    """Per-user budgeted tail — the context-window-truncation shape
    (`tail_by_budget`): keep each user's MOST RECENT events while the
    running strlen(props) cost fits a 300-byte budget, the
    latest event always kept. One packed bucketed exchange + one prefix
    sum per bucket; int costs, so the running sum is hash-exact vs the
    SQL window."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from bloomjoin_ray.pipelines.windows import tail_by_budget

    def add_cost(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "cost",
            pc.cast(pc.binary_length(batch.column("props")), pa.int64()))

    ev = (_read(sf_dir, "events",
                columns=["user_id", "event_id", "ts", "props"])
          .map_batches(add_cost, batch_format="pyarrow")
          .drop_columns(["props"]))
    return tail_by_budget(
        ev, "user_id", [("ts", "descending"), ("event_id", "descending")],
        "cost", 300, out_col="cum_cost")


def _q_events_ntile_per_user(sf_dir: str):
    """Per-user NTILE(4) value-quartile label — pure rank arithmetic,
    bit-exact vs SQL ntile() given the (value, event_id) total order."""
    from bloomjoin_ray.pipelines.windows import ntile_per_key

    return ntile_per_key(
        _read(sf_dir, "events", columns=["user_id", "event_id", "value"]),
        "user_id", [("value", "ascending"), ("event_id", "ascending")],
        4, out_col="value_quartile")


def _q_distinct_types_per_user(sf_dir: str):
    """EXACT per-user distinct event-type counts (the exact sibling of
    hll_event_types_by_user): per-block pair dedupe, one packed
    exchange, vectorized per-key unique-pair count."""
    from bloomjoin_ray.pipelines.aggregate import grouped_distinct_exact

    return grouped_distinct_exact(
        _read(sf_dir, "events", columns=["user_id", "event_type"]),
        "user_id", "event_type")


def _q_events_value_norm(sf_dir: str):
    """Per-user min-max feature scaling of event values — exact packed
    min/max stats joined back via hash_join, one streaming scoring
    pass; bit-exact vs the SQL window replica."""
    from bloomjoin_ray.pipelines.aggregate import normalize_per_key

    return normalize_per_key(
        _read(sf_dir, "events", columns=["user_id", "event_id", "value"]),
        "user_id", "value")


def _q_stratified_sample_docs(sf_dir: str):
    """Data-mixture rebalance: deterministic per-source subsampling
    (keep all of src0, half of src1, none of src2, 25% of the rest) via
    the content-hash Bernoulli — partition-invariant and growth-stable
    (rows-only: the hash is engine-internal; fraction accuracy,
    split_by_hash consistency and salt independence are pinned in
    tests/test_split.py)."""
    from bloomjoin_ray.pipelines.split import stratified_sample

    return stratified_sample(
        _read(sf_dir, "documents", columns=["doc_id", "source"]),
        "source", {"src0": 1.0, "src1": 0.5, "src2": 0.0}, "doc_id",
        default=0.25)


def _q_quantile_filter_docs(sf_dir: str):
    """Percentile quality gate: keep documents whose length is at or
    above the approximate corpus-wide 80th percentile (KLL threshold
    pass + exact vectorized filter pass). Rows-only: the threshold
    carries KLL rank error; kept-fraction and exactness-given-threshold
    bounds are pinned in tests/test_aggregate.py."""
    from bloomjoin_ray.pipelines.aggregate import filter_by_quantile

    kept, _thr = filter_by_quantile(
        _read(sf_dir, "documents", columns=["doc_id", "n_chars"]),
        "n_chars", 0.8, keep="ge")
    return kept


def _q_events_value_buckets(sf_dir: str):
    """Equal-frequency quantile bucketing (curriculum / stratified-mix
    labels): one KLL boundary pass + vectorized searchsorted labeling.
    Rows-only: boundaries carry rank error; exactness-given-boundaries
    and population balance pinned in tests/test_aggregate.py."""
    from bloomjoin_ray.pipelines.aggregate import bucketize_by_quantile

    labeled, _bounds = bucketize_by_quantile(
        _read(sf_dir, "events", columns=["event_id", "value"]), "value", 4)
    return labeled


def _q_doc_perplexity(sf_dir: str):
    """CCNet-style model-free quality score: hashed-bigram LM trained on
    the corpus itself (one packed-sum pass, state hard-bounded at
    2×2^18 float64), broadcast once, perplexity scored vectorized.
    Rows-only: the LM is engine-internal; separation/invariance pinned
    in tests/test_text.py::test_ngram_perplexity."""
    from bloomjoin_ray.pipelines.text import ngram_perplexity

    return ngram_perplexity(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        buckets=1 << 18).select_columns(["doc_id", "ppl"])


def _q_mixed_corpus_docs(sf_dir: str):
    """Weighted corpus mixture (30% of one snapshot + 100% of another,
    rows tagged with their corpus): content-hash Bernoulli per corpus
    with the corpus name in the draw, lazy union, no shuffle. Rows-only:
    the draw is engine-internal; fraction accuracy / independence /
    partition invariance pinned in tests/test_split.py::test_mix_corpora."""
    from bloomjoin_ray.pipelines.split import mix_corpora

    docs = lambda: _read(sf_dir, "documents",  # noqa: E731
                         columns=["doc_id", "n_chars"])
    return mix_corpora([("snap_a", docs(), 0.3), ("snap_b", docs(), 1.0)],
                       "doc_id", source_col="corpus")


def _q_quantile_filter_by_source(sf_dir: str):
    """Per-domain percentile gate: keep documents at or above their own
    SOURCE's approximate median length — per-key KLL thresholds broadcast
    once (ray.put), vectorized hash-lookup filter pass. Rows-only:
    thresholds carry rank error; per-group bounds pinned in
    tests/test_aggregate.py::test_filter_by_quantile_grouped."""
    from bloomjoin_ray.pipelines.aggregate import filter_by_quantile

    kept, _thr_tbl = filter_by_quantile(
        _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"]),
        "n_chars", 0.5, key="source", keep="ge")
    return kept


def _q_split_val_docs(sf_dir: str):
    """Deterministic 80/10/10 content-hash split; returns the val split
    (rows-only: the hash is engine-internal; disjointness/stability
    invariants are pinned in tests/test_split.py)."""
    from bloomjoin_ray.pipelines.split import split_by_hash

    splits = split_by_hash(_read(sf_dir, "documents", columns=["doc_id"]),
                           "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1})
    return splits["val"]


def _q_packed_docs(sf_dir: str):
    """Greedy context-window packing of documents into ≤256-token packs
    (rows-only: pack composition depends on partitioning by design; the
    budget/exactly-once/tightness invariants are pinned in tests)."""
    from bloomjoin_ray.pipelines.text import pack_documents

    return pack_documents(_read(sf_dir, "documents",
                                columns=["doc_id", "text"]), 256)


def _q_curated_docs(sf_dir: str):
    """Training-data curation composition: quality stats → threshold
    filter → exact dedup (keep min doc_id per text), all streaming.
    SQL-expressible end to end, so the whole chain is oracle-checked."""
    from bloomjoin_ray.pipelines.dedup import exact_dedup
    from bloomjoin_ray.pipelines.text import text_stats

    stats = text_stats(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.greater_equal(t["n_tokens"], 20),
                                pc.less_equal(t["punct_ratio"], 0.05)))

    filtered = stats.map_batches(keep, batch_format="pyarrow")
    out = exact_dedup(filtered, "text", "doc_id")
    return out.select_columns(["doc_id", "n_tokens", "punct_ratio"])


def _q_lang_id(sf_dir: str):
    from bloomjoin_ray.pipelines.text import language_id

    out = language_id(_read(sf_dir, "documents", columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "lang_pred"])


def _q_fingerprints(sf_dir: str):
    from bloomjoin_ray.pipelines.text import fingerprints

    out = fingerprints(_read(sf_dir, "documents", columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "fingerprint"])


def _q_ann_topk(sf_dir: str):
    """Exact cosine top-10 membership per query — oracle-checked against
    DuckDB ``list_cosine_similarity`` (the engine accumulates each score
    in float64 and rounds it to float32; those scores are pinned against
    a numpy oracle in tests/test_ann.py, but a float32 score can't
    hash-match a float64 SQL engine bit-for-bit, so only the ids are
    compared)."""
    from bloomjoin_ray.pipelines.ann import ann_topk
    import pyarrow.parquet as pq

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 5)
    Q = np.array(head.column("embedding").to_pylist(), dtype=np.float32)
    return ann_topk(_read(sf_dir, "embeddings"), Q, k=10).select(
        ["query_id", "vec_id"])


def _q_ann_topk_lsh(sf_dir: str):
    """LSH-bucketed ANN (approximate: recall < 1 by design; recall bounds
    pinned in tests/test_ann.py)."""
    from bloomjoin_ray.pipelines.ann import lsh_ann_topk
    import pyarrow.parquet as pq

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 5)
    Q = np.array(head.column("embedding").to_pylist(), dtype=np.float32)
    return lsh_ann_topk(_read(sf_dir, "embeddings"), Q, k=10, n_bits=4)


def _q_ann_topk_pq(sf_dir: str):
    """Product-quantized ANN (Jégou et al. 2011): train an m=16 PQ
    codebook, compress the corpus 16× to 16-byte codes, ADC top-10 via
    byte-indexed LUT sums — the path where one float32 pass over the
    embeddings is already the bottleneck. Approximate (rows-only);
    recall-vs-bruteforce and ADC score error pinned in tests/test_pq.py."""
    import pyarrow.parquet as pq

    from bloomjoin_ray.pipelines.ann import pq_ann_topk, pq_encode, pq_fit

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 5)
    Q = np.array(head.column("embedding").to_pylist(), dtype=np.float32)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    model = pq_fit(emb, m=16, sample_rows=2048)
    return pq_ann_topk(pq_encode(emb, model), Q, model, k=10)


def _q_ann_topk_ivfpq(sf_dir: str):
    """IVF-PQ ANN: coarse cells route each query to its 3 best of 8
    cells, PQ codes (16×-compressed) ADC-score only probed rows —
    compute ∝ probed fraction at m bytes per vector, the
    billion-scale serving shape. Approximate (rows-only);
    full-probe==PQ equality, recall monotonicity in n_probe, and the
    prune's strictness pinned in tests/test_pq.py."""
    import pyarrow.parquet as pq

    from bloomjoin_ray.pipelines.ann import (ivfpq_ann_topk, ivfpq_encode,
                                             kmeans_fit, pq_fit)

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 5)
    Q = np.array(head.column("embedding").to_pylist(), dtype=np.float32)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    model = pq_fit(emb, m=16, sample_rows=2048)
    cents = kmeans_fit(emb, n_clusters=8, sample_rows=2048)
    codes = ivfpq_encode(emb, model, cents)
    return ivfpq_ann_topk(codes, Q, model, cents, k=10, n_probe=3)


def _q_ann_topk_ivf(sf_dir: str):
    """IVF-cell ANN (approximate; deterministic seeded k-means cells)."""
    from bloomjoin_ray.pipelines.ann import ivf_ann_topk
    import pyarrow.parquet as pq

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 5)
    Q = np.array(head.column("embedding").to_pylist(), dtype=np.float32)
    return ivf_ann_topk(_read(sf_dir, "embeddings"), Q, k=10,
                        n_centroids=8, n_probe=3)


def _q_knn_join(sf_dir: str):
    """Dataset x Dataset ANN join (query side is a Dataset, not a
    broadcast matrix) — single-probe LSH co-bucketing; equality with
    lsh_ann_topk under the same planes is pinned in tests/test_ann.py."""
    from bloomjoin_ray.pipelines.ann import knn_join

    emb = _read(sf_dir, "embeddings")
    corpus = emb.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 450)),
        batch_format="pyarrow")
    queries = emb.map_batches(
        lambda t: pa.table({"query_id": t.filter(
            pc.greater_equal(t["vec_id"], 450))["vec_id"],
            "embedding": t.filter(
                pc.greater_equal(t["vec_id"], 450))["embedding"]}),
        batch_format="pyarrow")
    return knn_join(corpus, queries, k=5, n_bits=3)


def _q_hashvec_ann_docs(sf_dir: str):
    """Model-free text similarity search: feature-hash every document
    into a 128-dim vector (hashing trick), then cosine top-5 of the
    first 3 docs' vectors against the whole hashed corpus — the
    text → embedding → ANN bridge with zero external models. Rows-only:
    float32 scores; kernel invariants pinned in
    tests/test_text.py::test_hashed_doc_vectors."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from bloomjoin_ray.pipelines.ann import ann_topk
    from bloomjoin_ray.pipelines.text import hashed_doc_vectors

    vecs = hashed_doc_vectors(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        dim=128).select_columns(["doc_id", "embedding"])
    head = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).slice(0, 3)
    qt = hashed_doc_vectors(rd.from_arrow(head), dim=128).take_batch(
        3, batch_format="pyarrow")
    Q = np.array(qt.column("embedding").to_pylist(), dtype=np.float32)
    return ann_topk(vecs, Q, k=5, id_col="doc_id").select(
        ["query_id", "doc_id"])


def _q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (class prototypes / IVF seeding):
    one partial sum-vector row per (block, label) via lexsort+reduceat,
    packed exchange, bucket-union-invariant reduce. Rows-only: float64
    merge order perturbs last bits; numpy parity pinned in
    tests/test_aggregate.py::test_grouped_vector_mean."""
    from bloomjoin_ray.pipelines.aggregate import grouped_vector_mean

    return grouped_vector_mean(
        _read(sf_dir, "embeddings", columns=["label", "embedding"]),
        "embedding", "label")


def _q_embedding_dedup(sf_dir: str):
    from bloomjoin_ray.pipelines.ann import embedding_dedup_pairs

    return embedding_dedup_pairs(_read(sf_dir, "embeddings"), threshold=0.45,
                                 n_bits=3)


def _q_semdedup_embeddings(sf_dir: str):
    """SemDeDup survivors over the embeddings table: k-means clusters
    (deterministic content-hash sample) + within-cluster cosine pairs +
    connected-component keep-one. Approximate by construction (cluster
    boundaries gate which pairs are compared) — exhaustive-equivalence
    and planted-group oracles are pinned in tests/test_ann.py and
    tests/test_dedup.py."""
    from bloomjoin_ray.pipelines.dedup import semdedup

    return semdedup(_read(sf_dir, "embeddings"), threshold=0.45,
                    n_clusters=8, sample_rows=512).select_columns(
        ["vec_id", "label"])


def _transcript_convs_for(sf_dir: str) -> int:
    scale = {"sf0.001": 200, "sf0.01": 2000, "sf0.1": 20000}
    return scale.get(os.path.basename(os.path.normpath(sf_dir)), 2000)


def _q_transcript_sketches(sf_dir: str):
    """Flagship transcript suite on deterministic synthetic transcripts
    (the input_hint table): per-conv distinct turns (HLL, salted), tool
    heavy hitters (CMS), text-length quantiles (t-digest)."""
    from bloomjoin_ray.functions.keys import hash_keys64
    from bloomjoin_ray.pipelines.aggregate import (
        approx_quantiles,
        cms_heavy_hitters,
        hll_distinct,
    )
    from bloomjoin_ray.sources.transcripts import transcripts_dataset

    n_convs = _transcript_convs_for(sf_dir)
    ds = transcripts_dataset(n_convs, parallelism=16)

    def with_len(t: pa.Table) -> pa.Table:
        return t.append_column("text_len", pc.utf8_length(t["text"]).cast(pa.float64()))

    with_cols = ds.map_batches(with_len, batch_format="pyarrow")
    per_conv = hll_distinct(ds, "turn_idx", key="conv_id", salt=4)
    n_convs_seen = per_conv.count()
    with_tool = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["tool"])), batch_format="pyarrow")
    tools = cms_heavy_hitters(with_tool, "tool", topk=5)
    qs = approx_quantiles(with_cols, "text_len", [0.5, 0.95], method="tdigest")
    return pa.table({
        "n_convs": pa.array([n_convs_seen], type=pa.int64()),
        "top_tool": pa.array([tools.column("tool")[0].as_py()]),
        "top_tool_est": pa.array([tools.column("est_count")[0].as_py()], type=pa.int64()),
        "text_len_p50": pa.array([float(qs[0])]),
        "text_len_p95": pa.array([float(qs[1])]),
    })


def _q_asof_last_purchase(sf_dir: str):
    """As-of join: attach each event's user's most recent purchase value
    (DuckDB ASOF JOIN oracle). Right side deduped on (user_id, ts) so the
    tie-break is well-defined on both engines."""
    from bloomjoin_ray.pipelines.aggregate import grouped_assoc_agg
    from bloomjoin_ray.pipelines.asof import asof_join

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    purchases = grouped_assoc_agg(
        _read(sf_dir, "events",
              columns=["user_id", "ts", "event_type", "value"])
        .map_batches(lambda t: t.filter(
            pc.equal(t["event_type"], "purchase")).drop_columns(["event_type"]),
            batch_format="pyarrow"),
        ["user_id", "ts"], {"value": ("max", "last_purchase_value")})
    return asof_join(ev, purchases, on="ts", by="user_id")


def _q_mg_top_event_types(sf_dir: str):
    """Misra-Gries heavy hitters (deterministic lower-bound counts; exact
    here because 8 distinct types never overflow k=64)."""
    from bloomjoin_ray.pipelines.aggregate import mg_heavy_hitters

    return mg_heavy_hitters(_read(sf_dir, "events", columns=["event_type"]),
                            "event_type", topk=5, k=64)


def _q_theta_custkey_overlap(sf_dir: str):
    """Theta-sketch set algebra: distinct custkey overlap between orders
    and customer from two independent single-pass sketches (1,500
    distincts < k=4096 → sketches below capacity → estimates EXACT, so
    a SQL oracle applies)."""
    from bloomjoin_ray.pipelines.aggregate import theta_set_estimates

    rename = lambda name: (lambda t: t.rename_columns([name]))  # noqa: E731
    ests = theta_set_estimates(
        _read(sf_dir, "orders", columns=["o_custkey"]).map_batches(
            rename("key"), batch_format="pyarrow"),
        _read(sf_dir, "customer", columns=["c_custkey"]).map_batches(
            rename("key"), batch_format="pyarrow"),
        "key")
    return pa.table({
        "distinct_orders": pa.array([int(ests["distinct_a"])], type=pa.int64()),
        "distinct_customers": pa.array([int(ests["distinct_b"])], type=pa.int64()),
        "n_union": pa.array([int(ests["union"])], type=pa.int64()),
        "n_intersection": pa.array([int(ests["intersection"])], type=pa.int64()),
    })


def _q_theta_overlap_by_type(sf_dir: str):
    """PER-KEY theta set algebra (grouped counterpart of
    theta_custkey_overlap): per event_type, distinct-user overlap
    between the first and second half of January, from two
    independently sketched datasets. 150 distinct users per type < k →
    both sketches below capacity → estimates EXACT → SQL oracle
    applies."""
    import pyarrow.compute as pc

    from bloomjoin_ray.pipelines.aggregate import theta_set_estimates_grouped

    ev = _read(sf_dir, "events", columns=["event_type", "user_id", "ts"])
    cut = pa.scalar(np.datetime64("2024-01-16", "us"))
    early = ev.map_batches(lambda t: t.filter(pc.less(t["ts"], cut)),
                           batch_format="pyarrow")
    late = ev.map_batches(lambda t: t.filter(pc.greater_equal(t["ts"], cut)),
                          batch_format="pyarrow")
    return theta_set_estimates_grouped(early, late, "user_id", "event_type")


def _q_reservoir_by_type(sf_dir: str):
    """Per-event-type deterministic 20-row uniform sample (grouped
    bottom-k reservoir; rows-only check — partitioning invariance and
    per-key uniformity are pinned in tests)."""
    from bloomjoin_ray.pipelines.aggregate import reservoir_sample

    return reservoir_sample(_read(sf_dir, "events"), 20, "event_id",
                            key="event_type")


def _q_topk_types_per_user(sf_dir: str):
    """Top-2 event types per user with ranks (exact grouped top-k)."""
    from bloomjoin_ray.pipelines.aggregate import topk_per_key

    return topk_per_key(_read(sf_dir, "events", columns=["user_id", "event_type"]),
                        "user_id", "event_type", 2)


def _q_reservoir_sample(sf_dir: str):
    """Deterministic 100-row uniform sample of events (bottom-k priority
    sampling — same sample under any partitioning; rows-only check, the
    uniformity/invariance properties are pinned in tests)."""
    from bloomjoin_ray.pipelines.aggregate import reservoir_sample

    return reservoir_sample(_read(sf_dir, "events"), 100, "event_id")


def _q_events_ewma(sf_dir: str):
    """Per-user exponentially-decayed spend (EWMA, alpha=0.3) over the
    event stream — segmented affine scan; rows-only (no SQL window
    equivalent; pandas parity pinned in tests)."""
    from bloomjoin_ray.pipelines.windows import ewma_per_key

    ev = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "value"])
    return ewma_per_key(ev, "user_id", ["ts", "event_id"], "value",
                        alpha=0.3)


def _q_events_pct_rank(sf_dir: str):
    """Annotate every event with its approximate corpus-wide value
    percentile (broadcast KLL, one searchsorted per batch; rows-only —
    the rank-error bound is pinned in tests)."""
    from bloomjoin_ray.pipelines.aggregate import approx_percentile_rank

    ev = _read(sf_dir, "events", columns=["event_id", "value"])
    return approx_percentile_rank(ev, "value", concurrency=2)


def _q_user_type_entropy(sf_dir: str):
    """Per-user Shannon entropy (bits) of the event-type mix — the
    behavioral-diversity signal; rows-only (float log sums; numpy
    parity pinned in tests)."""
    from bloomjoin_ray.pipelines.aggregate import entropy_per_key

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return entropy_per_key(ev, "user_id", "event_type")


def _q_user_overlap_exact(sf_dir: str):
    """Per-event-type EXACT user-set overlap between low-value and
    high-value events (n_a/n_b/∩/∪/Jaccard) — the exact counterpart of
    the grouped theta row; distinct triples dedupe per block before the
    packed exchange."""
    from bloomjoin_ray.pipelines.aggregate import grouped_jaccard_exact

    def band(lo: bool):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            m = (pc.less(t.column("value"), 100.0) if lo
                 else pc.greater_equal(t.column("value"), 100.0))
            return t.filter(pc.fill_null(m, False))
        return fn

    ev = _read(sf_dir, "events",
               columns=["event_type", "user_id", "value"])
    a = ev.map_batches(band(True), batch_format="pyarrow")
    b = ev.map_batches(band(False), batch_format="pyarrow")
    return grouped_jaccard_exact(a, b, "event_type", "user_id")


def _q_dedup_canonical_docs(sf_dir: str):
    """Composite: canonical text form (NFC+lower+ws collapse) feeding
    exact dedup — trivially-reformatted copies collide; keeps the min
    doc_id per canonical form."""
    from bloomjoin_ray.pipelines.dedup import exact_dedup
    from bloomjoin_ray.pipelines.text import canonicalize_text

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    canon = canonicalize_text(docs, "text", out_col="text_canon")
    return exact_dedup(canon, text_col="text_canon", order_col="doc_id")


def _q_events_value_share(sf_dir: str):
    """Each event's share of its user's total spend — SQL value /
    sum(value) OVER (PARTITION BY user_id). Values go through integral
    cents so both sides divide the same exact int64 operands."""
    from bloomjoin_ray.pipelines.windows import share_per_key

    def to_cents(t: pa.Table) -> pa.Table:
        c = np.round(np.asarray(t.column("value"),
                                dtype=np.float64) * 100).astype(np.int64)
        return (t.append_column("cents", pa.array(c))
                .drop_columns(["value"]))

    ev = _read(sf_dir, "events",
               columns=["user_id", "event_id", "value"]).map_batches(
        to_cents, batch_format="pyarrow")
    return share_per_key(ev, "user_id", "cents")


def _q_events_time_parts(sf_dir: str):
    """Calendar-field extraction (SQL date_part family incl. ISO
    dow/week) — one Arrow temporal kernel per part, no shuffle."""
    from bloomjoin_ray.pipelines.text import add_time_parts

    ev = _read(sf_dir, "events", columns=["event_id", "ts"])
    return add_time_parts(ev, "ts", ["year", "month", "day", "hour",
                                     "day_of_week", "iso_week"])


def _q_session_overlap(sf_dir: str):
    """Interval-overlap join: each user's coarse (1h-gap) sessions
    paired with every fine (10min-gap) session they intersect — the
    general-mode candidate-window sweep (one packed exchange; each row
    moves once — ~2.4× the two-zipper decomposition at this shape)."""
    from bloomjoin_ray.pipelines.range_join import interval_join
    from bloomjoin_ray.pipelines.windows import sessionize

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])
    coarse = sessionize(ev, "user_id", "ts", 3600)
    fine = sessionize(ev, "user_id", "ts", 600, session_col="f_start",
                      end_col="f_end", count_col="f_n")
    return interval_join(coarse, fine, ("session_start", "session_end"),
                         ("f_start", "f_end"), by="user_id")


def _q_interval_overlap_general(sf_dir: str):
    """General-mode interval-overlap join (arbitrary overlapping/nested
    spans — no disjointness envelope): each user's click events widened
    to 1-day spans overlap-joined against view-event spans via the
    candidate-window sweep (one packed exchange, max-length-pruned
    windows, chunked emission), then per-user pair counts + id extrema."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from bloomjoin_ray.pipelines.aggregate import grouped_assoc_agg
    from bloomjoin_ray.pipelines.range_join import interval_join

    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])

    def spans(et: str, idc: str):
        def fn(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b.column("event_type"), et))
            s = b.column("ts").cast(pa.int64())
            e = pc.add(s, pa.scalar(86_400_000_000, pa.int64()))  # +1d in us
            return pa.table({idc: b.column("event_id"),
                             "user_id": b.column("user_id"),
                             "s": s, "e": e})
        return fn

    clicks = ev.map_batches(spans("click", "l_id"), batch_format="pyarrow")
    views = ev.map_batches(spans("view", "r_id"), batch_format="pyarrow")
    j = interval_join(clicks, views, ("s", "e"), ("s", "e"),
                      by="user_id", mode="general")

    def dup_ids(b: pa.Table) -> pa.Table:
        return b.append_column("l_id2", b.column("l_id")).append_column(
            "r_id2", b.column("r_id"))

    return grouped_assoc_agg(
        j.map_batches(dup_ids, batch_format="pyarrow"), ["user_id"],
        aggs={"l_id": ("min", "l_min"), "l_id2": ("max", "l_max"),
              "r_id": ("min", "r_min"), "r_id2": ("max", "r_max")},
        count_col="n_pairs")


def _q_key_skew_users(sf_dir: str):
    """One-row exact key-distribution profile of events.user_id — the
    pre-salting diagnostic (packed count exchange → single-task sorted
    reduce over one int64 per key; quantile_disc / IEEE-order parity
    with the oracle)."""
    from bloomjoin_ray.pipelines.profile import key_skew_summary

    ev = _read(sf_dir, "events", columns=["user_id"])
    return key_skew_summary(ev, "user_id")


def _q_heavy_user_keys(sf_dir: str):
    """Exact top-12 hottest user_id keys by event count (count desc,
    key asc) — the keys a salted exchange would spread."""
    from bloomjoin_ray.pipelines.profile import heavy_keys

    ev = _read(sf_dir, "events", columns=["user_id"])
    return heavy_keys(ev, "user_id", k=12)


def _q_bucketed_join_roundtrip(sf_dir: str):
    """Bucket-aligned storage roundtrip: orders + customer written
    hash-bucketed by custkey once (the only exchange), then joined with
    ZERO shuffle — one task per bucket pair — and aggregated per
    nation. The repeated-join contract: re-joining these layouts never
    pays the exchange again."""
    import os

    import pyarrow as pa

    from bloomjoin_ray.pipelines.aggregate import grouped_assoc_agg
    from bloomjoin_ray.pipelines.bucketed import bucketed_join, write_bucketed

    root = os.path.join("/tmp", "graft_bucketed",
                        os.path.basename(os.path.normpath(sf_dir)))
    do, dc = os.path.join(root, "orders"), os.path.join(root, "customer")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def to_key(b: pa.Table) -> pa.Table:
        return b.rename_columns(["o_custkey", "c_nationkey"])

    write_bucketed(orders, do, "o_custkey", num_buckets=32,
                   overwrite=True)
    write_bucketed(cust.map_batches(to_key, batch_format="pyarrow"),
                   dc, "o_custkey", num_buckets=32, overwrite=True)
    j = bucketed_join(do, dc, how="inner")

    def dup(b: pa.Table) -> pa.Table:
        return b.append_column("o_orderkey2", b.column("o_orderkey"))

    return grouped_assoc_agg(
        j.map_batches(dup, batch_format="pyarrow"), ["c_nationkey"],
        aggs={"o_orderkey": ("min", "min_ok"),
              "o_orderkey2": ("max", "max_ok")},
        count_col="n")


def _q_join_size_estimate(sf_dir: str):
    """CMS inner-product estimate of |lineitem ⋈ orders| — the
    sketch-native join-cardinality planner input. Approximate (no
    oracle row): the published never-undercount / ε·N_L·N_R bound is
    pinned in tests/test_join_size.py against the exact DuckDB count."""
    import pandas as pd

    from bloomjoin_ray.pipelines.aggregate import estimate_join_size

    li = _read(sf_dir, "lineitem", columns=["l_orderkey"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    r = estimate_join_size(li, orders, {"l_orderkey": "o_orderkey"},
                           width=32768)
    return pd.DataFrame([r])


def _q_events_selfjoin_f2(sf_dir: str):
    """AMS (tug-of-war) F2 — the user_id stream's self-join size and
    skew statistic, the planner input before choosing a salting
    strategy. One streaming pass, no shuffle; linear sketch, so the
    estimate is partition-invariant. Approximate (no oracle row): the
    |est − F2| ≤ ε·F2 bound is pinned in tests/test_sketches.py against
    the exact DuckDB sum(c²)."""
    import pandas as pd

    from bloomjoin_ray.pipelines.aggregate import ams_f2

    ev = _read(sf_dir, "events", columns=["user_id"])
    return pd.DataFrame([ams_f2(ev, "user_id", depth=7, width=8192)])


def _q_bucketed_group_stats(sf_dir: str):
    """Zero-shuffle grouped reduce over a bucket-aligned layout:
    orders written hash-bucketed by custkey once, then per-key
    count/min/max computed one task per bucket with NO exchange —
    the grouped sibling of bucketed_join over the same layout."""
    import os

    import pyarrow as pa

    from bloomjoin_ray.pipelines.bucketed import (bucketed_map_groups,
                                                  write_bucketed)

    root = os.path.join("/tmp", "graft_bucketed_stats",
                        os.path.basename(os.path.normpath(sf_dir)))
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    write_bucketed(orders, root, "o_custkey", num_buckets=32,
                   overwrite=True)

    def per_key(g: pa.Table) -> pa.Table:
        tp = g.column("o_totalprice")
        return pa.table({
            "o_custkey": g.column("o_custkey").slice(0, 1),
            "n": pa.array([g.num_rows], pa.int64()),
            "min_tp": pa.array([pc.min(tp).as_py()], tp.type),
            "max_tp": pa.array([pc.max(tp).as_py()], tp.type)})

    return bucketed_map_groups(root, per_key)


def _q_cogroup_order_lines(sf_dir: str):
    """cogroup (the general two-dataset per-key transform): orders and
    lineitem co-located per orderkey in ONE packed exchange, per-key
    full-outer counts + max extended price — the aggregate-comparison
    shape a plain join can't express row-aligned."""
    from bloomjoin_ray.pipelines.cogroup import cogroup

    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice"])

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(["o_orderkey", "l_extendedprice"])

    def per_key(ta: pa.Table, tb: pa.Table) -> pa.Table:
        keys = ta.column("o_orderkey") if ta.num_rows else \
            tb.column("o_orderkey")
        ep = tb.column("l_extendedprice")
        return pa.table({
            "o_orderkey": keys.slice(0, 1),
            "n_orders": pa.array([ta.num_rows], pa.int64()),
            "n_lines": pa.array([tb.num_rows], pa.int64()),
            "max_ep": pa.array(
                [pc.max(ep).as_py() if tb.num_rows else None],
                pa.float64())})

    return cogroup(orders,
                   li.map_batches(rename, batch_format="pyarrow"),
                   "o_orderkey", per_key)


def _q_dataset_diff_orders(sf_dir: str):
    """dataset_diff (per-key reconciliation): orders vs a filtered
    rerun of itself — the dropped keys surface as only_a with exact
    counts; agreeing keys are suppressed (the diff is the small
    output). One packed exchange; fingerprints vectorized."""
    from bloomjoin_ray.pipelines.cogroup import dataset_diff

    a = _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_totalprice"])
    b = _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_totalprice",
                       "o_orderstatus"])

    def keep_f(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("o_orderstatus"), "F")
        return t.filter(m).drop_columns(["o_orderstatus"])

    return dataset_diff(a, b.map_batches(keep_f, batch_format="pyarrow"),
                        "o_orderkey")


def _q_docs_tokens_split(sf_dir: str):
    """Tokenize documents into one row per whitespace-separated token
    with its ordinal (regex split + UNNEST, one vectorized pass)."""
    from bloomjoin_ray.pipelines.reshape import split_to_rows

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return split_to_rows(docs, "text", r"\s+", out_col="token",
                         pos_col="ord", drop_empty=True)


def _q_events_fill_forward(sf_dir: str):
    """LOCF gap repair: knock out every 7th event's value
    deterministically, then forward-fill per user in time order —
    SQL last_value(IGNORE NULLS) running-window parity."""
    from bloomjoin_ray.pipelines.windows import fill_forward_per_key

    def punch_holes(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = (np.asarray(t.column("event_id"), dtype=np.int64) % 7) != 0
        v = pc.if_else(pa.array(keep), t.column("value"),
                       pa.scalar(None, pa.float64()))
        return t.set_column(t.schema.get_field_index("value"), "value", v)

    ev = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "value"]).map_batches(
        punch_holes, batch_format="pyarrow")
    return fill_forward_per_key(ev, "user_id", ["ts", "event_id"],
                                ["value"])


def _q_events_checksum(sf_dir: str):
    """Order/partition-invariant content fingerprint of the events
    table (rows-only: the hash is engine-defined; invariance and
    sensitivity are pinned in tests)."""
    from bloomjoin_ray.pipelines.aggregate import dataset_checksum

    c = dataset_checksum(_read(sf_dir, "events"))
    return pa.table({"n": pa.array([c["n"]], pa.int64()),
                     "xor_lo": pa.array([f"{c['xor_lo']:016x}"]),
                     "sum_lo": pa.array([f"{c['sum_lo']:016x}"]),
                     "xor_hi": pa.array([f"{c['xor_hi']:016x}"])})


def _q_region_nation_cross(sf_dir: str):
    """CROSS JOIN region × nation — broadcast-nested-loop product
    (right side gathered once, one ray.put; left streams)."""
    from bloomjoin_ray.pipelines.join import cross_join

    region = _read(sf_dir, "region", columns=["r_regionkey", "r_name"])
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    return cross_join(region, nation)


def _q_weighted_sample_docs(sf_dir: str):
    """Length-weighted 100-doc sample (Efraimidis–Spirakis A-ES:
    inclusion probability scales with n_chars; rows-only check —
    partition invariance / weight dominance / merge law are pinned in
    tests)."""
    from bloomjoin_ray.pipelines.aggregate import reservoir_sample

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return reservoir_sample(docs, 100, "doc_id", weight_col="n_chars")


def _q_sessionize(sf_dir: str):
    """Gap-based session windows per user over the events stream
    (24h inactivity gap); oracle = SQL gaps-and-islands."""
    from bloomjoin_ray.pipelines.windows import sessionize

    return sessionize(_read(sf_dir, "events", columns=["user_id", "ts"]),
                      "user_id", "ts", gap_s=86_400)


def _q_events_tumbling(sf_dir: str):
    """Tumbling 6-hour COUNT windows (per-block pre-aggregation; shuffle
    carries partials only)."""
    from bloomjoin_ray.pipelines.windows import tumbling_window

    return tumbling_window(_read(sf_dir, "events", columns=["ts"]),
                           "ts", 21_600)


def _q_events_sliding(sf_dir: str):
    """Sliding COUNT windows, 12h size / 6h slide: each row explodes into
    the 2 windows containing it, then the tumbling machinery aggregates."""
    from bloomjoin_ray.pipelines.windows import sliding_window

    return sliding_window(_read(sf_dir, "events", columns=["ts"]),
                          "ts", 43_200, 21_600)


def _q_session_assign(sf_dir: str):
    """Range join: assign every event to its session window (sessionize →
    interval-containment join on [session_start, session_end] per user).
    Oracle = the same gaps-and-islands construction in SQL window
    functions, joined back to events."""
    from bloomjoin_ray.pipelines.range_join import range_join
    from bloomjoin_ray.pipelines.windows import sessionize

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    sess = sessionize(_read(sf_dir, "events", columns=["user_id", "ts"]),
                      "user_id", "ts", gap_s=86_400)
    sess = sess.select_columns(["user_id", "session_start", "session_end"])
    return range_join(ev, sess, on="ts", start="session_start",
                      end="session_end", by="user_id")


def _q_partitioned_write_roundtrip(sf_dir: str):
    """Hive-partitioned sink end-to-end: write events partitioned by
    event_type (one col=value/ dir each), then read back ONE partition
    from its path alone — the partition-pruning read is oracle-checked
    against WHERE event_type = 'purchase'."""
    import tempfile

    import ray.data as rd

    from bloomjoin_ray.pipelines.materialize import write_partitioned_by

    out = tempfile.mkdtemp(prefix="bjr_hive_rt_")
    ev = _read(sf_dir, "events",
               columns=["event_type", "event_id", "user_id", "value"])
    write_partitioned_by(ev, out, "event_type", overwrite=True)
    part = rd.read_parquet(f"{out}/event_type=purchase")
    # hive dirs drop the partition column from the files; restore it

    def add_back(t: pa.Table) -> pa.Table:
        if "event_type" in t.column_names:
            return t.select(["event_id", "user_id", "value", "event_type"])
        et = pa.array(["purchase"] * t.num_rows, pa.string())
        return (t.select(["event_id", "user_id", "value"])
                .append_column("event_type", et))

    return part.map_batches(add_back, batch_format="pyarrow")


def _q_events_range_pruned_read(sf_dir: str):
    """Range-clustered sink end-to-end: write events into 16
    value-quantile hive partitions (one KLL pass for the split points,
    committed in _RANGE_SPEC.json), then a PRUNED range read of
    value ∈ [200, 400] — partitions are selected from the spec alone
    before any file I/O, with the exact row filter inside. The scan
    layout hash bucketing can't give: a 20 % value slice reads ~20 % of
    the files. Oracle-checked against the plain SQL WHERE."""
    import tempfile

    from bloomjoin_ray.pipelines.materialize import (read_range,
                                                     write_range_clustered)

    out = tempfile.mkdtemp(prefix="bjr_range_rt_")
    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])
    write_range_clustered(ev, out, "value", num_partitions=16,
                          overwrite=True)
    ds, stats = read_range(out, 200.0, 400.0)
    assert stats["partitions_read"] < stats["partitions_total"], stats
    return ds


def _q_write_roundtrip(sf_dir: str):
    """Streaming sink path end-to-end: read → filter/derive →
    ``resumable_write`` partitioned Parquet (atomic per-partition commit
    + manifest) → re-read the written partitions. Oracle-checked, so the
    sink round trip is value-exact."""
    import glob
    import tempfile

    from bloomjoin_ray.pipelines.materialize import resumable_write

    src = f"{sf_dir}/events.parquet"
    out_dir = tempfile.mkdtemp(prefix="bjr_write_rt_")

    def transform(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.equal(t["event_type"], "purchase"))
        sub = sub.select(["event_id", "user_id", "value"])
        return sub.append_column("value_double",
                                 pc.multiply(sub["value"], pa.scalar(2.0)))

    resumable_write([src], out_dir, transform=transform,
                    columns=["event_id", "user_id", "event_type", "value"])
    files = sorted(glob.glob(os.path.join(out_dir, "part-*", "*.parquet")))
    return _rd().read_parquet(files)


def _gen_media_batch(b: pa.Table) -> pa.Table:
    """doc_id → deterministic real PNG + PCM-WAV + PPM-stream payloads
    (pure-stdlib codecs; the container ships no media libraries, so the
    media table is synthesized from the documents table's ids)."""
    import io
    import wave

    from bloomjoin_ray.functions import codecs

    ids = np.asarray(b.column("doc_id"))
    imgs, wavs, vids = [], [], []
    for i in ids:
        i = int(i)
        rng = np.random.default_rng(i + 7)
        arr = rng.integers(0, 256, size=(8 + i % 9, 10 + i % 7, 3),
                           dtype=np.uint8)
        imgs.append(codecs.encode_png(arr))
        rate = 8000
        tt = np.arange(rate // 10) / rate                 # 100 ms
        x = (0.4 * np.sin(2 * np.pi * (200.0 + 20.0 * (i % 10)) * tt)
             * 32767).astype("<i2")
        buf = io.BytesIO()
        with wave.open(buf, "wb") as wv:
            wv.setnchannels(1)
            wv.setsampwidth(2)
            wv.setframerate(rate)
            wv.writeframes(x.tobytes())
        wavs.append(buf.getvalue())
        frames = [rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
                  for _ in range(5)]
        vids.append(b"".join(codecs.encode_ppm(f) for f in frames))
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "img": pa.array(imgs, type=pa.large_binary()),
        "wav": pa.array(wavs, type=pa.large_binary()),
        "vid": pa.array(vids, type=pa.large_binary()),
    })


def _q_multimodal_features(sf_dir: str):
    """Image-decode + audio-feature + video-frame-sample actor stages
    end to end over real (pure-codec) media payloads — rows-only driver
    check; decoded-pixel/feature determinism is pinned in
    tests/test_multimodal.py."""
    from bloomjoin_ray.stages.multimodal import (AudioFeatureStage,
                                                 ImageDecodeStage,
                                                 VideoFrameSampleStage)

    def head_ids(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b.column("doc_id"), 48))

    def _consume(drop: str, new_name: str):
        def fn(b: pa.Table) -> pa.Table:
            b = b.drop_columns([drop])
            names = [new_name if c == "decoder" else c for c in b.column_names]
            return b.rename_columns(names)
        return fn

    after_img = _consume("img", "img_decoder")
    after_wav = _consume("wav", "wav_decoder")
    after_vid = _consume("vid", "vid_decoder")

    media = (_read(sf_dir, "documents", columns=["doc_id"])
             .map_batches(head_ids, batch_format="pyarrow")
             .map_batches(_gen_media_batch, batch_format="pyarrow"))
    return (media
            .map_batches(ImageDecodeStage(data_col="img"),
                         batch_format="pyarrow")
            .map_batches(after_img, batch_format="pyarrow")
            .map_batches(AudioFeatureStage(8, data_col="wav"),
                         batch_format="pyarrow")
            .map_batches(after_wav, batch_format="pyarrow")
            .map_batches(VideoFrameSampleStage(3, data_col="vid"),
                         batch_format="pyarrow")
            .map_batches(after_vid, batch_format="pyarrow"))


def _q_bloom_params(sf_dir: str):
    """bloom_params report grid — pure sizing, exercised as a query so the
    helper surface is driver-visible (reference R/params.R)."""
    from bloomjoin_ray.params import bloom_params

    rows = []
    for n in (10_000, 100_000, 1_000_000):
        for p in (1e-1, 1e-2, 1e-4):
            bp = bloom_params(n, p)
            rows.append({"n": float(n), "p_target": p, "m_bits": bp.m_bits,
                         "k": bp.k, "fpr_est": bp.fpr_est})
    return pa.Table.from_pylist(rows)


# --------------------------------------------------------------------------
# driver contract
# --------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline at sf0.001: Bloom-prefiltered orders ⋈ customer."""
    return _q_join_inner("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    # Order matters: the driver's correctness artifact covers exactly the
    # FIRST 50 entries, so those 50 are all oracle-backed (oracle_sql()
    # entries), rotated each round so every exact query gets driver
    # evidence. Approximate / heuristic queries (bounds pinned in tests/)
    # sit at the tail.
    return {
        # oracle-backed, first driver-verified round 5
        "user_type_sequences": _q_user_type_sequences,
        "tpch_q3_top_orders": _q_tpch_q3_top_orders,
        "props_k_by_type": _q_props_k_by_type,
        "events_rank_family": _q_events_rank_family,
        "events_first_last": _q_events_first_last,
        "value_histogram": _q_value_histogram,
        "docs_source_extract": _q_docs_source_extract,
        "docs_cap_per_source": _q_docs_cap_per_source,
        "mode_type_per_user": _q_mode_type_per_user,
        "docs_canonical": _q_docs_canonical,
        "events_describe": _q_events_describe,
        "events_type_pivot": _q_events_type_pivot,
        "events_rollup": _q_events_rollup,
        "events_cube": _q_events_cube,
        "lineitem_moments": _q_lineitem_moments,
        "embedding_unnest": _q_embedding_unnest,
        "lineitem_unpivot": _q_lineitem_unpivot,
        "custkey_union": _q_custkey_union,
        "custkey_intersect": _q_custkey_intersect,
        "orderkey_except": _q_orderkey_except,
        "events_value_norm": _q_events_value_norm,
        "distinct_types_per_user": _q_distinct_types_per_user,
        "ann_topk_bruteforce": _q_ann_topk,
        "ngram_jaccard_docs": _q_ngram_jaccard,
        "region_nation_cross": _q_region_nation_cross,
        "events_fill_forward": _q_events_fill_forward,
        "docs_tokens_split": _q_docs_tokens_split,
        "session_overlap": _q_session_overlap,
        "interval_overlap_general": _q_interval_overlap_general,
        "key_skew_users": _q_key_skew_users,
        "heavy_user_keys": _q_heavy_user_keys,
        "bucketed_join_roundtrip": _q_bucketed_join_roundtrip,
        "bucketed_group_stats": _q_bucketed_group_stats,
        "cogroup_order_lines": _q_cogroup_order_lines,
        "dataset_diff_orders": _q_dataset_diff_orders,
        "events_time_parts": _q_events_time_parts,
        "events_value_share": _q_events_value_share,
        "dedup_canonical_docs": _q_dedup_canonical_docs,
        "user_overlap_exact": _q_user_overlap_exact,
        # oracle-backed core set (driver-verified rounds 2-4)
        "bloom_join_inner": _q_join_inner,
        "bloom_join_left": _q_join_left,
        "bloom_join_right": _q_join_right,
        "bloom_join_full": _q_join_full,
        "bloom_join_semi": _q_join_semi,
        "bloom_join_anti": _q_join_anti,
        "join_multikey": _q_join_multikey,
        "pricing_summary": _q_pricing_summary,
        "asof_last_purchase": _q_asof_last_purchase,
        "sessionize_users": _q_sessionize,
        "events_session_assign": _q_session_assign,
        "dedup_exact_docs": _q_dedup_exact,
        "decontam_docs": _q_decontam_docs,
        "curation_full_docs": _q_curation_full,
        "events_tumbling": _q_events_tumbling,
        "theta_user_overlap_by_type": _q_theta_overlap_by_type,
        "events_rank_per_user": _q_events_rank_per_user,
        "exact_quantiles_by_type": _q_exact_quantiles_by_type,
        "events_write_roundtrip": _q_write_roundtrip,
        # oracle-backed, driver-verified in earlier rounds (window is 50)
        "events_filtered": _q_events_filtered,
        "events_hourly": _q_events_hourly,
        "topk_event_types": _q_topk_event_types,
        "topk_types_per_user": _q_topk_types_per_user,
        "theta_custkey_overlap": _q_theta_custkey_overlap,
        "mg_top_event_types": _q_mg_top_event_types,
        "distinct_users_exact": _q_distinct_users,
        "cms_top_event_types": _q_cms_top_event_types,
        "dedup_lines_docs": _q_dedup_lines,
        "doc_text_stats": _q_doc_stats,
        "repetition_stats_docs": _q_repetition_docs,
        "vocab_counts_docs": _q_vocab_counts,
        "doc_frequency_docs": _q_doc_frequency,
        "chunked_docs": _q_chunked_docs,
        "tfidf_topk_docs": _q_tfidf_docs,
        "events_sliding": _q_events_sliding,
        "partitioned_write_roundtrip": _q_partitioned_write_roundtrip,
        "events_range_pruned_read": _q_events_range_pruned_read,
        "curated_docs": _q_curated_docs,
        "scrubbed_docs": _q_scrubbed_docs,
        "events_lag_per_user": _q_events_lag_per_user,
        "events_rolling_spend": _q_events_rolling_spend,
        "events_ntile_per_user": _q_events_ntile_per_user,
        "events_context_tail": _q_events_context_tail,
        # approximate / heuristic / nondeterministic - rows-only checks; bounds pinned in tests/
        "reservoir_sample_by_type": _q_reservoir_by_type,
        "packed_docs": _q_packed_docs,
        "split_val_docs": _q_split_val_docs,
        "stratified_sample_docs": _q_stratified_sample_docs,
        "quantile_filter_docs": _q_quantile_filter_docs,
        "quantile_filter_by_source": _q_quantile_filter_by_source,
        "events_value_buckets": _q_events_value_buckets,
        "mixed_corpus_docs": _q_mixed_corpus_docs,
        "doc_perplexity": _q_doc_perplexity,
        "hll_distinct_users": _q_hll_users,
        "hll_event_types_by_user": _q_hll_event_types_by_user,
        "tdigest_value_quantiles": _q_tdigest_value,
        "tdigest_value_by_type": _q_tdigest_by_type,
        "kll_value_quantiles": _q_kll_value,
        "dedup_minhash_docs": _q_dedup_minhash,
        "dedup_minhash_keep_best": _q_dedup_minhash_keep_best,
        "simhash_pairs_docs": _q_simhash_pairs,
        "lang_id_docs": _q_lang_id,
        "doc_fingerprints": _q_fingerprints,
        "ann_topk_lsh": _q_ann_topk_lsh,
        "ann_topk_pq": _q_ann_topk_pq,
        "ann_topk_ivf": _q_ann_topk_ivf,
        "embedding_dedup_pairs": _q_embedding_dedup,
        "semdedup_embeddings": _q_semdedup_embeddings,
        "knn_join_embeddings": _q_knn_join,
        "label_centroids": _q_label_centroids,
        "hashvec_ann_docs": _q_hashvec_ann_docs,
        "transcript_sketches": _q_transcript_sketches,
        "reservoir_sample_events": _q_reservoir_sample,
        "weighted_sample_docs": _q_weighted_sample_docs,
        "events_checksum": _q_events_checksum,
        "events_ewma": _q_events_ewma,
        "user_type_entropy": _q_user_type_entropy,
        "events_pct_rank": _q_events_pct_rank,
        "bloom_params_grid": _q_bloom_params,
        "multimodal_features": _q_multimodal_features,
        "join_size_estimate": _q_join_size_estimate,
        "events_selfjoin_f2": _q_events_selfjoin_f2,
        "ddsketch_value_quantiles": _q_ddsketch_value,
        "dataset_profile_events": _q_dataset_profile,
        "minhash_join_docs": _q_minhash_join_docs,
        "cross_doc_repetition_docs": _q_cross_doc_repetition,
        "bm25_topk_docs": _q_bm25_topk_docs,
        "edit_distance_join_customers": _q_edit_distance_join_customers,
        "duplicate_spans_docs": _q_duplicate_spans,
        "scrub_spans_docs": _q_scrub_spans,
        "bpe_token_counts_docs": _q_bpe_token_counts,
        # no-oracle entries stay OUT of the driver's 50-entry window
        "doc_quality_scores": _q_doc_quality_scores,
        "ann_topk_ivfpq": _q_ann_topk_ivfpq,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "bloom_join_inner": """
            SELECT o.o_orderkey, o.o_custkey, o.o_orderstatus, o.o_totalprice,
                   o.o_orderdate, o.o_orderpriority,
                   c.c_name, c.c_nationkey, c.c_acctbal, c.c_mktsegment
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "bloom_join_left": """
            SELECT l.*, p.p_name, p.p_brand, p.p_type, p.p_size, p.p_retailprice
            FROM lineitem l LEFT JOIN part p ON l.l_partkey = p.p_partkey
        """,
        "bloom_join_right": """
            SELECT o.o_orderkey, coalesce(o.o_custkey, c.c_custkey) AS o_custkey,
                   o.o_orderstatus, o.o_totalprice, o.o_orderdate, o.o_orderpriority,
                   c.c_name, c.c_nationkey, c.c_acctbal, c.c_mktsegment
            FROM orders o RIGHT JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "bloom_join_full": """
            SELECT c.c_custkey, c.c_name,
                   coalesce(c.c_nationkey, s.s_nationkey) AS c_nationkey,
                   c.c_acctbal, c.c_mktsegment,
                   s.s_suppkey, s.s_name, s.s_acctbal
            FROM customer c FULL JOIN supplier s ON c.c_nationkey = s.s_nationkey
        """,
        "bloom_join_semi": """
            SELECT o.* FROM orders o WHERE EXISTS (
                SELECT 1 FROM customer c
                WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING')
        """,
        "bloom_join_anti": """
            SELECT o.* FROM orders o WHERE NOT EXISTS (
                SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)
        """,
        "join_multikey": """
            SELECT x.l_orderkey, x.l_linenumber, x.l_quantity, y.l_extendedprice
            FROM (SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem) x
            JOIN (SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem) y
            ON x.l_orderkey = y.l_orderkey AND x.l_linenumber = y.l_linenumber
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   sum(l_quantity) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
        """,
        "events_filtered": """
            SELECT event_id, user_id, event_type, value FROM events
            WHERE event_type = 'purchase' AND value > 100.0
        """,
        "events_hourly": """
            SELECT date_trunc('hour', ts) AS hour, event_type, count(*) AS n
            FROM events GROUP BY 1, 2
        """,
        "topk_event_types": """
            SELECT event_type, count(*) AS n FROM events
            GROUP BY event_type ORDER BY n DESC LIMIT 5
        """,
        "mg_top_event_types": """
            SELECT event_type, count(*) AS est_count FROM events
            GROUP BY event_type ORDER BY est_count DESC, event_type LIMIT 5
        """,
        "theta_custkey_overlap": """
            SELECT
              (SELECT count(DISTINCT o_custkey) FROM orders) AS distinct_orders,
              (SELECT count(DISTINCT c_custkey) FROM customer) AS distinct_customers,
              (SELECT count(*) FROM (
                 SELECT DISTINCT o_custkey FROM orders
                 UNION SELECT DISTINCT c_custkey FROM customer)) AS n_union,
              (SELECT count(*) FROM (
                 SELECT DISTINCT o_custkey FROM orders
                 INTERSECT SELECT DISTINCT c_custkey FROM customer)) AS n_intersection
        """,
        "theta_user_overlap_by_type": """
            WITH a AS (SELECT DISTINCT event_type, user_id FROM events
                       WHERE ts < TIMESTAMP '2024-01-16'),
                 b AS (SELECT DISTINCT event_type, user_id FROM events
                       WHERE ts >= TIMESTAMP '2024-01-16'),
                 u AS (SELECT event_type, user_id FROM a
                       UNION SELECT event_type, user_id FROM b),
                 i AS (SELECT event_type, user_id FROM a
                       INTERSECT SELECT event_type, user_id FROM b),
                 da AS (SELECT event_type, count(*) AS distinct_a FROM a GROUP BY 1),
                 db AS (SELECT event_type, count(*) AS distinct_b FROM b GROUP BY 1),
                 du AS (SELECT event_type, count(*) AS n_union FROM u GROUP BY 1),
                 di AS (SELECT event_type, count(*) AS n_intersection FROM i GROUP BY 1)
            SELECT du.event_type,
                   CAST(COALESCE(da.distinct_a, 0) AS DOUBLE) AS distinct_a,
                   CAST(COALESCE(db.distinct_b, 0) AS DOUBLE) AS distinct_b,
                   CAST(du.n_union AS DOUBLE) AS n_union,
                   CAST(COALESCE(di.n_intersection, 0) AS DOUBLE) AS n_intersection,
                   CAST(COALESCE(di.n_intersection, 0) AS DOUBLE)
                       / CAST(du.n_union AS DOUBLE) AS jaccard
            FROM du
            LEFT JOIN da USING (event_type)
            LEFT JOIN db USING (event_type)
            LEFT JOIN di USING (event_type)
        """,
        "topk_types_per_user": """
            SELECT user_id, event_type, n, rank FROM (
                SELECT user_id, event_type, count(*) AS n,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY count(*) DESC, event_type) AS rank
                FROM events GROUP BY user_id, event_type)
            WHERE rank <= 2
        """,
        "distinct_users_exact": """
            SELECT count(DISTINCT user_id) AS n_distinct FROM events
        """,
        "cms_top_event_types": """
            SELECT event_type, count(*) AS est_count FROM events
            GROUP BY event_type ORDER BY est_count DESC, event_type LIMIT 5
        """,
        "dedup_exact_docs": """
            SELECT * FROM documents WHERE doc_id IN (
                SELECT min(doc_id) FROM documents GROUP BY text)
        """,
        "dedup_lines_docs": """
            WITH ex AS (
              SELECT doc_id,
                     unnest(str_split(text, chr(10))) AS line,
                     unnest(range(len(str_split(text, chr(10))))) AS idx
              FROM documents WHERE text IS NOT NULL),
            freq AS (SELECT line, count(*) AS n FROM ex GROUP BY line),
            kept AS (SELECT e.doc_id, e.idx, e.line FROM ex e
                     JOIN freq f USING (line) WHERE f.n <= 1)
            SELECT d.doc_id,
                   CASE WHEN d.text IS NULL THEN NULL
                        ELSE coalesce(string_agg(k.line, chr(10)
                                                 ORDER BY k.idx), '')
                   END AS text
            FROM documents d LEFT JOIN kept k USING (doc_id)
            GROUP BY d.doc_id, d.text
        """,
        "sessionize_users": """
            WITH flagged AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                          > INTERVAL 86400 SECONDS OR
                          lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                     THEN 1 ELSE 0 END AS new_s
              FROM events),
            sess AS (
              SELECT user_id, ts,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY ts) AS sid
              FROM flagged)
            SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_events
            FROM sess GROUP BY user_id, sid
        """,
        "partitioned_write_roundtrip": """
            SELECT event_id, user_id, value, event_type
            FROM events WHERE event_type = 'purchase'
        """,
        "events_range_pruned_read": """
            SELECT event_id, user_id, value
            FROM events WHERE value >= 200.0 AND value <= 400.0
        """,
        "events_write_roundtrip": """
            SELECT event_id, user_id, value, value * 2.0 AS value_double
            FROM events WHERE event_type = 'purchase'
        """,
        "events_tumbling": """
            SELECT time_bucket(INTERVAL '6 hours', ts, TIMESTAMP '1970-01-01')
                       AS window_start,
                   count(*) AS n
            FROM events GROUP BY 1
        """,
        "events_sliding": """
            SELECT w AS window_start, count(*) AS n FROM (
                SELECT time_bucket(INTERVAL '6 hours', ts,
                                   TIMESTAMP '1970-01-01') AS w FROM events
                UNION ALL
                SELECT time_bucket(INTERVAL '6 hours', ts,
                                   TIMESTAMP '1970-01-01')
                       - INTERVAL '6 hours' FROM events
            ) GROUP BY w
        """,
        "events_session_assign": """
            WITH flagged AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                          > INTERVAL 86400 SECONDS OR
                          lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                     THEN 1 ELSE 0 END AS new_s
              FROM events),
            sess AS (
              SELECT user_id, ts,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY ts) AS sid
              FROM flagged),
            bounds AS (
              SELECT user_id, sid, min(ts) AS session_start,
                     max(ts) AS session_end
              FROM sess GROUP BY user_id, sid)
            SELECT e.event_id, e.user_id, e.ts, b.session_start, b.session_end
            FROM events e JOIN bounds b
              ON e.user_id = b.user_id
             AND e.ts >= b.session_start AND e.ts <= b.session_end
        """,
        "asof_last_purchase": """
            SELECT e.event_id, e.user_id, e.ts, e.value, p.last_purchase_value
            FROM events e ASOF LEFT JOIN (
                SELECT user_id, ts, max(value) AS last_purchase_value
                FROM events WHERE event_type = 'purchase' GROUP BY user_id, ts
            ) p ON e.user_id = p.user_id AND e.ts >= p.ts
        """,
        "scrubbed_docs": """
            SELECT doc_id,
                   regexp_replace(regexp_replace(text, '\\b(spark|table)\\b',
                                                 '<TOK>', 'g'),
                                  '\\s+', ' ', 'g') AS text
            FROM documents
        """,
        "curated_docs": """
            WITH s AS (
              SELECT doc_id, text,
                     len(list_filter(string_split_regex(text, '\\s+'), x -> x <> ''))
                         AS n_tokens,
                     CASE WHEN length(text) > 0
                          THEN CAST(length(text) - length(regexp_replace(text, '[.,;:!?]', '', 'g')) AS DOUBLE)
                               / greatest(length(text), 1)
                          ELSE 0.0 END AS punct_ratio
              FROM documents),
            f AS (SELECT * FROM s WHERE n_tokens >= 20 AND punct_ratio <= 0.05)
            SELECT doc_id, n_tokens, punct_ratio FROM f
            WHERE doc_id IN (SELECT min(doc_id) FROM f GROUP BY text)
        """,
        "doc_text_stats": """
            SELECT doc_id,
                   length(text) AS n_chars,
                   len(list_filter(string_split_regex(text, '\\s+'), x -> x <> ''))
                       AS n_tokens,
                   length(text) - length(regexp_replace(text, '[.,;:!?]', '', 'g'))
                       AS n_punct,
                   CASE WHEN len(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) > 0
                        THEN CAST(length(regexp_replace(text, '\\s', '', 'g')) AS DOUBLE)
                             / greatest(len(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')), 1)
                        ELSE 0.0 END AS avg_token_len,
                   CASE WHEN length(text) > 0
                        THEN CAST(length(text) - length(regexp_replace(text, '[.,;:!?]', '', 'g')) AS DOUBLE)
                             / greatest(length(text), 1)
                        ELSE 0.0 END AS punct_ratio
            FROM documents
        """,
        "repetition_stats_docs": """
            WITH base AS (
              SELECT doc_id, coalesce(text, '') AS t FROM documents),
            lines AS (
              SELECT doc_id, unnest(string_split(t, chr(10))) AS line
              FROM base),
            lc AS (
              SELECT doc_id, line, count(*) AS c, length(line) AS chars
              FROM lines GROUP BY doc_id, line),
            lstat AS (
              SELECT doc_id,
                     (sum(c) - count(*))::DOUBLE / sum(c) AS dup_line_frac,
                     CASE WHEN sum(chars * c) = 0 THEN 0.0
                          ELSE sum(CASE WHEN c > 1 THEN chars * c
                                        ELSE 0 END)::DOUBLE / sum(chars * c)
                     END AS dup_line_char_frac
              FROM lc GROUP BY doc_id),
            words AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(t), '\\s+'),
                                 x -> x <> '') AS ws
              FROM base),
            tc AS (
              SELECT doc_id, tok, count(*) AS c
              FROM (SELECT doc_id, unnest(ws) AS tok FROM words)
              GROUP BY doc_id, tok),
            tstat AS (
              SELECT doc_id, max(c)::DOUBLE / sum(c) AS top_token_frac
              FROM tc GROUP BY doc_id),
            gc AS (
              SELECT doc_id, g, count(*) AS c
              FROM (SELECT doc_id, ws[i] || chr(31) || ws[i+1] AS g
                    FROM words, UNNEST(range(1, len(ws))) AS s(i)
                    WHERE len(ws) >= 2)
              GROUP BY doc_id, g),
            gstat AS (
              SELECT doc_id,
                     (sum(c) - count(*))::DOUBLE / sum(c) AS dup_ngram_frac
              FROM gc GROUP BY doc_id)
            SELECT b.doc_id,
                   l.dup_line_frac,
                   l.dup_line_char_frac,
                   coalesce(t.top_token_frac, 0.0) AS top_token_frac,
                   coalesce(g.dup_ngram_frac, 0.0) AS dup_ngram_frac
            FROM base b
            LEFT JOIN lstat l USING (doc_id)
            LEFT JOIN tstat t USING (doc_id)
            LEFT JOIN gstat g USING (doc_id)
        """,
        "curation_full_docs": """
            WITH tr AS (
              SELECT doc_id, text FROM documents WHERE doc_id % 20 <> 0),
            s AS (
              SELECT doc_id, text,
                     len(list_filter(string_split_regex(text, '\\s+'),
                                     x -> x <> '')) AS n_tokens,
                     CASE WHEN length(text) > 0
                          THEN CAST(length(text) - length(regexp_replace(
                                   text, '[.,;:!?]', '', 'g')) AS DOUBLE)
                               / greatest(length(text), 1)
                          ELSE 0.0 END AS punct_ratio,
                     list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                 x -> x <> '') AS ws
              FROM tr),
            tstat AS (
              SELECT doc_id, max(c)::DOUBLE / sum(c) AS top_token_frac
              FROM (SELECT doc_id, tok, count(*) AS c
                    FROM (SELECT doc_id, unnest(ws) AS tok FROM s)
                    GROUP BY doc_id, tok)
              GROUP BY doc_id),
            gstat AS (
              SELECT doc_id,
                     (sum(c) - count(*))::DOUBLE / sum(c) AS dup_ngram_frac
              FROM (SELECT doc_id, g, count(*) AS c
                    FROM (SELECT doc_id, ws[i] || chr(31) || ws[i+1] AS g
                          FROM s, UNNEST(range(1, len(ws))) AS t(i)
                          WHERE len(ws) >= 2) GROUP BY doc_id, g)
              GROUP BY doc_id),
            f AS (
              SELECT s.doc_id, s.text, s.n_tokens, s.ws
              FROM s LEFT JOIN tstat USING (doc_id)
                     LEFT JOIN gstat USING (doc_id)
              WHERE s.n_tokens >= 20 AND s.punct_ratio <= 0.05
                AND coalesce(top_token_frac, 0.0) <= 0.15
                AND coalesce(dup_ngram_frac, 0.0) <= 0.06),
            d AS (SELECT * FROM f WHERE doc_id IN
                    (SELECT min(doc_id) FROM f GROUP BY text)),
            dg AS (SELECT DISTINCT doc_id,
                          ws[i] || chr(31) || ws[i+1] || chr(31) || ws[i+2]
                          || chr(31) || ws[i+3] || chr(31) || ws[i+4] AS g
                   FROM d, UNNEST(range(1, len(ws) - 3)) AS t(i)
                   WHERE len(ws) >= 5),
            eg AS (SELECT DISTINCT
                          ws[i] || chr(31) || ws[i+1] || chr(31) || ws[i+2]
                          || chr(31) || ws[i+3] || chr(31) || ws[i+4] AS g
                   FROM (SELECT list_filter(regexp_split_to_array(
                                    lower(text), '\\s+'), x -> x <> '') AS ws
                         FROM documents WHERE doc_id % 20 = 0),
                        UNNEST(range(1, len(ws) - 3)) AS t(i)
                   WHERE len(ws) >= 5),
            bad AS (SELECT DISTINCT doc_id FROM dg JOIN eg USING (g))
            SELECT doc_id, n_tokens FROM d
            WHERE doc_id NOT IN (SELECT doc_id FROM bad)
        """,
        "vocab_counts_docs": """
            SELECT tok AS token, count(*) AS n
            FROM (SELECT unnest(list_filter(
                           regexp_split_to_array(lower(text), '\\s+'),
                           x -> x <> '')) AS tok
                  FROM documents)
            GROUP BY tok
        """,
        "doc_frequency_docs": """
            SELECT token, count(*) AS df
            FROM (SELECT DISTINCT doc_id, tok AS token
                  FROM (SELECT doc_id,
                               unnest(list_filter(regexp_split_to_array(
                                   lower(text), '\\s+'),
                                   x -> x <> '')) AS tok
                        FROM documents))
            GROUP BY token
        """,
        "events_rank_per_user": """
            SELECT user_id, event_id, ts,
                   row_number() OVER (PARTITION BY user_id
                       ORDER BY ts, event_id) AS rank
            FROM events
        """,
        "events_lag_per_user": """
            SELECT user_id, event_id, ts, value,
                   lag(ts) OVER w AS ts_lag,
                   lag(value) OVER w AS value_lag
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "events_rolling_spend": """
            SELECT user_id, event_id, ts, cents,
                   CAST(sum(cents) OVER w AS BIGINT) AS cents_roll_sum
            FROM (SELECT user_id, event_id, ts,
                         CAST(floor(value * 100) AS BIGINT) AS cents
                  FROM events)
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)
        """,
        "events_ntile_per_user": """
            SELECT user_id, event_id, value,
                   ntile(4) OVER (PARTITION BY user_id
                       ORDER BY value, event_id) AS value_quartile
            FROM events
        """,
        "events_context_tail": """
            WITH c AS (
                SELECT user_id, event_id, ts,
                       CAST(strlen(props) AS BIGINT) AS cost,
                       CAST(sum(strlen(props)) OVER w AS BIGINT)
                           AS cum_cost,
                       row_number() OVER o AS rn
                FROM events
                WINDOW w AS (PARTITION BY user_id
                             ORDER BY ts DESC, event_id DESC
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND CURRENT ROW),
                       o AS (PARTITION BY user_id
                             ORDER BY ts DESC, event_id DESC)
            )
            SELECT user_id, event_id, ts, cost, cum_cost FROM c
            WHERE cum_cost <= 300 OR rn = 1
        """,
        "events_rank_family": """
            WITH b AS (
                SELECT user_id, event_id,
                       CAST(floor(value) AS BIGINT) AS vf
                FROM events
            )
            SELECT user_id, event_id, vf,
                   rank() OVER w AS rank,
                   dense_rank() OVER w AS dense_rank,
                   percent_rank() OVER w AS percent_rank,
                   cume_dist() OVER w AS cume_dist
            FROM b WINDOW w AS (PARTITION BY user_id ORDER BY vf)
        """,
        "events_first_last": """
            SELECT user_id, event_id, ts, event_type,
                   first_value(event_type) OVER w AS first_event_type,
                   last_value(event_type) OVER w AS last_event_type,
                   nth_value(event_type, 3) OVER w AS nth3_event_type
            FROM events WINDOW w AS (PARTITION BY user_id
                ORDER BY ts, event_id
                ROWS BETWEEN UNBOUNDED PRECEDING
                         AND UNBOUNDED FOLLOWING)
        """,
        "value_histogram": """
            SELECT CAST(least(floor((value - 0.0) / ((1000.0 - 0.0) / 20)),
                              20 - 1) AS BIGINT) AS bin,
                   count(*) AS n,
                   0.0 + CAST(least(floor((value - 0.0) / ((1000.0 - 0.0)
                        / 20)), 20 - 1) AS BIGINT)
                        * ((1000.0 - 0.0) / 20) AS bin_start,
                   0.0 + (CAST(least(floor((value - 0.0) / ((1000.0 - 0.0)
                        / 20)), 20 - 1) AS BIGINT) + 1)
                        * ((1000.0 - 0.0) / 20) AS bin_end
            FROM events WHERE value >= 0.0 AND value <= 1000.0
            GROUP BY 1
        """,
        "docs_source_extract": """
            SELECT doc_id, source,
                   CASE WHEN regexp_matches(source, '^src([0-9]+)$')
                        THEN regexp_extract(source, '^src([0-9]+)$', 1)
                   END AS src_num
            FROM documents
        """,
        "docs_cap_per_source": """
            SELECT doc_id, source, n_chars, rank FROM (
                SELECT doc_id, source, n_chars,
                       row_number() OVER (PARTITION BY source
                                          ORDER BY n_chars DESC, doc_id)
                           AS rank
                FROM documents)
            WHERE rank <= 3
        """,
        "user_overlap_exact": """
            WITH da AS (SELECT DISTINCT event_type, user_id FROM events
                        WHERE value < 100.0),
                 db AS (SELECT DISTINCT event_type, user_id FROM events
                        WHERE value >= 100.0),
                 u AS (SELECT event_type, user_id,
                              max(sa) AS sa, max(sb) AS sb FROM (
                          SELECT event_type, user_id, 1 AS sa, 0 AS sb
                          FROM da
                          UNION ALL
                          SELECT event_type, user_id, 0, 1 FROM db)
                       GROUP BY event_type, user_id)
            SELECT event_type, CAST(sum(sa) AS BIGINT) AS n_a,
                   CAST(sum(sb) AS BIGINT) AS n_b,
                   CAST(sum(sa * sb) AS BIGINT) AS n_inter,
                   CAST(count(*) AS BIGINT) AS n_union,
                   CAST(sum(sa * sb) AS DOUBLE) / count(*) AS jaccard
            FROM u GROUP BY event_type
        """,
        "dedup_canonical_docs": """
            WITH c AS (
                SELECT doc_id, text,
                       trim(regexp_replace(lower(nfc_normalize(text)),
                                           '\\s+', ' ', 'g')) AS text_canon
                FROM documents
            ),
            r AS (
                SELECT *, row_number() OVER (PARTITION BY text_canon
                              ORDER BY doc_id) AS rn
                FROM c
            )
            SELECT doc_id, text, text_canon FROM r WHERE rn = 1
        """,
        "events_value_share": """
            WITH c AS (
                SELECT user_id, event_id,
                       CAST(round(value * 100) AS BIGINT) AS cents
                FROM events
            )
            SELECT user_id, event_id, cents,
                   CAST(cents AS DOUBLE)
                       / CAST(sum(cents) OVER (PARTITION BY user_id)
                              AS DOUBLE) AS cents_share
            FROM c
        """,
        "events_time_parts": """
            SELECT event_id, ts,
                   date_part('year', ts) AS ts_year,
                   date_part('month', ts) AS ts_month,
                   date_part('day', ts) AS ts_day,
                   date_part('hour', ts) AS ts_hour,
                   date_part('isodow', ts) AS ts_day_of_week,
                   date_part('week', ts) AS ts_iso_week
            FROM events
        """,
        "session_overlap": """
            WITH cf AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER w > INTERVAL 3600 SECONDS
                          OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS ns
              FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
            cs AS (
              SELECT user_id, ts,
                     sum(ns) OVER (PARTITION BY user_id ORDER BY ts) AS sid
              FROM cf),
            coarse AS (
              SELECT user_id, min(ts) AS session_start,
                     max(ts) AS session_end, count(*) AS n_events
              FROM cs GROUP BY user_id, sid),
            ff AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER w > INTERVAL 600 SECONDS
                          OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS ns
              FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
            fs AS (
              SELECT user_id, ts,
                     sum(ns) OVER (PARTITION BY user_id ORDER BY ts) AS sid
              FROM ff),
            fine AS (
              SELECT user_id, min(ts) AS f_start, max(ts) AS f_end,
                     count(*) AS f_n
              FROM fs GROUP BY user_id, sid)
            SELECT coarse.user_id, session_start, session_end, n_events,
                   f_start, f_end, f_n
            FROM coarse JOIN fine ON coarse.user_id = fine.user_id
                 AND session_start <= f_end AND f_start <= session_end
        """,
        "docs_tokens_split": """
            WITH u AS (
                SELECT doc_id,
                       unnest(string_split_regex(text, '\\s+')) AS token,
                       unnest(range(len(string_split_regex(text, '\\s+'))))
                           AS ord
                FROM documents
            )
            SELECT doc_id, token, ord FROM u WHERE token <> ''
        """,
        "bucketed_join_roundtrip": """
            SELECT c_nationkey,
                   min(o_orderkey) AS min_ok,
                   max(o_orderkey) AS max_ok,
                   count(*) AS n
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_nationkey
        """,
        "bucketed_group_stats": """
            SELECT o_custkey, count(*) AS n,
                   min(o_totalprice) AS min_tp,
                   max(o_totalprice) AS max_tp
            FROM orders GROUP BY o_custkey
        """,
        "cogroup_order_lines": """
            WITH ca AS (SELECT o_orderkey AS k, count(*) AS n_a
                        FROM orders GROUP BY 1),
                 cb AS (SELECT l_orderkey AS k, count(*) AS n_b,
                               max(l_extendedprice) AS max_ep
                        FROM lineitem GROUP BY 1)
            SELECT coalesce(ca.k, cb.k) AS o_orderkey,
                   coalesce(n_a, 0) AS n_orders,
                   coalesce(n_b, 0) AS n_lines,
                   max_ep
            FROM ca FULL JOIN cb ON ca.k = cb.k
        """,
        "dataset_diff_orders": """
            SELECT o_orderkey, CAST(1 AS BIGINT) AS n_a,
                   CAST(0 AS BIGINT) AS n_b, 'only_a' AS status
            FROM orders WHERE o_orderstatus <> 'F'
        """,
        "key_skew_users": """
            WITH c AS (
                SELECT user_id, count(*) AS n FROM events GROUP BY user_id
            )
            SELECT CAST(sum(n) AS BIGINT) AS n_rows,
                   count(*) AS n_keys,
                   max(n) AS max_n,
                   quantile_disc(n, 0.5) AS p50_n,
                   quantile_disc(n, 0.9) AS p90_n,
                   quantile_disc(n, 0.99) AS p99_n,
                   CAST(sum(n) AS DOUBLE) / count(*) AS avg_n,
                   CAST(max(n) AS DOUBLE) * count(*)
                       / CAST(sum(n) AS DOUBLE) AS skew
            FROM c
        """,
        "heavy_user_keys": """
            SELECT user_id, count(*) AS n FROM events GROUP BY user_id
            ORDER BY n DESC, user_id LIMIT 12
        """,
        "interval_overlap_general": """
            WITH c AS (
                SELECT event_id AS l_id, user_id,
                       epoch_us(ts) AS ls, epoch_us(ts) + 86400000000 AS le
                FROM events WHERE event_type = 'click'
            ), v AS (
                SELECT event_id AS r_id, user_id,
                       epoch_us(ts) AS rs, epoch_us(ts) + 86400000000 AS re
                FROM events WHERE event_type = 'view'
            )
            SELECT c.user_id, min(l_id) AS l_min, max(l_id) AS l_max,
                   min(r_id) AS r_min, max(r_id) AS r_max,
                   count(*) AS n_pairs
            FROM c JOIN v ON c.user_id = v.user_id
                 AND c.ls <= v.re AND v.rs <= c.le
            GROUP BY c.user_id
        """,
        "events_fill_forward": """
            WITH h AS (
                SELECT user_id, event_id, ts,
                       CASE WHEN event_id % 7 = 0 THEN NULL
                            ELSE value END AS value
                FROM events
            )
            SELECT user_id, event_id, ts, value,
                   last_value(value IGNORE NULLS) OVER w AS value_ff
            FROM h WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
        """,
        "region_nation_cross": """
            SELECT r_regionkey, r_name, n_nationkey, n_name
            FROM region CROSS JOIN nation
        """,
        "events_describe": """
            SELECT 'event_id' AS col, count(event_id) AS n,
                   count(*) - count(event_id) AS nulls,
                   CAST(sum(event_id) AS DOUBLE) / count(event_id) AS mean,
                   sqrt((CAST(sum(event_id*event_id) AS DOUBLE)
                         - CAST(sum(event_id) AS DOUBLE)
                           * CAST(sum(event_id) AS DOUBLE) / count(event_id))
                        / (count(event_id) - 1)) AS std,
                   CAST(min(event_id) AS DOUBLE) AS min,
                   CAST(max(event_id) AS DOUBLE) AS max
            FROM events
            UNION ALL
            SELECT 'user_id', count(user_id),
                   count(*) - count(user_id),
                   CAST(sum(user_id) AS DOUBLE) / count(user_id),
                   sqrt((CAST(sum(user_id*user_id) AS DOUBLE)
                         - CAST(sum(user_id) AS DOUBLE)
                           * CAST(sum(user_id) AS DOUBLE) / count(user_id))
                        / (count(user_id) - 1)),
                   CAST(min(user_id) AS DOUBLE),
                   CAST(max(user_id) AS DOUBLE)
            FROM events
        """,
        "docs_canonical": """
            SELECT doc_id, text,
                   trim(regexp_replace(lower(nfc_normalize(text)),
                                       '\\s+', ' ', 'g')) AS text_canon
            FROM documents
        """,
        "mode_type_per_user": """
            WITH c AS (SELECT user_id, event_type, count(*) AS n
                       FROM events WHERE event_type IS NOT NULL
                       GROUP BY user_id, event_type),
                 r AS (SELECT *, row_number() OVER (PARTITION BY user_id
                           ORDER BY n DESC, event_type) AS rn FROM c)
            SELECT user_id, event_type, n FROM r WHERE rn = 1
        """,
        "props_k_by_type": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT))
                        AS BIGINT) AS sum_k,
                   count(*) AS n
            FROM events GROUP BY event_type
        """,
        "tpch_q3_top_orders": """
            SELECT l_orderkey, o_orderdate, o_orderpriority,
                   CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount)
                                       * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM customer, orders, lineitem
            WHERE c_mktsegment = 'BUILDING'
              AND c_custkey = o_custkey
              AND l_orderkey = o_orderkey
              AND o_orderdate < TIMESTAMP '1995-03-15'
              AND l_shipdate > TIMESTAMP '1995-03-15'
            GROUP BY l_orderkey, o_orderdate, o_orderpriority
            ORDER BY revenue_cents DESC, l_orderkey
            LIMIT 10
        """,
        "user_type_sequences": """
            SELECT user_id,
                   string_agg(event_type, ',' ORDER BY ts, event_id)
                       AS types_seq,
                   count(*) AS n_turns
            FROM events GROUP BY user_id
        """,
        "exact_quantiles_by_type": """
            SELECT event_type,
                   quantile_disc(value, 0.25) AS q25,
                   quantile_disc(value, 0.50) AS q50,
                   quantile_disc(value, 0.90) AS q90
            FROM events GROUP BY event_type
        """,
        "events_rollup": """
            SELECT event_type, user_id,
                   CAST(sum(CAST(floor(value * 100) AS BIGINT))
                        AS BIGINT) AS spend,
                   count(*) AS n
            FROM events GROUP BY ROLLUP (event_type, user_id)
        """,
        "events_cube": """
            SELECT event_type, user_id,
                   CAST(sum(CAST(floor(value * 100) AS BIGINT))
                        AS BIGINT) AS spend,
                   count(*) AS n
            FROM events GROUP BY CUBE (event_type, user_id)
        """,
        "lineitem_moments": """
            WITH b AS (
                SELECT l_returnflag,
                       CAST(round(l_quantity) AS BIGINT) AS x,
                       CAST(round(l_discount * 100) AS BIGINT) AS y
                FROM lineitem
            ), s AS (
                SELECT l_returnflag, count(*) AS n,
                       sum(x) AS sx, sum(x*x) AS sxx,
                       sum(y) AS sy, sum(y*y) AS syy, sum(x*y) AS sxy
                FROM b GROUP BY l_returnflag
            )
            SELECT l_returnflag, n,
                   CAST(sx AS DOUBLE) / n AS mean_x,
                   (CAST(sxx AS DOUBLE)
                    - (CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) / n)
                   / (n - 1) AS var_x,
                   sqrt((CAST(sxx AS DOUBLE)
                    - (CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) / n)
                   / (n - 1)) AS std_x,
                   CAST(sy AS DOUBLE) / n AS mean_y,
                   (CAST(syy AS DOUBLE)
                    - (CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)) / n)
                   / (n - 1) AS var_y,
                   sqrt((CAST(syy AS DOUBLE)
                    - (CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)) / n)
                   / (n - 1)) AS std_y,
                   (CAST(sxy AS DOUBLE)
                    - (CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)) / n)
                   / (n - 1) AS covar,
                   ((CAST(sxy AS DOUBLE)
                     - (CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)) / n)
                    / (n - 1))
                   / (sqrt((CAST(sxx AS DOUBLE)
                       - (CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) / n)
                      / (n - 1))
                      * sqrt((CAST(syy AS DOUBLE)
                         - (CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)) / n)
                        / (n - 1))) AS corr
            FROM s
        """,
        "embedding_unnest": """
            SELECT vec_id, unnest(embedding) AS v FROM embeddings
        """,
        "lineitem_unpivot": """
            SELECT l_orderkey, l_linenumber,
                   'l_quantity' AS measure, l_quantity AS value
            FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_discount', l_discount
            FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_tax', l_tax
            FROM lineitem
        """,
        "custkey_union": """
            SELECT o_custkey AS k FROM orders
            UNION
            SELECT c_custkey AS k FROM customer
        """,
        "custkey_intersect": """
            SELECT o_custkey AS k FROM orders
            INTERSECT
            SELECT c_custkey AS k FROM customer
        """,
        "orderkey_except": """
            SELECT o_orderkey AS k FROM orders
            EXCEPT
            SELECT l_orderkey AS k FROM lineitem
        """,
        "events_type_pivot": """
            SELECT user_id,
                   count(*) FILTER (event_type = 'click') AS n_click,
                   count(*) FILTER (event_type = 'error') AS n_error,
                   count(*) FILTER (event_type = 'purchase') AS n_purchase,
                   count(*) FILTER (event_type = 'signup') AS n_signup,
                   count(*) FILTER (event_type = 'view') AS n_view
            FROM events GROUP BY user_id
        """,
        "events_value_norm": """
            SELECT user_id, event_id, value,
                   CASE WHEN mx = mn THEN 0.0
                        ELSE (value - mn) / (mx - mn) END AS value_norm
            FROM (SELECT user_id, event_id, value,
                         min(value) OVER (PARTITION BY user_id) AS mn,
                         max(value) OVER (PARTITION BY user_id) AS mx
                  FROM events)
        """,
        "distinct_types_per_user": """
            SELECT user_id, count(DISTINCT event_type) AS n_distinct
            FROM events GROUP BY user_id
        """,
        "tfidf_topk_docs": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(lower(text),
                         '\\s+'), x -> x <> '')) AS token
              FROM documents),
            tf AS (SELECT doc_id, token, count(*) AS tf
                   FROM toks GROUP BY doc_id, token),
            df AS (SELECT token, count(DISTINCT doc_id) AS df
                   FROM toks GROUP BY token),
            n AS (SELECT count(*) AS nd FROM documents),
            s AS (SELECT t.doc_id, t.token, t.tf, d.df,
                         CAST(t.tf * (nd + 1) AS DOUBLE) / (d.df + 1)
                             AS score,
                         row_number() OVER (PARTITION BY t.doc_id
                             ORDER BY CAST(t.tf * (nd + 1) AS DOUBLE)
                                      / (d.df + 1) DESC,
                                      t.token) AS rank
                  FROM tf t JOIN df d USING (token), n)
            SELECT doc_id, token, tf, df, score, rank
            FROM s WHERE rank <= 3
        """,
        "chunked_docs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                 x -> x <> '') AS tk
              FROM documents),
            m AS (
              SELECT doc_id, tk, len(tk) AS n,
                     CASE WHEN len(tk) <= 16 THEN 1
                          ELSE CAST(ceil((len(tk) - 16) / 12.0) AS BIGINT) + 1
                     END AS nc
              FROM toks WHERE len(tk) > 0),
            e AS (
              SELECT doc_id, tk, n,
                     unnest(generate_series(0, nc - 1)) AS chunk_idx
              FROM m)
            SELECT doc_id, chunk_idx,
                   array_to_string(
                       tk[chunk_idx*12 + 1 : chunk_idx*12 + 16],
                       ' ') AS chunk_text,
                   least(16, n - chunk_idx*12) AS chunk_len
            FROM e
        """,
        "decontam_docs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\\s+'),
                                 x -> x <> '') AS ws
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id,
                     ws[i] || chr(31) || ws[i+1] || chr(31) || ws[i+2] AS g
              FROM toks, UNNEST(range(1, len(ws) - 1)) AS t(i)
              WHERE len(ws) >= 3),
            eval_g AS (SELECT DISTINCT g FROM grams WHERE doc_id % 20 = 0)
            SELECT doc_id, count(*) AS n_contaminated
            FROM grams JOIN eval_g USING (g)
            WHERE doc_id % 20 <> 0
            GROUP BY doc_id
        """,
        "bpe_token_counts_docs": """
            SELECT doc_id,
                   CAST(len(regexp_extract_all(coalesce(text, ''),
                     '''(?:s|t|re|ve|m|ll|d)| ?\\p{L}+| ?\\p{N}+'
                     || '| ?[^\\s\\p{L}\\p{N}]+|\\s+')) AS BIGINT)
                     AS n_tokens_bpe
            FROM documents
        """,
        "scrub_spans_docs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(text, '\\s+'),
                                 x -> x <> '') AS ws
              FROM documents),
            grams AS (
              SELECT doc_id, i - 1 AS pos,
                     lower(ws[i]) || chr(31) || lower(ws[i+1]) || chr(31)
                       || lower(ws[i+2]) AS g
              FROM toks, UNNEST(range(1, len(ws) - 1)) AS t(i)
              WHERE len(ws) >= 3),
            cnt AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
            dup AS (SELECT doc_id, pos FROM grams JOIN cnt USING (g)
                    WHERE c >= 2),
            flag AS (SELECT doc_id, pos, CASE WHEN pos - lag(pos) OVER
                     (PARTITION BY doc_id ORDER BY pos) <= 3
                     THEN 0 ELSE 1 END AS brk FROM dup),
            isl AS (SELECT doc_id, pos, sum(brk) OVER
                    (PARTITION BY doc_id ORDER BY pos) AS grp FROM flag),
            spans AS (SELECT doc_id, min(pos) AS s, max(pos) + 3 AS e
                      FROM isl GROUP BY doc_id, grp),
            toku AS (SELECT doc_id, i - 1 AS pos, ws[i] AS tok
                     FROM toks, UNNEST(range(1, len(ws) + 1)) AS t(i)),
            keep AS (SELECT doc_id, pos, tok FROM toku u
                     WHERE NOT EXISTS (SELECT 1 FROM spans s
                       WHERE s.doc_id = u.doc_id
                         AND u.pos >= s.s AND u.pos < s.e))
            SELECT d.doc_id,
                   coalesce(k.txt, '') AS text_scrubbed,
                   CAST(len(t.ws) - coalesce(k.cnt, 0) AS BIGINT)
                     AS n_removed
            FROM documents d
            JOIN toks t USING (doc_id)
            LEFT JOIN (SELECT doc_id,
                              string_agg(tok, ' ' ORDER BY pos) AS txt,
                              count(*) AS cnt
                       FROM keep GROUP BY doc_id) k USING (doc_id)
        """,
        "duplicate_spans_docs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\\s+'),
                                 x -> x <> '') AS ws
              FROM documents),
            grams AS (
              SELECT doc_id, i - 1 AS pos,
                     ws[i] || chr(31) || ws[i+1] || chr(31) || ws[i+2] AS g
              FROM toks, UNNEST(range(1, len(ws) - 1)) AS t(i)
              WHERE len(ws) >= 3),
            cnt AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
            dup AS (SELECT doc_id, pos FROM grams JOIN cnt USING (g)
                    WHERE c >= 2),
            flag AS (SELECT doc_id, pos,
                     CASE WHEN pos - lag(pos) OVER
                          (PARTITION BY doc_id ORDER BY pos) <= 3
                          THEN 0 ELSE 1 END AS brk FROM dup),
            isl AS (SELECT doc_id, pos, sum(brk) OVER
                    (PARTITION BY doc_id ORDER BY pos) AS grp FROM flag)
            SELECT doc_id, min(pos) AS span_start,
                   CAST(max(pos) + 3 AS BIGINT) AS span_end,
                   count(*) AS n_windows
            FROM isl GROUP BY doc_id, grp
        """,
        "edit_distance_join_customers": """
            SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
                   levenshtein(a.c_name, b.c_name) AS dist
            FROM customer a, customer b
            WHERE a.c_custkey < b.c_custkey
              AND levenshtein(a.c_name, b.c_name) <= 1
        """,
        "bm25_topk_docs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\\s+'),
                                 x -> x <> '') AS ws
              FROM documents),
            stats AS (
              SELECT count(*) AS n, CAST(sum(len(ws)) AS DOUBLE)
                     / CAST(count(*) AS DOUBLE) AS avgdl
              FROM toks),
            dfs AS (SELECT
              (SELECT count(*) FROM toks
               WHERE list_contains(ws, 'data'))  AS df0,
              (SELECT count(*) FROM toks
               WHERE list_contains(ws, 'sort'))  AS df1,
              (SELECT count(*) FROM toks
               WHERE list_contains(ws, 'merge')) AS df2),
            feat AS (SELECT doc_id,
              CAST(len(list_filter(ws, x -> x = 'data'))  AS DOUBLE) AS tf0,
              CAST(len(list_filter(ws, x -> x = 'sort'))  AS DOUBLE) AS tf1,
              CAST(len(list_filter(ws, x -> x = 'merge')) AS DOUBLE) AS tf2,
              1.2 * (1.0 - 0.75 + 0.75 * (CAST(len(ws) AS DOUBLE) / avgdl))
                AS norm
              FROM toks, stats),
            scored AS (SELECT doc_id,
                ln(1.0 + (n - df0 + 0.5) / (df0 + 0.5))
                  * ((tf0 * (1.2 + 1.0)) / (tf0 + norm))
              + ln(1.0 + (n - df1 + 0.5) / (df1 + 0.5))
                  * ((tf1 * (1.2 + 1.0)) / (tf1 + norm))
              + ln(1.0 + (n - df2 + 0.5) / (df2 + 0.5))
                  * ((tf2 * (1.2 + 1.0)) / (tf2 + norm)) AS score
              FROM feat, dfs, stats)
            SELECT doc_id, score, CAST(row_number() OVER
                   (ORDER BY score DESC, doc_id) AS BIGINT) AS rank
            FROM scored ORDER BY score DESC, doc_id LIMIT 10
        """,
        "cross_doc_repetition_docs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\\s+'),
                                 x -> x <> '') AS ws
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id,
                     ws[i] || chr(31) || ws[i+1] || chr(31) || ws[i+2] AS g
              FROM toks, UNNEST(range(1, len(ws) - 1)) AS t(i)
              WHERE len(ws) >= 3),
            df AS (SELECT g, count(*) AS df FROM grams GROUP BY g),
            per AS (
              SELECT doc_id, count(*) AS n_grams,
                     CAST(sum(CASE WHEN df >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_dup_grams
              FROM grams JOIN df USING (g) GROUP BY doc_id)
            SELECT doc_id, n_grams, n_dup_grams,
                   CAST(n_dup_grams AS DOUBLE) / CAST(n_grams AS DOUBLE)
                     AS dup_fraction
            FROM per
        """,
        "ngram_jaccard_docs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\\s+'),
                                 x -> x <> '') AS ws
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id,
                     ws[i] || chr(31) || ws[i+1] || chr(31) || ws[i+2] AS g
              FROM toks, UNNEST(range(1, len(ws) - 1)) AS t(i)
              WHERE len(ws) >= 3),
            pruned AS (
              SELECT g FROM grams GROUP BY g HAVING count(*) <= 64),
            pg AS (SELECT doc_id, g FROM grams
                   WHERE g IN (SELECT g FROM pruned)),
            sizes AS (SELECT doc_id, count(*) AS sz FROM pg GROUP BY doc_id),
            co AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS cnt
              FROM pg a JOIN pg b ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY a.doc_id, b.doc_id)
            SELECT co.id_a, co.id_b,
                   CAST(cnt AS DOUBLE) / (sa.sz + sb.sz - cnt) AS jaccard
            FROM co JOIN sizes sa ON co.id_a = sa.doc_id
                    JOIN sizes sb ON co.id_b = sb.doc_id
            WHERE CAST(cnt AS DOUBLE) / (sa.sz + sb.sz - cnt) >= 0.5
        """,
        "ann_topk_bruteforce": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe
                       FROM embeddings WHERE vec_id < 5),
            sc AS (SELECT q.qid, e.vec_id,
                          list_cosine_similarity(q.qe, e.embedding) AS s
                   FROM q CROSS JOIN embeddings e),
            r AS (SELECT qid, vec_id,
                         row_number() OVER (PARTITION BY qid
                                            ORDER BY s DESC, vec_id) AS rn
                  FROM sc)
            SELECT CAST(qid AS INTEGER) AS query_id, vec_id
            FROM r WHERE rn <= 10
        """,
    }
