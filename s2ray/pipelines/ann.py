"""Similarity search over the embedding column.

- knn_embeddings: brute-force cosine top-k — queries broadcast once
  (ray.put), per-batch numpy matmul, per-batch local top-k, global
  sort+limit per query.  The correctness baseline (SQL-oracle-checkable).
- lsh_knn: random-hyperplane LSH bucketing — the scale path: probes only
  buckets within a signature Hamming radius.  Recall < 1 by design;
  measured against brute force in tests.
- ivf_knn: IVF coarse quantization — k-means on a bounded sample, probe
  only the closest centroid lists.

NB: Ray 2.49's groupby().map_groups() emits one benign
"RefBundle with a different schema" WARNING per run even for a constant
schema (its sort shuffle ends with an empty untyped block; reproduced with
a 30-row trivial dataset).  The typed-empty guards below keep OUR blocks
schema-stable; the residual warning is upstream.
"""

from __future__ import annotations

import numpy as np

from ..functions.vecs import normalized_matrix, read_query_vectors
from ..sources.readers import read_table
import pyarrow as pa


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.maximum(1e-300, np.linalg.norm(mat, axis=1, keepdims=True))


def knn_embeddings(sf_dir: str, query_ids: list[int], k: int = 10):
    """For each query vector: top-k most-cosine-similar OTHER vectors.

    Output: (query_id, vec_id, rank) — rank 1..k by descending similarity.
    """
    import ray
    import ray.data

    # query vectors via a row-group-pruning filter read — never the table
    q_ids, q_mat = read_query_vectors(f"{sf_dir}/embeddings.parquet",
                                      query_ids)
    q_ref = ray.put((q_ids, q_mat))

    def stage(batch: pa.Table, q_ref=q_ref) -> pa.Table:
        q_ids, q_mat = ray.get(q_ref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        emb = normalized_matrix(batch["embedding"])
        sims = q_mat @ emb.T  # (Q, B)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(q_ids)):
            s = sims[qi]
            mask = ids != q_ids[qi]
            idx = np.nonzero(mask)[0]
            if len(idx) > k:
                # deterministic (sim DESC, vec_id ASC): bit-identical
                # cosines exist by construction in this corpus
                top = idx[np.lexsort((ids[idx], -s[idx]))[:k]]
            else:
                top = idx
            out_q.extend([q_ids[qi]] * len(top))
            out_v.extend(ids[top].tolist())
            out_s.extend(s[top].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    partials = ds.map_batches(stage, batch_format="pyarrow", batch_size=None)

    def global_topk(df):
        import pandas as pd

        if len(df) == 0:
            # typed empty frame: Ray probes map_groups with empty blocks and
            # an untyped empty emits mixed-schema RefBundle warnings
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("query_id", "vec_id", "rank")})
        df = (df.sort_values(["sim", "vec_id"], ascending=[False, True])
              .head(k).reset_index(drop=True))
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["query_id", "vec_id", "rank"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


def topk_partial_core(q_ids: np.ndarray, q_mat: np.ndarray,
                      ids: np.ndarray, emb: np.ndarray,
                      k: int) -> pa.Table:
    """Vectorized partial top-k for MANY queries at once: one (Q, B)
    matmul, then a k-th-value cut (np.partition) that keeps every element
    at least as similar as the k-th — boundary ties are kept, so the
    global merge (sim DESC, vec_id ASC) returns bit-identical results to
    the per-query path.  knn_embeddings' python-per-query lexsort is fine
    for a handful of queries; bulk retrieval (hundreds of queries per
    scan) needs the whole batch to stay in C.  `emb` rows must be
    L2-normalized."""
    sims = q_mat @ emb.T                      # (Q, B)
    self_mask = ids[None, :] == np.asarray(q_ids)[:, None]
    if self_mask.any():
        # dtype-preserving -inf: a python float would promote f32 sims
        sims = np.where(self_mask, sims.dtype.type(-np.inf), sims)
    B = sims.shape[1]
    kk = min(k, B)
    kth = np.partition(sims, B - kk, axis=1)[:, B - kk]      # k-th best
    qi, bi = np.nonzero(sims >= kth[:, None])
    s = sims[qi, bi]
    ok = np.isfinite(s)                       # drop masked self rows
    qi, bi, s = qi[ok], bi[ok], s[ok]
    return pa.table({
        "query_id": pa.array(np.asarray(q_ids)[qi], type=pa.int64()),
        "vec_id": pa.array(ids[bi], type=pa.int64()),
        "sim": pa.array(s, type=pa.float64()),
    })


def topk_partial_stage(batch: pa.Table, q_ref, k: int) -> pa.Table:
    """Parquet-input wrapper of topk_partial_core (broadcast queries)."""
    from ..state.bcast import cached_get

    q_ids, q_mat = cached_get(q_ref)
    ids = batch["vec_id"].to_numpy(zero_copy_only=False)
    emb = normalized_matrix(batch["embedding"])
    return topk_partial_core(q_ids, q_mat, ids, emb, k)


def topk_merge(partials, k: int):
    """Global per-query merge of partial top-k rows — deterministic
    (sim DESC, vec_id ASC), same contract as knn_embeddings."""

    def global_topk(df):
        import pandas as pd

        if len(df) == 0:
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("query_id", "vec_id", "rank")})
        df = (df.sort_values(["sim", "vec_id"], ascending=[False, True])
              .head(k).reset_index(drop=True))
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["query_id", "vec_id", "rank"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


def knn_embeddings_bulk(sf_dir: str, query_ids: list[int], k: int = 10):
    """Bulk-query brute-force cosine top-k: same output as knn_embeddings
    (tested equal), one vectorized partial-top-k pass per batch instead of
    a python loop per query — the shape batch retrieval takes when an LLM
    pipeline looks up hundreds of queries per scan."""
    import ray
    import ray.data

    q_ids, q_mat = read_query_vectors(f"{sf_dir}/embeddings.parquet",
                                      query_ids)
    q_ref = ray.put((np.asarray(q_ids, dtype=np.int64), q_mat))
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    partials = ds.map_batches(topk_partial_stage,
                              fn_kwargs={"q_ref": q_ref, "k": k},
                              batch_format="pyarrow", batch_size=None)
    return topk_merge(partials, k)


_N_PLANES = 12


def _lsh_planes(dim: int, n_planes: int = _N_PLANES) -> np.ndarray:
    rng = np.random.RandomState(20240817)
    return rng.standard_normal((n_planes, dim))


def lsh_signature(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0], dtype=np.int64))
    return bits @ weights


def lsh_knn(sf_dir: str, query_ids: list[int], k: int = 10,
            hamming_radius: int = 3):
    """ANN top-k: probe only vectors whose LSH bucket is within
    hamming_radius of the query's bucket.  Scale path: bucket id becomes the
    shuffle key; here the filter runs inside map_batches against broadcast
    query signatures."""
    import ray
    import ray.data

    q_ids, q_mat = read_query_vectors(f"{sf_dir}/embeddings.parquet",
                                      query_ids)
    planes = _lsh_planes(q_mat.shape[1])
    q_sig = lsh_signature(q_mat, planes)
    q_ref = ray.put((q_ids, q_mat, q_sig, planes))
    radius = hamming_radius

    def stage(batch: pa.Table, q_ref=q_ref) -> pa.Table:
        q_ids, q_mat, q_sig, planes = ray.get(q_ref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        emb = normalized_matrix(batch["embedding"])
        sig = lsh_signature(emb, planes)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(q_ids)):
            x = np.bitwise_xor(sig, q_sig[qi])
            ham = np.zeros(len(x), dtype=np.int64)
            xx = x.copy()
            for _ in range(_N_PLANES):
                ham += xx & 1
                xx >>= 1
            cand = np.nonzero((ham <= radius) & (ids != q_ids[qi]))[0]
            if len(cand) == 0:
                continue
            s = emb[cand] @ q_mat[qi]
            if len(cand) > k:
                # deterministic (sim DESC, vec_id ASC) local prune — ties
                # at the k boundary must keep the same rows the oracle does
                top = np.lexsort((ids[cand], -s))[:k]
                cand, s = cand[top], s[top]
            out_q.extend([q_ids[qi]] * len(cand))
            out_v.extend(ids[cand].tolist())
            out_s.extend(s.tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    partials = ds.map_batches(stage, batch_format="pyarrow", batch_size=None)

    def global_topk(df):
        import pandas as pd

        if len(df) == 0:
            return pd.DataFrame({
                "query_id": pd.Series(dtype=np.int64),
                "vec_id": pd.Series(dtype=np.int64),
                "rank": pd.Series(dtype=np.int64),
                "sim": pd.Series(dtype=np.float64),
            })
        df = (df.sort_values(["sim", "vec_id"], ascending=[False, True])
              .head(k).reset_index(drop=True))
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["query_id", "vec_id", "rank", "sim"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


# -- IVF (inverted-file) ANN -------------------------------------------------

def _kmeans_centroids(sample: np.ndarray, n_centroids: int,
                      n_iter: int = 10) -> np.ndarray:
    """Deterministic spherical k-means on a normalized sample: init =
    evenly-strided sample rows, Lloyd iterations with cosine assignment,
    empty clusters keep their previous centroid.  Driver-side over a small
    sample (IVF training never sees the full table)."""
    n = len(sample)
    init_idx = np.floor(np.linspace(0, n - 1, n_centroids)).astype(np.int64)
    cent = sample[np.unique(init_idx)]
    if len(cent) < n_centroids:   # tiny sample: pad by repeating
        cent = sample[np.resize(init_idx, n_centroids)]
    cent = _normalize(cent.copy())
    for _ in range(n_iter):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(len(cent)):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_knn(sf_dir: str, query_ids: list[int], k: int = 10,
            n_centroids: int = 64, n_probe: int = 8,
            train_rows: int = 4096):
    """IVF approximate top-k: coarse-quantize every vector to its nearest
    centroid, then scan only the n_probe closest centroid lists per query.

    Scale shape: training reads a bounded sample (limit), the centroid
    matrix broadcasts once, and the probe pass computes similarities only
    for rows whose assigned centroid is probed — at 100 TB the scan cost
    drops by ~n_probe/n_centroids with no shuffle at all (assignment and
    probing fuse into one map_batches over the same scan).

    Output: (query_id, vec_id, rank) — same schema as knn_embeddings;
    recall vs the exact operator is pytest-asserted.
    """
    import ray
    import ray.data
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    first = next(pf.iter_batches(batch_size=train_rows,
                                 columns=["vec_id", "embedding"]))
    sample = normalized_matrix(
        pa.Table.from_batches([first])["embedding"])
    cent = _kmeans_centroids(sample, n_centroids)

    q_ids, q_mat = read_query_vectors(f"{sf_dir}/embeddings.parquet",
                                      query_ids)
    # per-query probed centroid lists
    q_probe = np.argsort(-(q_mat @ cent.T), axis=1)[:, :n_probe]
    state_ref = ray.put((q_ids, q_mat, cent, q_probe))

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def stage(batch: pa.Table, state_ref=state_ref) -> pa.Table:
        q_ids, q_mat, cent, q_probe = ray.get(state_ref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        emb = normalized_matrix(batch["embedding"])
        assign = np.argmax(emb @ cent.T, axis=1)   # coarse quantization
        out_q, out_v, out_s = [], [], []
        for qi in range(len(q_ids)):
            cand = np.nonzero(np.isin(assign, q_probe[qi])
                              & (ids != q_ids[qi]))[0]
            if not len(cand):
                continue
            s = emb[cand] @ q_mat[qi]
            if len(cand) > k:
                # deterministic (sim DESC, vec_id ASC) local prune
                top = np.lexsort((ids[cand], -s))[:k]
                cand, s = cand[top], s[top]
            out_q.extend([q_ids[qi]] * len(cand))
            out_v.extend(ids[cand].tolist())
            out_s.extend(s.tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    partials = ds.map_batches(stage, batch_format="pyarrow", batch_size=None)

    def global_topk(df):
        import pandas as pd

        if len(df) == 0:
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("query_id", "vec_id", "rank")})
        df = df.sort_values(["sim", "vec_id"], ascending=[False, True]) \
            .head(k).reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["query_id", "vec_id", "rank"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


def quantize_embeddings(sf_dir: str, n_levels: int = 256):
    """Scalar quantization (SQ8-style ANN compression): per-dimension
    global [min, max] -> uniform integer codes
    ``clip(floor((v - dmin) / (dmax - dmin) * n_levels), 0, n_levels-1)``
    (zero-span dimensions code to 0).  Output per vector: (vec_id,
    sum_codes, min_code, max_code) — integer reductions over the code
    row, so the result is hash-exact despite the float scaling (the
    per-element scale is bit-identical on both engines; only order-free
    int reductions follow it).

    Two passes, as SQ must be: (1) per-batch per-dim min/max partials
    (one dim-sized blob row per batch) merged on the driver — bounded by
    #batches x dim, never rows; (2) broadcast (dmin, dmax) + streaming
    encode.  At 100 TB pass 1's partials would tree-merge like the tile
    pipeline; the dim-sized final stats are broadcast state either way.
    """
    import ray

    from ..functions.vecs import embedding_matrix

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def stats(batch: pa.Table) -> pa.Table:
        m = embedding_matrix(batch["embedding"])
        if not len(m):
            return pa.table({"dmin": pa.array([], type=pa.binary()),
                             "dmax": pa.array([], type=pa.binary())})
        return pa.table({
            "dmin": pa.array([m.min(axis=0).tobytes()], type=pa.binary()),
            "dmax": pa.array([m.max(axis=0).tobytes()], type=pa.binary()),
        })

    parts = ds.map_batches(stats, batch_format="pyarrow",
                           batch_size=None).take_all()
    mins = [np.frombuffer(r["dmin"], dtype=np.float64) for r in parts]
    maxs = [np.frombuffer(r["dmax"], dtype=np.float64) for r in parts]
    if not mins:
        # empty embeddings table: typed empty result (a pa.Table, not a
        # Dataset — Ray 2.49's to_pandas drops the schema of an all-empty
        # dataset, which would break the driver's schema compare)
        return pa.table({
            "vec_id": pa.array([], type=pa.int64()),
            "sum_codes": pa.array([], type=pa.int64()),
            "min_code": pa.array([], type=pa.int64()),
            "max_code": pa.array([], type=pa.int64()),
        })
    dmin = np.minimum.reduce(mins)
    dmax = np.maximum.reduce(maxs)
    span = dmax - dmin
    state = ray.put((dmin, np.where(span > 0, span, 1.0), span > 0))

    def encode(batch: pa.Table, state=state) -> pa.Table:
        lo, sp, has = ray.get(state)
        m = embedding_matrix(batch["embedding"])
        scaled = (m - lo) / sp * float(n_levels)
        codes = np.clip(np.floor(scaled), 0, n_levels - 1).astype(np.int64)
        codes[:, ~has] = 0
        return pa.table({
            "vec_id": batch["vec_id"],
            "sum_codes": pa.array(codes.sum(axis=1)),
            "min_code": pa.array(codes.min(axis=1)),
            "max_code": pa.array(codes.max(axis=1)),
        })

    return ds.map_batches(encode, batch_format="pyarrow", batch_size=None)


def cross_lang_nn(sf_dir: str, method: str = "auto",
                  broadcast_rows_max: int = 1_000_000):
    """Bitext-mining-shape constrained nearest neighbor: for EVERY vector,
    the most cosine-similar vector whose document language DIFFERS —
    (vec_id, lang, nn_id, nn_lang), ties on similarity broken by smaller
    nn_id.  The candidate-alignment primitive of parallel-corpus mining
    (cf. LASER/CCMatrix margin mining) restricted to its exact top-1 core
    so the result is SQL-oracle-checkable.

    Dispatch (method="auto", the dedup.near_dup_clusters pattern): at
    or below ``broadcast_rows_max`` embedding rows (parquet metadata,
    no read) the EXACT broadcast path runs — the L2-normalized corpus
    matrix + language codes ship once via ray.put and every batch does
    ONE (B, N) matmul with a same-language/self mask; this is the
    bit-exact formulation the SQL oracle gates, and the right call
    while the matrix fits one object (1M rows x 128 dims f32 = 512 MB;
    raise the knob on bigger hosts).  Above it, the banded-LSH
    :func:`cross_lang_nn_bucketed` runs instead — same output
    contract, NO corpus-sized object anywhere, recall < 1 by design
    and pytest-bounded against this baseline
    (tests/test_dedup_text_ann.py).  WARNING: unlike the engine's
    other auto dispatchers, the two paths are NOT bit-identical —
    above the threshold results are approximate (that is the point:
    the exact formulation cannot run there).  Callers needing the
    exact answer regardless of cost pass method="broadcast";
    method="broadcast"/"bucketed" force a path (dispatch pytest:
    test_cross_lang_nn_dispatch).
    Vectors with no document row or a NULL language are excluded on
    both sides (SQL inner-join + lang <> lang semantics).
    """
    import ray

    from ..sources.readers import load_doc_langs, load_embedding_matrix

    if method == "auto":
        import pyarrow.parquet as pq

        n_rows = pq.read_metadata(
            f"{sf_dir}/embeddings.parquet").num_rows
        method = "broadcast" if n_rows <= broadcast_rows_max \
            else "bucketed"
    if method == "bucketed":
        return cross_lang_nn_bucketed(sf_dir)
    if method != "broadcast":
        raise ValueError(f"unknown method {method!r}")

    vec_ids, mat = load_embedding_matrix(sf_dir)
    order = np.argsort(vec_ids)      # columns in nn_id order
    vec_ids, mat = vec_ids[order], mat[order]
    doc_ids, langs = load_doc_langs(sf_dir)
    pos = np.searchsorted(doc_ids, vec_ids)
    posc = np.clip(pos, 0, max(0, len(doc_ids) - 1))
    has = (pos < len(doc_ids)) & (doc_ids[posc] == vec_ids) \
        if len(doc_ids) else np.zeros(len(vec_ids), dtype=bool)
    lang_of = np.full(len(vec_ids), None, dtype=object)
    lang_of[has] = langs[posc[has]]
    valid = np.array([x is not None and x == x for x in lang_of],
                     dtype=bool)
    c_ids = vec_ids[valid].astype(np.int64)
    c_mat = mat[valid]
    c_langs = lang_of[valid].astype(str)
    uq, c_codes = np.unique(c_langs, return_inverse=True)
    # Exact ties can't be left to argmax-first: gemm rounding depends on
    # a column's position (trailing columns take another micro-kernel),
    # so bit-identical corpus rows can score 1 ulp apart.  The tie-break
    # keys on vector identity instead: group the rows by their bytes,
    # and per group keep its first (= smallest-id) member and its first
    # member of a language other than that one's.
    rows = np.ascontiguousarray(c_mat)
    rows = rows.view(np.dtype((np.void, rows.dtype.itemsize
                               * rows.shape[1]))).ravel()
    _, g_first, c_grp = np.unique(rows, return_index=True,
                                  return_inverse=True)
    other = np.flatnonzero(c_codes != c_codes[g_first[c_grp]])
    g_alt = np.full(len(g_first), -1, dtype=np.int64)
    ag, ai = np.unique(c_grp[other], return_index=True)
    g_alt[ag] = other[ai]
    bc = ray.put((c_ids, c_mat, c_codes.astype(np.int32), c_langs,
                  c_grp, g_first, g_alt))

    def stage(batch: pa.Table, bc=bc) -> pa.Table:
        from ..state.bcast import cached_get

        c_ids, c_mat, c_codes, c_langs, c_grp, g_first, g_alt = \
            cached_get(bc)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        emb = normalized_matrix(batch["embedding"])
        # this batch's language codes come from the broadcast corpus side
        p = np.searchsorted(c_ids, ids)
        pc_ = np.clip(p, 0, max(0, len(c_ids) - 1))
        inc = (p < len(c_ids)) & (c_ids[pc_] == ids) if len(c_ids) \
            else np.zeros(len(ids), dtype=bool)
        ids, emb, pc_ = ids[inc], emb[inc], pc_[inc]
        if len(ids) == 0 or len(c_ids) == 0:
            return pa.table({
                "vec_id": pa.array([], type=pa.int64()),
                "lang": pa.array([], type=pa.string()),
                "nn_id": pa.array([], type=pa.int64()),
                "nn_lang": pa.array([], type=pa.string()),
            })
        my_codes = c_codes[pc_]
        sims = emb @ c_mat.T                       # (B, N)
        bad = my_codes[:, None] == c_codes[None, :]
        sims = np.where(bad, sims.dtype.type(-np.inf), sims)
        ok = ~np.all(np.isneginf(sims), axis=1)    # single-lang corpus
        ids, sims, pc_ = ids[ok], sims[ok], pc_[ok]
        nn = np.argmax(sims, axis=1)
        # the winner's exact-duplicate group -> its smallest-id member of
        # another language than the query's (O(B), no second matmul)
        g = c_grp[nn]
        nn = np.where(c_codes[g_first[g]] != c_codes[pc_], g_first[g],
                      g_alt[g])
        return pa.table({
            "vec_id": pa.array(ids, type=pa.int64()),
            "lang": pa.array(c_langs[pc_], type=pa.string()),
            "nn_id": pa.array(c_ids[nn], type=pa.int64()),
            "nn_lang": pa.array(c_langs[nn], type=pa.string()),
        })

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ds.map_batches(stage, batch_format="pyarrow", batch_size=None)


def _blob_matrix(col, dim: int) -> np.ndarray:
    """(N, dim) float32 matrix from a binary column of packed f32 rows —
    buffer-level decode (no per-row Python) for both fixed-size-binary
    (pre-shuffle) and variable binary (what a pandas round-trip re-infers)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, dim), dtype=np.float32)
    if pa.types.is_fixed_size_binary(col.type):
        a = np.frombuffer(col.buffers()[1], dtype=np.float32)
        off = col.offset * dim
        return a[off:off + n * dim].reshape(n, dim)
    off_dt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offs = np.frombuffer(col.buffers()[1], dtype=off_dt)[
        col.offset:col.offset + n + 1]
    assert np.all(np.diff(offs) == dim * 4), "ragged embedding blobs"
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    flat = data[int(offs[0]):int(offs[0]) + n * dim * 4]
    return np.frombuffer(flat.tobytes(), dtype=np.float32).reshape(n, dim)


def cross_lang_nn_bucketed(sf_dir: str, n_bands: int = 10,
                           band_bits: int = 4, max_bucket: int = 4096,
                           n_parts: int = 64):
    """Banded-LSH cross-language nearest neighbor — the SCALE PATH for
    cross_lang_nn: same (vec_id, lang, nn_id, nn_lang) contract, recall
    < 1 by design (pytest-bounded against the exact broadcast baseline),
    and — unlike the baseline — NO driver read of the corpus and NO
    corpus-sized broadcast object anywhere:

    1. lang attach: embeddings (as packed-f32 blob rows) co-partition
       hash-joined to documents(doc_id, lang) — both sides shuffle by
       id hash; NULL-lang docs drop on the build side (inner-join + lang
       <> lang parity with the baseline).
    2. band emission: each vector computes ``n_bands`` signatures of
       ``band_bits`` random-hyperplane bits (deterministic planes,
       recomputed per task from the dim — nothing broadcast) and emits
       one row per band keyed ``band * 2^band_bits + sig``; a
       similar pair collides in a band with prob ``q^band_bits``
       (q = 1 - theta/pi), so top-1 recall ~= 1 - (1 - q^bits)^bands.
    3. per-bucket exact top-1: groupby(bkey).map_groups masks same-lang
       + self, one (M, Mc) f32 matmul per bucket.  Buckets beyond
       ``max_bucket`` members deterministically stride-subsample the
       CORPUS side to Mc = max_bucket (documented recall cost; every
       query row is still served), bounding any bucket at M x max_bucket
       work — the same hot-bucket cap contract as EMB_LSH_MAX_BUCKET.
    4. per-vector merge: partials hash-co-partitioned on vec_id; best =
       (sim DESC, nn_id ASC), matching the baseline's tie rule.

    Scale knobs: ``band_bits`` sets bucket count per band (2^bits); at
    10^12 vectors raise it (~log2(N / target_bucket)) so expected bucket
    size stays ~target; shuffle volume = n_bands x (4*dim+16)-byte rows,
    constant per vector.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.vecs import embedding_dim
    from .join import copartition_hash_join

    dim = embedding_dim(f"{sf_dir}/embeddings.parquet")
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def to_blob(batch: pa.Table) -> pa.Table:
        m = normalized_matrix(batch["embedding"]).astype(np.float32)
        blob = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(4 * dim), len(m),
            [None, pa.py_buffer(np.ascontiguousarray(m).tobytes())])
        return pa.table({"vec_id": pc.cast(batch["vec_id"], pa.int64()),
                         "emb": blob})

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"]) \
        .map_batches(lambda b: b.filter(pc.is_valid(b["lang"])),
                     batch_format="pyarrow", batch_size=None)
    joined = copartition_hash_join(
        emb.map_batches(to_blob, batch_format="pyarrow", batch_size=None),
        docs, on="vec_id", right_on="doc_id", n_parts=n_parts)

    planes = None  # deterministic; built lazily per worker from dim

    def emit(batch: pa.Table) -> pa.Table:
        nonlocal planes
        ids = batch["vec_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(ids) == 0:
            return pa.table({"bkey": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "lang": pa.array([], type=pa.string()),
                             "emb": pa.array([], type=pa.binary())})
        m = _blob_matrix(batch["emb"], dim)
        if planes is None:
            planes = _lsh_planes(dim, n_bands * band_bits)
        bits = (m @ planes.T.astype(np.float32)) > 0   # (B, bands*bits)
        w = (1 << np.arange(band_bits, dtype=np.int64))
        sig = bits.reshape(len(ids), n_bands, band_bits) @ w  # (B, bands)
        bkey = (np.arange(n_bands, dtype=np.int64) << band_bits)[None, :] \
            + sig
        rep = np.repeat(np.arange(len(ids)), n_bands)
        return pa.table({
            "bkey": pa.array(bkey.reshape(-1)),
            "vec_id": pa.array(ids[rep]),
            "lang": batch["lang"].take(pa.array(rep)),
            "emb": batch["emb"].take(pa.array(rep)),
        })

    def bucket_nn(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "part": pa.array([], type=pa.int64()),
            "vec_id": pa.array([], type=pa.int64()),
            "lang": pa.array([], type=pa.string()),
            "nn_id": pa.array([], type=pa.int64()),
            "nn_lang": pa.array([], type=pa.string()),
            "sim": pa.array([], type=pa.float64()),
        })
        n = t.num_rows
        if n < 2:
            return empty
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)      # argmax's first-max -> smallest nn_id
        ids = ids[order]
        langs = np.asarray(t["lang"].to_pandas(), dtype=object)[order]
        m = _blob_matrix(t["emb"], dim)[order]
        _, codes = np.unique(langs.astype(str), return_inverse=True)
        cidx = np.arange(n)
        if n > max_bucket:           # hot-bucket cap: corpus-side stride
            cidx = np.unique(np.linspace(0, n - 1, max_bucket)
                             .astype(np.int64))
        sims = m @ m[cidx].T                               # (M, Mc) f32
        bad = codes[:, None] == codes[cidx][None, :]
        sims = np.where(bad, np.float32(-np.inf), sims)
        nn_local = np.argmax(sims, axis=1)
        best = sims[np.arange(n), nn_local]
        ok = np.isfinite(best)
        if not ok.any():
            return empty
        nn = cidx[nn_local[ok]]
        return pa.table({
            "part": pa.array(ids[ok] % n_parts),
            "vec_id": pa.array(ids[ok]),
            "lang": pa.array(langs[ok].astype(str), type=pa.string()),
            "nn_id": pa.array(ids[nn]),
            "nn_lang": pa.array(langs[nn].astype(str), type=pa.string()),
            "sim": pa.array(best[ok].astype(np.float64)),
        })

    partials = (joined.map_batches(emit, batch_format="pyarrow",
                                   batch_size=None)
                .groupby("bkey").map_groups(bucket_nn,
                                            batch_format="pyarrow"))

    def best_per_vec(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "vec_id": pd.Series(dtype=np.int64),
                "lang": pd.Series(dtype=object),
                "nn_id": pd.Series(dtype=np.int64),
                "nn_lang": pd.Series(dtype=object),
            })
        df = df.sort_values(["vec_id", "sim", "nn_id"],
                            ascending=[True, False, True]) \
            .drop_duplicates("vec_id")
        return df[["vec_id", "lang", "nn_id", "nn_lang"]]

    return partials.groupby("part").map_groups(best_per_vec,
                                               batch_format="pandas")


_DIM_SCALE = float(1 << 40)  # 2^40: f32 mantissa x 2^40 stays exact in f64


def emb_dim_stats(sf_dir: str):
    """Per-dimension moments of the embedding matrix — one row per
    vector dimension: (dim, n, sum_scaled, min_scaled, max_scaled,
    mean).  The feature-whitening statistics pass every embedding
    pipeline runs before normalization/PCA.

    Exactness: each float32 component is m x 2^e with a 24-bit mantissa,
    so CAST-to-f64 then x 2^40 is EXACT in f64; floor(x + 0.5) is the
    same half-up rule on both engines, giving an integer domain where
    the distributed sum is order-free.  Per-batch partials are one
    zero-copy flatten + reshape and three axis-0 reductions; the only
    exchange is a dim-cardinality groupby of hi/lo-split lanes (the sum
    of 2^40-scaled components can pass 2^63 at corpus scale).
    """
    import ray.data
    from ray.data.aggregate import Max, Min, Sum

    from ..functions.vecs import embedding_matrix
    from .text import round_half_away

    ds = read_table(sf_dir, "embeddings", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        mat = embedding_matrix(batch["embedding"], dtype=np.float64)
        if not mat.size:
            dim = mat.shape[1]
            z = np.zeros(0, dtype=np.int64)
            return pa.table({"dim": z, "sh": z, "sl": z, "pn": z,
                             "mn": z, "mx": z})
        s = np.floor(mat * _DIM_SCALE + 0.5).astype(np.int64)
        tot = s.sum(axis=0, dtype=np.int64)
        d = mat.shape[1]
        return pa.table({
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "sh": pa.array(tot // (1 << 31)),
            "sl": pa.array(tot % (1 << 31)),
            "pn": pa.array(np.full(d, mat.shape[0], dtype=np.int64)),
            "mn": pa.array(s.min(axis=0)),
            "mx": pa.array(s.max(axis=0)),
        })

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=None)
           .groupby("dim")
           .aggregate(Sum("sh"), Sum("sl"), Sum("pn", alias_name="n"),
                      Min("mn", alias_name="min_scaled"),
                      Max("mx", alias_name="max_scaled"))
           .take_all())  # dim-cardinality rows
    out.sort(key=lambda r: r["dim"])
    dims = [int(r["dim"]) for r in out]
    sums = [((int(r["sum(sh)"]) << 31) + int(r["sum(sl)"])) for r in out]
    ns = [int(r["n"]) for r in out]
    means = [float(round_half_away(
        np.float64(s) / np.float64(n) / np.float64(_DIM_SCALE), 9))
        for s, n in zip(sums, ns)]
    import ray.data as _rd
    return _rd.from_arrow(pa.table({
        "dim": pa.array(dims, type=pa.int64()),
        "n": pa.array(ns, type=pa.int64()),
        "sum_scaled": pa.array(sums, type=pa.int64()),
        "min_scaled": pa.array([int(r["min_scaled"]) for r in out],
                               type=pa.int64()),
        "max_scaled": pa.array([int(r["max_scaled"]) for r in out],
                               type=pa.int64()),
        "mean": pa.array(means, type=pa.float64()),
    }))


EMB_DIM_STATS_SQL = """
WITH u AS (
  SELECT unnest(range(len(embedding))) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE)
                    * 1099511627776.0 + 0.5) AS BIGINT) AS s
  FROM embeddings)
SELECT CAST(dim AS BIGINT) AS dim, count(*) AS n,
       CAST(sum(s) AS BIGINT) AS sum_scaled,
       min(s) AS min_scaled, max(s) AS max_scaled,
       round(CAST(sum(s) AS DOUBLE) / count(*) / 1099511627776.0, 9)
         AS mean
FROM u GROUP BY 1 ORDER BY 1"""


def dominant_dim_hist(sf_dir: str):
    """Histogram of each vector's argmax dimension — (dim, n_vectors),
    only non-empty dims.  A one-pass diagnostic for collapsed or
    axis-aligned embedding spaces (a healthy space spreads its maxima).

    Per-batch work is ONE argmax + ONE bincount over the zero-copy
    matrix; ties take the first occurrence on both engines (numpy argmax
    == DuckDB list_position's first match, comparing bit-identical f32
    values).  The only exchange is a dim-cardinality groupby.
    """
    import ray.data
    from ray.data.aggregate import Sum

    from ..functions.vecs import embedding_matrix

    ds = read_table(sf_dir, "embeddings", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        mat = embedding_matrix(batch["embedding"], dtype=np.float64)
        if not mat.size:
            z = np.zeros(0, dtype=np.int64)
            return pa.table({"dim": z, "pn": z})
        arg = mat.argmax(axis=1)
        d = mat.shape[1]
        cnt = np.bincount(arg, minlength=d).astype(np.int64)
        nz = cnt > 0
        return pa.table({
            "dim": pa.array(np.arange(d, dtype=np.int64)[nz]),
            "pn": pa.array(cnt[nz]),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
            .groupby("dim")
            .aggregate(Sum("pn", alias_name="n_vectors"))
            .sort("dim"))


DOMINANT_DIM_HIST_SQL = """
SELECT CAST(list_position(embedding, list_aggregate(embedding, 'max'))
            - 1 AS BIGINT) AS dim,
       count(*) AS n_vectors
FROM embeddings GROUP BY 1 ORDER BY 1"""


def lang_centroid_sim(sf_dir: str, n_parts: int = 64):
    """Cross-language embedding-centroid cosine matrix — one row per
    unordered language pair: (lang_a, lang_b, n_a, n_b, cosine).  The
    "are my language subspaces aligned?" diagnostic run before
    cross-lingual retrieval; cosine of the MEAN vectors equals cosine of
    the SUM vectors (the 1/n factors cancel), so no division ever
    touches the aggregate.

    Exactness: per-component sums ride the f32 x 2^40 exact integer
    domain (the emb_dim_stats convention) on hi/lo-split lanes through
    ONE (lang, dim)-cardinality groupby; lang attaches via the generic
    doc_id = vec_id co-partition join.  The driver reconstructs exact
    integer centroid sums for the handful of (lang, dim) cells, and the
    dot/norm folds run as ORDER-PINNED float64 accumulations over
    ascending dim — mirrored by the oracle's list_reduce over
    list(... ORDER BY dim) — so the IEEE addition sequence is identical
    and the rounded cosine is bit-equal.
    """
    import ray.data
    from ray.data.aggregate import Sum

    from ..functions.vecs import embedding_matrix
    from .join import copartition_hash_join
    from .text import round_half_away

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    embs = read_table(sf_dir, "embeddings",
                      columns=["vec_id", "embedding"])
    joined = copartition_hash_join(docs, embs, on="doc_id",
                                   right_on="vec_id", n_parts=n_parts)

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        if len(batch) == 0:
            z = np.zeros(0, dtype=np.int64)
            return pa.table({
                "lang": pa.array([], type=pa.string()),
                "dim": z, "sh": z, "sl": z, "pn": z})
        lang = np.asarray(batch["lang"].to_pandas(), dtype=object)
        mat = embedding_matrix(batch["embedding"], dtype=np.float64)
        s = np.floor(mat * _DIM_SCALE + 0.5).astype(np.int64)
        codes, uniques = pd.factorize(pd.Series(lang),
                                      use_na_sentinel=False)
        k = len(uniques)
        d = mat.shape[1]
        tot = np.zeros((k, d), dtype=np.int64)
        np.add.at(tot, codes, s)          # k x d, exact int64
        cnt = np.bincount(codes, minlength=k).astype(np.int64)
        flat = tot.reshape(-1)
        return pa.table({
            "lang": pa.array(np.repeat([str(u) for u in uniques], d)
                             .tolist(), type=pa.string()),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), k)),
            "sh": pa.array(flat // np.int64(1 << 31)),
            "sl": pa.array(flat % np.int64(1 << 31)),
            "pn": pa.array(np.repeat(cnt, d)),
        })

    m = (joined.map_batches(partial, batch_format="pyarrow",
                            batch_size=None)
         .groupby(["lang", "dim"])
         .aggregate(Sum("sh", alias_name="sh"),
                    Sum("sl", alias_name="sl"),
                    Sum("pn", alias_name="pn"))).to_pandas()

    vecs, counts = {}, {}
    for lang, grp in m.groupby("lang", sort=True):
        grp = grp.sort_values("dim")
        vecs[lang] = [int(h) * 2**31 + int(lo) for h, lo
                      in zip(grp["sh"].to_numpy(), grp["sl"].to_numpy())]
        counts[lang] = int(grp["pn"].iloc[0])

    langs = sorted(vecs)
    rows = {"lang_a": [], "lang_b": [], "n_a": [], "n_b": [],
            "cosine": []}

    def _fold_dot(a, b):
        acc = np.float64(0.0)
        for x, y in zip(a, b):           # ascending dim, order-pinned
            acc = acc + np.float64(float(x)) * np.float64(float(y))
        return acc

    for i, la in enumerate(langs):
        for lb in langs[i + 1:]:
            dot = _fold_dot(vecs[la], vecs[lb])
            na2 = _fold_dot(vecs[la], vecs[la])
            nb2 = _fold_dot(vecs[lb], vecs[lb])
            cos = (None if na2 <= 0.0 or nb2 <= 0.0 else
                   float(round_half_away(np.float64(
                       dot / np.sqrt(na2) / np.sqrt(nb2)))))
            rows["lang_a"].append(la)
            rows["lang_b"].append(lb)
            rows["n_a"].append(counts[la])
            rows["n_b"].append(counts[lb])
            rows["cosine"].append(cos)
    return ray.data.from_arrow(pa.table({
        "lang_a": pa.array(rows["lang_a"], type=pa.string()),
        "lang_b": pa.array(rows["lang_b"], type=pa.string()),
        "n_a": pa.array(rows["n_a"], type=pa.int64()),
        "n_b": pa.array(rows["n_b"], type=pa.int64()),
        "cosine": pa.array(rows["cosine"], type=pa.float64()),
    }))


LANG_CENTROID_SIM_SQL = """
WITH u AS (
  SELECT d.lang AS lang,
         unnest(range(len(e.embedding))) AS dim,
         CAST(floor(CAST(unnest(e.embedding) AS DOUBLE)
                    * 1099511627776.0 + 0.5) AS BIGINT) AS s
  FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id),
c AS (SELECT lang, CAST(dim AS BIGINT) AS dim,
             CAST(sum(s) AS BIGINT) AS cs FROM u GROUP BY 1, 2),
nn AS (SELECT d.lang AS lang, CAST(count(*) AS BIGINT) AS n
       FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id
       GROUP BY 1),
v AS (SELECT lang, list(CAST(cs AS DOUBLE) ORDER BY dim) AS vec
      FROM c GROUP BY lang),
p AS (SELECT a.lang AS lang_a, b.lang AS lang_b, a.vec AS va, b.vec AS vb
      FROM v a JOIN v b ON a.lang < b.lang),
f AS (SELECT lang_a, lang_b,
  list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
    list_transform(range(1, len(va) + 1), i -> va[i] * vb[i])),
    (x, y) -> x + y) AS dot,
  list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
    list_transform(range(1, len(va) + 1), i -> va[i] * va[i])),
    (x, y) -> x + y) AS na2,
  list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
    list_transform(range(1, len(vb) + 1), i -> vb[i] * vb[i])),
    (x, y) -> x + y) AS nb2
  FROM p)
SELECT f.lang_a, f.lang_b, na.n AS n_a, nb.n AS n_b,
       CASE WHEN f.na2 <= 0.0 OR f.nb2 <= 0.0 THEN NULL ELSE
         round(f.dot / sqrt(f.na2) / sqrt(f.nb2), 6) END AS cosine
FROM f JOIN nn na ON na.lang = f.lang_a
JOIN nn nb ON nb.lang = f.lang_b
ORDER BY 1, 2"""


def silhouette_hist(sf_dir: str):
    """Simplified-silhouette histogram per label: for every embedding,
    a = distance to its OWN label centroid, b = distance to the nearest
    OTHER centroid, s = (b - a) / max(a, b); output counts per (label,
    floor(s * 10)) bucket — (label, s_bucket, n_vecs).  The linear-time
    clustering-quality diagnostic (full silhouette is quadratic); mass
    at negative buckets marks mislabeled or boundary vectors.

    Exactness: centroid component sums ride the f32 x 2^40 exact
    integer domain on hi/lo lanes through ONE (label, dim)-cardinality
    groupby; the driver reconstructs each centroid with the mirrored
    double chain CAST(S)/n/2^40 and broadcasts the (K, d) matrix; the
    per-vector distance folds run ascending dim as SEQUENTIAL float64
    adds (numpy column loop == the oracle's list_reduce ORDER BY dim),
    min/max/sqrt/floor are all order-free IEEE ops, and only (label,
    bucket) cell counts leave each batch.  Requires >= 2 labels
    (asserted) so the nearest-other minimum is defined.
    """
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from ..functions.vecs import embedding_matrix
    from ..state.bcast import cached_get

    ds = read_table(sf_dir, "embeddings", columns=["label", "embedding"])

    def cent_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        lab = batch["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = embedding_matrix(batch["embedding"], dtype=np.float64)
        if not mat.size:
            z = np.zeros(0, dtype=np.int64)
            return pa.table({"label": z, "dim": z, "sh": z, "sl": z,
                             "pn": z})
        s = np.floor(mat * _DIM_SCALE + 0.5).astype(np.int64)
        codes, uniques = pd.factorize(pd.Series(lab))
        k, d = len(uniques), mat.shape[1]
        tot = np.zeros((k, d), dtype=np.int64)
        np.add.at(tot, codes, s)
        cnt = np.bincount(codes, minlength=k).astype(np.int64)
        lab_r = np.repeat(uniques.to_numpy().astype(np.int64), d)
        dim_r = np.tile(np.arange(d, dtype=np.int64), k)
        flat = tot.ravel()
        return pa.table({
            "label": pa.array(lab_r), "dim": pa.array(dim_r),
            "sh": pa.array(flat // (1 << 31)),
            "sl": pa.array(flat % (1 << 31)),
            "pn": pa.array(np.repeat(cnt, d)),
        })

    cs = (ds.map_batches(cent_partial, batch_format="pyarrow",
                         batch_size=None)
          .groupby(["label", "dim"])
          .aggregate(Sum("sh"), Sum("sl"))).to_pandas() \
        .sort_values(["label", "dim"], ignore_index=True)
    def n_partial(b: pa.Table) -> pa.Table:
        u, cnt = np.unique(b["label"].to_numpy(zero_copy_only=False)
                           .astype(np.int64), return_counts=True)
        return pa.table({"label": pa.array(u),
                         "pn": pa.array(cnt.astype(np.int64))})

    ncnt = (ds.map_batches(n_partial, batch_format="pyarrow",
                           batch_size=None)
            .groupby("label").aggregate(Sum("pn", alias_name="n"))) \
        .to_pandas().sort_values("label", ignore_index=True)
    labels = ncnt["label"].to_numpy().astype(np.int64)
    K = len(labels)
    assert K >= 2, "silhouette needs >= 2 labels"
    d = int(cs["dim"].max()) + 1
    nmap = dict(zip(labels.tolist(), ncnt["n"].astype(int).tolist()))
    C = np.zeros((K, d), dtype=np.float64)
    li = {int(l): i for i, l in enumerate(labels)}
    for _, row in cs.iterrows():
        S = (int(row["sum(sh)"]) << 31) + int(row["sum(sl)"])
        C[li[int(row["label"])], int(row["dim"])] = (
            np.float64(S) / np.float64(nmap[int(row["label"])])
            / np.float64(_DIM_SCALE))
    bc = ray.put((labels, C))

    def bucket_partial(batch: pa.Table) -> pa.Table:
        labs, cents = cached_get(bc)
        lab = batch["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = embedding_matrix(batch["embedding"], dtype=np.float64)
        rows = mat.shape[0]
        if not rows:
            z = np.zeros(0, dtype=np.int64)
            return pa.table({"label": z, "s_bucket": z, "pn": z})
        kk, dd = cents.shape
        dist = np.empty((rows, kk), dtype=np.float64)
        for k_ in range(kk):
            acc = np.zeros(rows, dtype=np.float64)
            for i in range(dd):       # ascending dim, sequential adds
                t = mat[:, i] - cents[k_, i]
                acc = acc + t * t
            dist[:, k_] = np.sqrt(acc)
        own = np.searchsorted(labs, lab)
        a = dist[np.arange(rows), own]
        masked = dist.copy()
        masked[np.arange(rows), own] = np.inf
        b = masked.min(axis=1)
        g = np.maximum(a, b)
        s = np.where(g > 0.0, (b - a) / np.where(g > 0.0, g, 1.0), 0.0)
        bucket = np.floor(s * 10.0).astype(np.int64)
        key = (lab.astype(np.int64) + np.int64(1 << 20)) \
            * np.int64(64) + (bucket + 32)
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "label": pa.array((uk // 64) - (1 << 20)),
            "s_bucket": pa.array(uk % 64 - 32),
            "pn": pa.array(cnt.astype(np.int64)),
        })

    return (ds.map_batches(bucket_partial, batch_format="pyarrow",
                           batch_size=None)
            .groupby(["label", "s_bucket"])
            .aggregate(Sum("pn", alias_name="n_vecs"))
            .sort(["label", "s_bucket"]))


SILHOUETTE_HIST_SQL = """
WITH u AS (SELECT vec_id, label,
                  CAST(unnest(range(len(embedding))) AS BIGINT) AS dim,
                  CAST(unnest(embedding) AS DOUBLE) AS x
           FROM embeddings),
cs AS (SELECT label, dim,
              sum(CAST(floor(x * 1099511627776.0 + 0.5) AS BIGINT)) AS s
       FROM u GROUP BY 1, 2),
nn AS (SELECT label, CAST(count(*) AS BIGINT) AS n
       FROM embeddings GROUP BY 1),
cent AS (SELECT cs.label, cs.dim,
                CAST(cs.s AS DOUBLE) / CAST(nn.n AS DOUBLE)
                  / 1099511627776.0 AS c
         FROM cs JOIN nn USING (label)),
d2 AS (SELECT u.vec_id, cent.label AS k,
              list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                list((u.x - cent.c) * (u.x - cent.c) ORDER BY u.dim)),
                (a, b) -> a + b) AS dist2
       FROM u JOIN cent ON cent.dim = u.dim
       GROUP BY u.vec_id, cent.label),
ab AS (SELECT d2.vec_id, e.label AS own,
              sqrt(max(CASE WHEN d2.k = e.label THEN d2.dist2 END)) AS a,
              sqrt(min(CASE WHEN d2.k <> e.label THEN d2.dist2 END)) AS b
       FROM d2 JOIN embeddings e USING (vec_id) GROUP BY 1, 2),
sb AS (SELECT own AS label,
              CASE WHEN greatest(a, b) <= 0.0 THEN CAST(0 AS BIGINT)
                   ELSE CAST(floor((b - a) / greatest(a, b) * 10.0)
                             AS BIGINT) END AS s_bucket
       FROM ab)
SELECT CAST(label AS BIGINT) AS label, s_bucket,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM sb GROUP BY 1, 2 ORDER BY 1, 2"""
