"""Driver contract: entry() smoke, queries() vs oracle_sql() parity.

Ray is initialised by the driver BEFORE this module is imported; nothing here
(or in etl_ray) calls ray.init()/ray.shutdown().

The cdc_* queries run the FULL engine end-to-end (changelog derived
deterministically from the events table → validate → storage exchange →
apply → manifest commit → merge-on-read), and the SQL oracle recomputes the
final lake state with an ANSI window query — so the driver's value-hash
check covers LWW upserts, deletes, exactly-once resume, salting, compaction,
schema evolution, retraction and correction rules, not just per-batch
transforms. EVERY query has a DuckDB oracle: the sketch family
(minhash/simhash/LSH/jaccard/IVF) is reproduced in HUGEINT SQL because the
engine's hashing is deliberately portable (md5 word hashes + a sub-2^62
fold multiplier; see the _sql_* builders below and
etl_ray/ops/dedup.py's module docstring).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"

# DuckDB reproduction of etl_ray.ops.dedup/etl_ray.functions.text constants
_STOP_PAT = r"\b(?:the|a|and|of|to)\b"
_BPE_PAT = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"
_EMB_THRESHOLD = 0.4
_DECODER_SALT = "etl-ray-fake-decoder"

# ---- sketch-family SQL builders -------------------------------------------
# The engine's hashing is deliberately portable (md5 word hashes + a uint64
# polynomial fold with multiplier < 2^62, minhash permutations mod 2^61-1) so
# DuckDB can recompute the ENTIRE LSH machinery — signatures, banding,
# bucketing, candidate pairs, exact verification — value-for-value in
# HUGEINT arithmetic. See etl_ray/ops/dedup.py module docstring.
_FOLD_C = 0x2545F4914F6CDD1D  # == etl_ray.ops.dedup._SHINGLE_C
_MERSENNE61 = (1 << 61) - 1
_MOD64 = 1 << 64
_NORM_SQL = "trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))"


def _md5le64_sql(col: str) -> str:
    """uint64 little-endian of md5(col)'s first 8 bytes (== dedup.md5le64)."""
    terms = " + ".join(
        f"CAST(('0x'||substr(md5({col}),{2 * i + 1},2)) AS UBIGINT)*{256 ** i}"
        for i in range(8))
    return "(" + terms + ")"


def _fold_sql(x: str, y: str) -> str:
    """One uint64 polynomial-fold step in HUGEINT: (x*C + y) mod 2^64."""
    return f"((({x}) * {_FOLD_C} + ({y})) % {_MOD64})"


def _minhash_perm_values() -> str:
    """The MinHasher(seed=97) permutation coefficients as VALUES literals."""
    import numpy as np

    rng = np.random.default_rng(97)
    a = rng.integers(1, _MERSENNE61, 64, dtype=np.int64)
    b = rng.integers(0, _MERSENNE61, 64, dtype=np.int64)
    return ", ".join(f"({i}, {int(a[i])}, {int(b[i])})" for i in range(64))


def _minhash_cte(source: str = "documents") -> str:
    """Shared CTE chain: docs → word hashes → 3-gram shingle folds →
    minhash signatures → band keys → candidate pairs."""
    f = _fold_sql
    band_fold = f(f(f(f("CAST(0 AS HUGEINT)",
                        "max(CASE WHEN r=0 THEN m END)"),
                     "max(CASE WHEN r=1 THEN m END)"),
                   "max(CASE WHEN r=2 THEN m END)"),
                 "max(CASE WHEN r=3 THEN m END)")
    return f"""
perms(perm, a, b) AS (VALUES {_minhash_perm_values()}),
docs AS (SELECT doc_id, {_NORM_SQL} AS norm FROM {source}),
warr AS (
  SELECT doc_id, CASE WHEN norm = '' THEN CAST([] AS VARCHAR[])
                      ELSE string_split(norm, ' ') END AS ws
  FROM docs
),
wexp AS (
  SELECT doc_id, generate_subscripts(ws, 1) AS i, unnest(ws) AS w,
         len(ws) AS nw
  FROM warr
),
words AS (SELECT doc_id, i, {_md5le64_sql('w')} AS h, nw FROM wexp),
sh AS (
  SELECT w1.doc_id,
         CAST({f(f('CAST(w1.h AS HUGEINT)', 'w2.h'), 'w3.h')} AS HUGEINT) AS s
  FROM words w1
  JOIN words w2 ON w2.doc_id = w1.doc_id AND w2.i = w1.i + 1
  JOIN words w3 ON w3.doc_id = w1.doc_id AND w3.i = w1.i + 2
  UNION ALL
  SELECT w1.doc_id,
         CAST(CASE WHEN w1.nw = 1 THEN CAST(w1.h AS HUGEINT)
              ELSE {f('CAST(w1.h AS HUGEINT)', 'w2.h')} END AS HUGEINT) AS s
  FROM words w1
  LEFT JOIN words w2 ON w2.doc_id = w1.doc_id AND w2.i = 2
  WHERE w1.nw < 3 AND w1.i = 1
),
mh0 AS (
  -- the engine's MinHasher runs (a*s + b) in numpy uint64, i.e. the
  -- product WRAPS mod 2^64 before the Mersenne reduction — a deliberate
  -- single-word hash family; reproduce the wrap for bit-equality
  SELECT doc_id, p.perm,
         min(((p.a * (s % {_MERSENNE61}) + p.b)
              % 18446744073709551616) % {_MERSENNE61}) AS m
  FROM sh, perms p GROUP BY doc_id, p.perm
),
mh AS (
  SELECT * FROM mh0
  UNION ALL
  SELECT d.doc_id, p.perm, CAST(0 AS HUGEINT) AS m
  FROM docs d, perms p
  WHERE d.doc_id NOT IN (SELECT doc_id FROM mh0)
),
bandrows AS (SELECT doc_id, perm // 4 AS band, perm % 4 AS r, m FROM mh),
bandkey AS (
  SELECT doc_id, band, {band_fold} AS key
  FROM bandrows GROUP BY doc_id, band
),
cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
  FROM bandkey a JOIN bandkey b
    ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id
)"""


def _sql_dedup_minhash() -> str:
    return f"WITH {_minhash_cte()} SELECT id_a, id_b FROM cand ORDER BY 1, 2"


def _sql_cdc_dedup_incremental() -> str:
    """Signatures over the CLOSED-FORM final state of the docs changelog
    (analogs.docs_to_changelog: delete doc_id%7==0, update doc_id%5==0 to
    the next doc's text) — what the incrementally-maintained index must
    equal after refresh."""
    return f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
final AS (
  SELECT CAST(d.doc_id AS VARCHAR) AS doc_id,
         CASE WHEN d.doc_id % 5 = 0 THEN u.text ELSE d.text END AS text
  FROM documents d
  CROSS JOIN nn
  LEFT JOIN documents u ON u.doc_id = (d.doc_id + 1) % nn.n
  WHERE d.doc_id % 7 <> 0
),
{_minhash_cte('final')}
SELECT doc_id, CAST(perm AS INT) AS perm, CAST(m AS BIGINT) AS m
FROM mh ORDER BY doc_id, perm
"""


def _scored_pairs_ctes(threshold: float = 0.3,
                       source: str = "documents") -> str:
    """CTE chain: minhash candidates → exact n-gram Jaccard score →
    ``vpairs`` (verified pairs at ``threshold``). Shared by the
    ngram-jaccard and dup-cluster oracles."""
    return f"""{_minhash_cte(source)},
shd AS (SELECT DISTINCT doc_id, s FROM sh),
sizes AS (SELECT doc_id, count(*) AS c FROM shd GROUP BY doc_id),
inter AS (
  SELECT p.id_a, p.id_b, count(*) AS i
  FROM cand p
  JOIN shd x ON x.doc_id = p.id_a
  JOIN shd y ON y.doc_id = p.id_b AND y.s = x.s
  GROUP BY p.id_a, p.id_b
),
scored AS (
  SELECT v.id_a, v.id_b,
         round(CAST(v.i AS DOUBLE) / (sa.c + sb.c - v.i), 4) AS jaccard
  FROM inter v
  JOIN sizes sa ON sa.doc_id = v.id_a
  JOIN sizes sb ON sb.doc_id = v.id_b
  UNION ALL
  SELECT p.id_a, p.id_b, 1.0 AS jaccard
  FROM cand p
  WHERE p.id_a NOT IN (SELECT doc_id FROM sizes)
    AND p.id_b NOT IN (SELECT doc_id FROM sizes)
),
vpairs AS (SELECT id_a, id_b, jaccard FROM scored WHERE jaccard >= {threshold})"""


def _sql_dedup_ngram_jaccard(threshold: float = 0.3) -> str:
    return f"""
WITH {_scored_pairs_ctes(threshold)}
SELECT id_a, id_b, jaccard FROM vpairs ORDER BY id_a, id_b
"""


def _sql_term_stats_cte(terms) -> str:
    """Per-doc (dl, tf_j) stats over whitespace tokens — mirrors
    etl_ray/ops/retrieval._term_stats."""
    tf_cols = ",\n         ".join(
        "len(list_filter(regexp_split_to_array(trim(coalesce(text, '')), "
        f"'\\s+'), x -> x = '{t}')) AS tf_{j}"
        for j, t in enumerate(terms))
    return f"""stats AS (
  SELECT doc_id,
         CASE WHEN trim(coalesce(text, '')) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS dl,
         {tf_cols}
  FROM documents
)"""


def _sql_doc_frequencies() -> str:
    return r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(coalesce(text, '')),
                                              '\s+')) AS token
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
u AS (SELECT DISTINCT doc_id, token FROM toks WHERE token <> '')
SELECT token, count(*) AS df FROM u GROUP BY token ORDER BY token
"""


def _sql_bm25_scores(terms, k1: float = 1.2, b: float = 0.75) -> str:
    dfs = ",\n         ".join(
        f"sum(CASE WHEN tf_{j} > 0 THEN 1 ELSE 0 END) AS df_{j}"
        for j in range(len(terms)))
    # literal-for-literal the engine's float expression order: idf uses the
    # Lucene +1 floor; norm = k1*(1-b+b*dl/avgdl); terms summed left-to-right
    parts = " + ".join(
        f"(ln(1.0::DOUBLE + (g.n - g.df_{j} + 0.5::DOUBLE)"
        f" / (g.df_{j} + 0.5::DOUBLE))"
        f" * s.tf_{j} * ({k1}::DOUBLE + 1.0::DOUBLE)"
        f" / (s.tf_{j} + {k1}::DOUBLE * (1.0::DOUBLE - {b}::DOUBLE"
        f" + {b}::DOUBLE * s.dl / g.avgdl)))"
        for j in range(len(terms)))
    return f"""
WITH {_sql_term_stats_cte(terms)},
g AS (
  SELECT count(*) AS n,
         CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl,
         {dfs}
  FROM stats
),
scored AS (SELECT s.doc_id, {parts} AS score FROM stats s, g)
SELECT doc_id, round(score, 6) AS score FROM scored
WHERE score > 0 ORDER BY doc_id
"""


def _sql_tfidf_weights(terms) -> str:
    dfs = ",\n         ".join(
        f"sum(CASE WHEN tf_{j} > 0 THEN 1 ELSE 0 END) AS df_{j}"
        for j in range(len(terms)))
    arms = "\n  UNION ALL\n".join(
        f"  SELECT s.doc_id, '{t}' AS term,"
        f" CAST(s.tf_{j} AS DOUBLE) * ln((1.0::DOUBLE + g.n)"
        f" / (1.0::DOUBLE + g.df_{j})) AS weight"
        f" FROM stats s, g WHERE s.tf_{j} > 0"
        for j, t in enumerate(terms))
    return f"""
WITH {_sql_term_stats_cte(terms)},
g AS (SELECT count(*) AS n, {dfs} FROM stats),
u AS (
{arms}
)
SELECT doc_id, term, round(weight, 6) AS weight FROM u
ORDER BY doc_id, term
"""


def _sql_dedup_clusters(threshold: float = 0.3,
                       source: str = "documents") -> str:
    """Connected components over the verified near-dup pairs: DuckDB
    recursive transitive closure over the symmetric edge set; component
    id = min doc_id reachable (matches the engine's hash-to-min)."""
    return f"""
WITH RECURSIVE {_scored_pairs_ctes(threshold, source)},
edges AS (SELECT id_a AS a, id_b AS b FROM vpairs
          UNION SELECT id_b, id_a FROM vpairs),
reach(node, lab) AS (
  SELECT a, a FROM edges
  UNION
  SELECT e.a, r.lab FROM edges e JOIN reach r ON r.node = e.b
),
comp AS (SELECT node, min(lab) AS component FROM reach GROUP BY node)
SELECT node AS doc_id, component, (node = component) AS keep
FROM comp ORDER BY doc_id
"""


def _sql_dup_clusters_quality(threshold: float = 0.3) -> str:
    """Quality-canonical cluster selection: winner = max n_words, ties
    broken by min doc_id — mirrors components.dup_clusters_by_quality."""
    return f"""
WITH RECURSIVE {_scored_pairs_ctes(threshold)},
edges AS (SELECT id_a AS a, id_b AS b FROM vpairs
          UNION SELECT id_b, id_a FROM vpairs),
reach(node, lab) AS (
  SELECT a, a FROM edges
  UNION
  SELECT e.a, r.lab FROM edges e JOIN reach r ON r.node = e.b
),
comp AS (SELECT node, min(lab) AS component FROM reach GROUP BY node),
q AS (
  SELECT doc_id,
         CASE WHEN trim(coalesce(text, '')) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+'))
         END AS n_words
  FROM documents
),
lab AS (SELECT c.node AS doc_id, c.component, q.n_words
        FROM comp c JOIN q ON q.doc_id = c.node),
best AS (SELECT component, max(n_words) AS bq FROM lab GROUP BY 1),
win AS (SELECT l.component, min(l.doc_id) AS w
        FROM lab l JOIN best b
          ON b.component = l.component AND l.n_words = b.bq
        GROUP BY 1)
SELECT l.doc_id, l.component, (l.doc_id = w.w) AS keep
FROM lab l JOIN win w ON w.component = l.component
ORDER BY l.doc_id
"""


def _sql_dedup_simhash(max_hamming: int = 10) -> str:
    return f"""
WITH docs AS (SELECT doc_id, {_NORM_SQL} AS norm FROM documents),
words AS (
  SELECT doc_id, w FROM docs, unnest(string_split(norm, ' ')) AS t(w)
  WHERE w <> ''
),
wh AS (SELECT doc_id, {_md5le64_sql('w')} AS h FROM words),
votes AS (
  SELECT doc_id, k,
         sum(CASE WHEN ((h >> k) & 1) = 1 THEN 1 ELSE -1 END) AS v
  FROM wh, generate_series(0, 63) AS g(k)
  GROUP BY doc_id, k
),
sims0 AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN v > 0 THEN CAST(power(2.0, k) AS HUGEINT)
                  ELSE 0 END) AS UBIGINT) AS h
  FROM votes GROUP BY doc_id
),
sims AS (
  SELECT d.doc_id, COALESCE(s.h, 0) AS h
  FROM docs d LEFT JOIN sims0 s ON d.doc_id = s.doc_id
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.h, b.h)) AS BIGINT) AS hamming
FROM sims a JOIN sims b ON a.doc_id < b.doc_id
WHERE (((a.h >> 0) & 65535) = ((b.h >> 0) & 65535)
    OR ((a.h >> 16) & 65535) = ((b.h >> 16) & 65535)
    OR ((a.h >> 32) & 65535) = ((b.h >> 32) & 65535)
    OR ((a.h >> 48) & 65535) = ((b.h >> 48) & 65535))
  AND bit_count(xor(a.h, b.h)) <= {max_hamming}
ORDER BY id_a, id_b
"""


def _sql_ann_ivf(nlist: int = 8, nprobe: int = 3, k: int = 10,
                 seed: int = 11) -> str:
    """ivf_centroids(seed) embedded as DOUBLE[] literals; cell assignment
    and probing reproduce the engine's argmax/argsort tie-breaks (lowest
    centroid id wins)."""
    from etl_ray.ops.similarity import ivf_centroids

    C = ivf_centroids(64, nlist, seed)
    cent_rows = ", ".join(
        "(" + str(i) + ", CAST(["
        + ",".join(repr(float(v)) for v in C[i]) + "] AS DOUBLE[]))"
        for i in range(nlist))
    return f"""
WITH cent(cid, c) AS (VALUES {cent_rows}),
q AS (SELECT vec_id AS query_id, embedding FROM embeddings
      WHERE vec_id < 4),
s AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id >= 4),
sa AS (
  SELECT vec_id, embedding, cid FROM (
    SELECT s.vec_id, s.embedding, c.cid,
           row_number() OVER (PARTITION BY s.vec_id ORDER BY
             list_cosine_similarity(CAST(s.embedding AS DOUBLE[]), c.c)
               DESC, c.cid) AS rn
    FROM s, cent c) WHERE rn = 1
),
qp AS (
  SELECT query_id, cid FROM (
    SELECT q.query_id, c.cid,
           row_number() OVER (PARTITION BY q.query_id ORDER BY
             list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), c.c)
               DESC, c.cid) AS rn
    FROM q, cent c) WHERE rn <= {nprobe}
),
scored AS (
  SELECT q.query_id, sa.vec_id,
         list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                CAST(sa.embedding AS DOUBLE[])) AS cos
  FROM q JOIN qp ON qp.query_id = q.query_id
  JOIN sa ON sa.cid = qp.cid
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY cos DESC, vec_id) AS rank
  FROM scored
)
SELECT query_id, vec_id, round(cos, 4) AS score, rank
FROM ranked WHERE rank <= {k} ORDER BY query_id, rank
"""


def _sql_kmeans(k: int = 8, dim: int = 64, iters: int = 2,
                seed: int = 11) -> str:
    """Replays the engine's Lloyd iterations in SQL: seeded init centroids
    as DOUBLE[] literals, per-iteration nearest-centroid assignment
    (row_number over list_distance, lowest cid on ties — the engine's
    np.argmin convention) and per-dim avg recompute via list indexing."""
    from etl_ray.ops.similarity import ivf_centroids

    C = ivf_centroids(dim, k, seed).astype(float)
    cent_rows = ", ".join(
        "(" + str(i) + ", CAST(["
        + ",".join(repr(float(v)) for v in C[i]) + "] AS DOUBLE[]))"
        for i in range(k))
    ctes = [f"cent0(cid, c) AS (VALUES {cent_rows})"]
    for it in range(iters):
        prev, nxt = f"cent{it}", f"cent{it + 1}"
        ctes.append(f"""a{it} AS (
  SELECT vec_id, embedding, cid FROM (
    SELECT e.vec_id, e.embedding, c.cid,
           row_number() OVER (PARTITION BY e.vec_id ORDER BY
             list_distance(CAST(e.embedding AS DOUBLE[]), c.c), c.cid) AS rn
    FROM embeddings e, {prev} c) WHERE rn = 1
)""")
        ctes.append(f"""{nxt}_avg AS (
  SELECT a.cid, t.i, avg(CAST(a.embedding[CAST(t.i AS INT)] AS DOUBLE)) AS m
  FROM a{it} a, range(1, {dim + 1}) t(i) GROUP BY a.cid, t.i
)""")
        ctes.append(f"""{nxt}_list AS (
  SELECT cid, list(m ORDER BY i) AS c FROM {nxt}_avg GROUP BY cid
)""")
        ctes.append(f"""{nxt} AS (
  SELECT p.cid, COALESCE(l.c, p.c) AS c
  FROM {prev} p LEFT JOIN {nxt}_list l ON l.cid = p.cid
)""")
    final = f"cent{iters}"
    joined = ",\n".join(ctes)
    return f"""
WITH {joined},
fin AS (
  SELECT vec_id, cid, d FROM (
    SELECT e.vec_id, c.cid,
           list_distance(CAST(e.embedding AS DOUBLE[]), c.c) AS d,
           row_number() OVER (PARTITION BY e.vec_id ORDER BY
             list_distance(CAST(e.embedding AS DOUBLE[]), c.c), c.cid) AS rn
    FROM embeddings e, {final} c) WHERE rn = 1
)
SELECT vec_id, cid AS cluster, round(d, 4) AS dist
FROM fin ORDER BY vec_id
"""


def _sql_value_histogram(lo: float = 0.0, hi: float = 400.0,
                         n_bins: int = 20) -> str:
    w = (hi - lo) / n_bins
    return f"""
WITH b AS (
  SELECT LEAST(GREATEST(CAST(floor((value - {lo}::DOUBLE) / {w}::DOUBLE)
                             AS BIGINT), 0), {n_bins - 1}) AS bin
  FROM events WHERE value IS NOT NULL
)
SELECT bin,
       CAST({lo}::DOUBLE + bin * {w}::DOUBLE AS DOUBLE) AS bin_lo,
       CAST({lo}::DOUBLE + (bin + 1) * {w}::DOUBLE AS DOUBLE) AS bin_hi,
       count(*) AS n
FROM b GROUP BY bin ORDER BY bin
"""


def _sql_value_quantiles(qs) -> str:
    arms = "\nUNION ALL\n".join(
        f"SELECT {q}::DOUBLE AS q, percentile_disc({q}::DOUBLE)"
        f" WITHIN GROUP (ORDER BY value) AS value FROM events"
        for q in qs)
    return f"{arms}\nORDER BY q"


_SQL_ANTI_JOIN = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderpriority = '1-URGENT')
ORDER BY c_custkey
"""

_SQL_SEMI_JOIN = """
SELECT p_partkey, p_name FROM part
WHERE p_partkey IN (SELECT l_partkey FROM lineitem)
ORDER BY p_partkey
"""


_SQL_TOKS_W = r"""
  SELECT regexp_split_to_array(trim(coalesce(text, '')), '\s+') AS w
  FROM documents WHERE trim(coalesce(text, '')) <> ''
"""


def _sql_token_bigrams(min_count: int) -> str:
    return f"""
WITH toks AS ({_SQL_TOKS_W}),
ex AS (
  SELECT w, unnest(generate_series(1, len(w) - 1)) AS i
  FROM toks WHERE len(w) >= 2
)
SELECT w[i] AS w1, w[i + 1] AS w2, count(*) AS n
FROM ex GROUP BY w1, w2 HAVING count(*) >= {min_count}
ORDER BY w1, w2
"""


def _sql_pmi_collocations(min_count: int) -> str:
    # arithmetic mirrors ops/ngrams.pmi_bigrams term-for-term so the
    # doubles are bit-equal before the shared round()
    return f"""
WITH toks AS ({_SQL_TOKS_W}),
uni AS (
  SELECT token, count(*) AS n
  FROM (SELECT unnest(w) AS token FROM toks) GROUP BY token
),
tt AS (SELECT CAST(sum(n) AS DOUBLE) AS t FROM uni),
pt AS (SELECT CAST(sum(len(w) - 1) AS DOUBLE) AS p FROM toks),
ex AS (
  SELECT w, unnest(generate_series(1, len(w) - 1)) AS i
  FROM toks WHERE len(w) >= 2
),
big AS (
  SELECT w[i] AS w1, w[i + 1] AS w2, count(*) AS n
  FROM ex GROUP BY w1, w2 HAVING count(*) >= {min_count}
)
SELECT b.w1, b.w2, b.n,
       round(ln((CAST(b.n AS DOUBLE) / pt.p) /
                ((CAST(u1.n AS DOUBLE) / tt.t) *
                 (CAST(u2.n AS DOUBLE) / tt.t))), 4) AS pmi
FROM big b
JOIN uni u1 ON b.w1 = u1.token
JOIN uni u2 ON b.w2 = u2.token, tt, pt
ORDER BY b.w1, b.w2
"""


_SQL_ZSCORE_EVENTS = """
WITH m AS (
  SELECT event_type, count(*) AS n,
         sum(CAST(round(value * 100) AS BIGINT)) AS s,
         sum(CAST(round(value * 100) AS BIGINT)
             * CAST(round(value * 100) AS BIGINT)) AS s2
  FROM events WHERE value IS NOT NULL GROUP BY event_type
)
SELECT e.event_id, e.event_type,
       round((round(e.value * 100) - CAST(m.s AS DOUBLE) / m.n)
             / sqrt(CAST(m.s2 AS DOUBLE) / m.n
                    - (CAST(m.s AS DOUBLE) / m.n)
                      * (CAST(m.s AS DOUBLE) / m.n)), 6) AS z
FROM events e JOIN m USING (event_type)
WHERE e.value IS NOT NULL
ORDER BY e.event_id
"""


def _sql_grouped_quantiles(qs) -> str:
    arms = "\nUNION ALL\n".join(
        f"SELECT event_type, {q}::DOUBLE AS q,"
        f" percentile_disc({q}::DOUBLE) WITHIN GROUP (ORDER BY value)"
        f" AS value FROM events GROUP BY event_type"
        for q in qs)
    return f"{arms}\nORDER BY event_type, q"


_SQL_ROLLUP_DOCS = """
SELECT source, lang, count(*) AS n,
       CAST(sum(n_chars) AS BIGINT) AS n_chars_sum
FROM documents GROUP BY ROLLUP (source, lang)
ORDER BY source NULLS LAST, lang NULLS LAST
"""


def _sql_pivot_events(values) -> str:
    arms = ",\n".join(
        f"""  CASE WHEN count(*) FILTER (WHERE event_type = '{v}') = 0
       THEN NULL
       ELSE (CAST(sum(CAST(round(value * 100) AS BIGINT))
                  FILTER (WHERE event_type = '{v}') AS DOUBLE) / 100.0)
            / count(*) FILTER (WHERE event_type = '{v}')
  END AS avg_{v}""" for v in values)
    return f"""
SELECT user_id,
{arms}
FROM events GROUP BY user_id ORDER BY user_id
"""


def _sql_weighted_sample(k: int) -> str:
    u = (f"({_md5le64_sql('CAST(event_id AS VARCHAR)')})"
         " / 18446744073709551616.0")
    return f"""
WITH s AS (
  SELECT event_id, value, {u} AS u
  FROM events WHERE value > 0
)
SELECT event_id, value, round(pow(u, 1.0 / value), 6) AS score
FROM s ORDER BY pow(u, 1.0 / value) DESC, event_id LIMIT {k}
"""


_SQL_LAG_DELTAS = """
SELECT event_id, user_id,
       (round(value * 100) - lag(round(value * 100)) OVER
        (PARTITION BY user_id ORDER BY ts, event_id)) / 100.0 AS delta
FROM events ORDER BY event_id
"""

_SQL_INTERSECT_USERS = """
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'
ORDER BY user_id
"""


def _sql_corpus_curation(lang: str = "en", min_words: int = 20,
                         threshold: float = 0.3,
                         max_dup_word_frac=None) -> str:
    """The full curation pipeline as one statement: language+length
    (+ optional Gopher dup-word-fraction gate) filter, then the near-dup
    pair chain over the FILTERED docs, then the recursive component
    closure, dropping non-canonical members."""
    rep_gate = "" if max_dup_word_frac is None else (
        f" AND 1.0 - len(list_distinct(regexp_split_to_array("
        f"trim(text), '\\s+'))) / n_words <= {max_dup_word_frac}")
    return f"""
WITH RECURSIVE
lc AS (SELECT doc_id, text, {_lang_count_cols()} FROM documents),
fd AS (
  SELECT doc_id, text, {_LANG_CASE} AS lang_pred,
         CASE WHEN trim(coalesce(text, '')) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+'))
         END AS n_words
  FROM lc
),
fdocs AS (SELECT doc_id, text FROM fd
          WHERE lang_pred = '{lang}' AND n_words >= {min_words}{rep_gate}),
{_scored_pairs_ctes(threshold, "fdocs")},
edges AS (SELECT id_a AS a, id_b AS b FROM vpairs
          UNION SELECT id_b, id_a FROM vpairs),
reach(node, lab) AS (
  SELECT a, a FROM edges
  UNION
  SELECT e.a, r.lab FROM edges e JOIN reach r ON r.node = e.b
),
drops AS (
  SELECT node FROM (SELECT node, min(lab) AS component
                    FROM reach GROUP BY node)
  WHERE node <> component
)
SELECT f.doc_id, f.lang_pred, f.n_words
FROM fd f
WHERE f.doc_id IN (SELECT doc_id FROM fdocs)
  AND f.doc_id NOT IN (SELECT node FROM drops)
ORDER BY f.doc_id
"""


def _sql_hll_registers(p: int = 8) -> str:
    """HLL register table: bucket = top p hash bits, rho = leading-zero
    count of the remainder + 1, exact integer math via length(bin(x))."""
    h = _md5le64_sql("CAST(user_id AS VARCHAR)")
    mask = (1 << (64 - p)) - 1
    return f"""
WITH hashes AS (SELECT {h} AS h FROM events),
parts AS (
  SELECT CAST(h >> {64 - p} AS BIGINT) AS bucket,
         h & {mask} AS rem
  FROM hashes
)
SELECT bucket,
       max({64 - p} - CASE WHEN rem = 0 THEN 0
                      ELSE length(bin(rem)) END + 1) AS rho
FROM parts GROUP BY bucket ORDER BY bucket
"""


def _sql_grouped_hll(p: int = 8) -> str:
    """Per-event-type HLL registers (cell-exact, like _sql_hll_registers)."""
    h = _md5le64_sql("CAST(user_id AS VARCHAR)")
    mask = (1 << (64 - p)) - 1
    return f"""
WITH hashes AS (SELECT event_type, {h} AS h FROM events),
parts AS (
  SELECT event_type, CAST(h >> {64 - p} AS BIGINT) AS bucket,
         h & {mask} AS rem
  FROM hashes
)
SELECT event_type, bucket,
       max({64 - p} - CASE WHEN rem = 0 THEN 0
                      ELSE length(bin(rem)) END + 1) AS rho
FROM parts GROUP BY event_type, bucket ORDER BY event_type, bucket
"""


def _sql_bloom_bits(m: int = 4096, k: int = 4) -> str:
    selects = []
    for i in range(k):
        h = _md5le64_sql(f"'{i}|' || CAST(user_id AS VARCHAR)")
        selects.append(
            f"SELECT CAST({h} % {m} AS BIGINT) AS bit FROM events")
    union = "\nUNION ALL\n".join(selects)
    return f"""
WITH bits AS ({union})
SELECT DISTINCT bit FROM bits ORDER BY bit
"""


def _sql_cms_counts(depth: int = 4, width: int = 64) -> str:
    selects = []
    for i in range(depth):
        h = _md5le64_sql(f"'{i}|' || event_type")
        selects.append(
            f"SELECT {i} AS row, CAST({h} % {width} AS BIGINT) AS bucket "
            f"FROM events")
    union = "\nUNION ALL\n".join(selects)
    return f"""
WITH cells AS ({union})
SELECT row, bucket, count(*) AS n
FROM cells GROUP BY row, bucket ORDER BY row, bucket
"""


def _lang_count_cols() -> str:
    from etl_ray.functions.text import LANG_PROFILES

    return ", ".join(
        f"len(regexp_extract_all(lower(text), "
        f"'\\b(?:{'|'.join(sorted(LANG_PROFILES[lang]))})\\b')) AS n_{lang}"
        for lang in LANG_PROFILES)


# argmax with first-wins tie-break in profile order (en, de, fr, es)
_LANG_CASE = """CASE
  WHEN n_en = 0 AND n_de = 0 AND n_fr = 0 AND n_es = 0 THEN 'unk'
  WHEN n_en >= n_de AND n_en >= n_fr AND n_en >= n_es THEN 'en'
  WHEN n_de >= n_fr AND n_de >= n_es THEN 'de'
  WHEN n_fr >= n_es THEN 'fr'
  ELSE 'es' END"""


def _sql_lang_id() -> str:
    return f"""
WITH c AS (SELECT doc_id, {_lang_count_cols()} FROM documents)
SELECT doc_id, {_LANG_CASE} AS lang_pred
FROM c ORDER BY doc_id
"""


def _sql_dedup_lsh_embedding(n_planes: int = 6, threshold: float = 0.4) -> str:
    """HyperplaneLSH(seed=7) planes as float32-rounded DOUBLE[] literals."""
    import numpy as np

    rng = np.random.default_rng(7)
    planes = rng.standard_normal((64, n_planes)).astype(np.float32).astype(
        np.float64)
    plane_lits = ", ".join(
        "CAST([" + ",".join(repr(float(v)) for v in planes[:, j])
        + "] AS DOUBLE[])" for j in range(n_planes))
    cols = ",".join(f"p{j}" for j in range(n_planes))
    bucket = " + ".join(
        f"(CASE WHEN list_dot_product(CAST(embedding AS DOUBLE[]), p{j}) > 0 "
        f"THEN {1 << j} ELSE 0 END)" for j in range(n_planes))
    return f"""
WITH b AS (
  SELECT vec_id, embedding, {bucket} AS bucket
  FROM embeddings, (SELECT * FROM (VALUES ({plane_lits})) t({cols}))
)
SELECT a.vec_id AS id_a, b2.vec_id AS id_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b2.embedding AS DOUBLE[])), 4)
         AS cosine
FROM b a JOIN b b2 ON a.bucket = b2.bucket AND a.vec_id < b2.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b2.embedding AS DOUBLE[])) >= {threshold}
ORDER BY 1, 2
"""

_CHANGELOG_CTE = """
WITH c AS (
  SELECT CAST(user_id AS VARCHAR) AS doc_id,
         event_id AS last_seq, value, event_type,
         CASE WHEN event_type = 'error' THEN 'delete' ELSE 'insert' END AS op
  FROM events
), r AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY last_seq DESC) rn
  FROM c
)
SELECT doc_id, last_seq, value, event_type
FROM r WHERE rn = 1 AND op <> 'delete'
ORDER BY doc_id
"""


# --------------------------------------------------------------- cdc queries
def _replay_events(sf_dir: str, *, tag: str, quarantine_over=None,
                   part_fn=None, num_partitions: int = 8,
                   with_props_from=None, salt_threshold=None,
                   segments_per_commit=None, crash_resume: bool = False,
                   do_compact: bool = False, corrections=()):
    from etl_ray.config import EngineConfig
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.compaction import compact
    from etl_ray.pipelines.replay import replay, replay_once

    wal, lake = A.fresh_dirs(tag)
    A.events_to_changelog(sf_dir, wal, with_props_from=with_props_from)
    kw = dict(
        num_partitions=num_partitions,
        payload=A.events_payload(quarantine_over),
        corrections=tuple(corrections),
    )
    if part_fn is not None:
        kw["part_fn"] = part_fn
    if salt_threshold is not None:
        kw["salt_threshold"] = salt_threshold
        kw["max_salt"] = 4
    cfg = EngineConfig(**kw)
    if crash_resume:
        replay_once(wal, lake, cfg, max_segments=1)
        # simulated crash: data written for the next commit, manifest not
        # flipped; the rerun must converge to the identical state
        replay_once(wal, lake, cfg, max_segments=1, commit=False)
    replay(wal, lake, cfg, segments_per_commit=segments_per_commit)
    if do_compact:
        compact(lake, cfg, force=True)
    return wal, lake, cfg


def _q_cdc_replay_lww(sf_dir: str):
    from etl_ray.pipelines import analogs as A

    _, lake, _ = _replay_events(sf_dir, tag="lww")
    return A.lake_final_state(lake)


def _q_cdc_replay_resume(sf_dir: str):
    from etl_ray.pipelines import analogs as A

    _, lake, _ = _replay_events(sf_dir, tag="resume", crash_resume=True,
                                segments_per_commit=1)
    return A.lake_final_state(lake)


def _q_cdc_replay_salted(sf_dir: str):
    from etl_ray.pipelines import analogs as A

    _, lake, _ = _replay_events(sf_dir, tag="salted", salt_threshold=1,
                                segments_per_commit=1)
    return A.lake_final_state(lake)


def _q_cdc_replay_compacted(sf_dir: str):
    from etl_ray.pipelines import analogs as A

    _, lake, _ = _replay_events(sf_dir, tag="compacted", do_compact=True,
                                segments_per_commit=1)
    return A.lake_final_state(lake)


def _q_cdc_replay_evolution(sf_dir: str):
    from etl_ray.pipelines import analogs as A

    _, lake, _ = _replay_events(sf_dir, tag="evo", with_props_from=2)
    return A.lake_final_state(lake)


def _q_cdc_quarantine(sf_dir: str):
    from etl_ray.lake import read_quarantine

    _, lake, _ = _replay_events(sf_dir, tag="quar", quarantine_over=300.0)
    q = read_quarantine(lake).to_pandas()
    q = q.rename(columns={"sequence_number": "event_id"})
    return (
        q[["event_id", "doc_id", "value"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def _q_cdc_watermarks(sf_dir: str):
    import pandas as pd

    from etl_ray.config import modulo_part
    from etl_ray.state.manifest import Manifest

    _, lake, _ = _replay_events(sf_dir, tag="wm", part_fn=modulo_part)
    m = Manifest.load(lake)
    counts = {}
    for c in Manifest.history(lake):
        for part, pp in c.get("per_partition", {}).items():
            counts[int(part)] = counts.get(int(part), 0) + pp["rows"]
    rows = [
        {"part": k, "watermark_seq": p.watermark_seq, "n_events": counts.get(k, 0)}
        for k, p in sorted(m.partitions.items())
    ]
    return pd.DataFrame(rows)


def _q_cdc_replay_corrected(sf_dir: str):
    """Declarative data-correction rules (field mask + conditional shift)
    applied in the validate stage, end-to-end through a full replay
    (reference parser/annotation2.go:60-120, parser/switch.go:103-117)."""
    from etl_ray.config import MaskRule, ShiftRule
    from etl_ray.pipelines import analogs as A

    _, lake, _ = _replay_events(
        sf_dir, tag="corrected",
        corrections=(
            ShiftRule("value", 1000.0, when_column="event_type",
                      when_equals="purchase"),
            MaskRule("event_type", ("signup",)),
        ),
    )
    return A.lake_final_state(lake)


def _q_cdc_time_travel(sf_dir: str):
    """Time travel: read a HISTORICAL lake snapshot (manifest version 1 =
    state after only the first changelog segment was applied)."""
    from etl_ray.lake import read_lake
    from etl_ray.pipelines import analogs as A

    _, lake, _ = _replay_events(sf_dir, tag="tt", segments_per_commit=1)
    df = read_lake(lake, include_seq=True, version=1).to_pandas()
    df = df.rename(columns={"sequence_number": "last_seq"})
    return (
        df[["doc_id", "last_seq", "value", "event_type"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_cdc_recover(sf_dir: str):
    """Dead-letter recovery: replay with a strict validity rule (value>300
    quarantined), then recover the quarantine under a loosened rule
    (value>600) — newly-valid events re-enter LWW with their ORIGINAL
    sequence numbers, still-invalid rows become the replacement quarantine.
    The reference's fix-parser-then-reprocess lifecycle
    (/root/reference/etl/etl.go TaskError → task retry) lifted to rows."""
    from etl_ray.config import EngineConfig
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.replay import recover_quarantine

    _, lake, _ = _replay_events(sf_dir, tag="recover", quarantine_over=300.0)
    cfg = EngineConfig(num_partitions=8, payload=A.events_payload(600.0))
    recover_quarantine(lake, cfg)
    return A.lake_final_state(lake)


def _q_cdc_recover_compacted(sf_dir: str):
    """``cdc_recover`` with compaction between commits: recovery runs on a
    lake whose partitions went through every compaction kind (a promoted
    lone delta, delta runs folded beside their base, rewritten bases), so
    a quarantined event must still lose to a newer delete kept in a run
    or a base. Same final state, same DuckDB oracle."""
    import pyarrow.parquet as pq

    from etl_ray.config import EngineConfig
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines import compaction
    from etl_ray.pipelines.replay import recover_quarantine, replay_once

    wal, lake = A.fresh_dirs("recover_compacted")
    n = pq.ParquetFile(os.path.join(sf_dir, "events.parquet")).metadata.num_rows
    A.events_to_changelog(sf_dir, wal, seg_size=max(1, -(-n // 8)))
    cfg = EngineConfig(num_partitions=8, payload=A.events_payload(300.0))
    kinds = dict.fromkeys(compaction.KINDS, 0)

    def step(commits, **kw):
        for _ in range(commits):
            replay_once(wal, lake, cfg, max_segments=1)
        res = compaction.compact(lake, cfg, **kw)
        for k in kinds:
            kinds[k] += res[k]

    step(1, min_deltas=1)  # each partition's lone delta is promoted
    step(2, force=True)  # bases rewritten
    # the events table holds ~67 events per user, so every segment touches
    # most of a partition's docs and any two runs outweigh its base: the
    # policy never folds runs here. Lift the ratio for the last rounds so
    # their tombstones sit in folded runs when recovery runs.
    ratio, compaction.RATIO = compaction.RATIO, float("inf")
    try:
        step(2, min_deltas=2)  # base + two deltas: one run
        step(3, min_deltas=2)  # base + run + three deltas: one run
    finally:
        compaction.RATIO = ratio
    if not all(kinds.values()):
        raise RuntimeError(f"a compaction kind never ran: {kinds}")
    recover_quarantine(
        lake, EngineConfig(num_partitions=8, payload=A.events_payload(600.0)))
    return A.lake_final_state(lake)


def _q_pt_pollution(sf_dir: str):
    """Pollution-buffer flags (reference parser/pt.go:627-669 analog)."""
    from etl_ray.pipelines.telemetry import pt_pollution

    return pt_pollution(sf_dir)


def _q_cdc_replay_retraction(sf_dir: str):
    """Retractions generated from later-arriving data change the final lake
    state through a full CDC replay."""
    from etl_ray.pipelines.telemetry import cdc_replay_retraction

    return cdc_replay_retraction(sf_dir)


# --------------------------------------------------------------- text / dedup
def _q_dedup_exact(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.dedup import exact_dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = exact_dedup(ds).to_pandas()
    return out.sort_values("content_hash").reset_index(drop=True)


def _q_dedup_minhash(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.dedup import minhash_lsh_candidates

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = minhash_lsh_candidates(ds, concurrency=2).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _q_dedup_ngram_jaccard(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.dedup import minhash_near_dups

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = minhash_near_dups(ds, threshold=0.3, concurrency=2)
    out["jaccard"] = out["jaccard"].round(4)
    return out


_BM25_TERMS = ["window", "merge", "scan"]


def _q_value_histogram(sf_dir: str):
    """Mergeable fixed-bin histogram over events.value (ops/stats.py)."""
    import ray.data as rd

    from etl_ray.ops.stats import histogram

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    out = histogram(ds, col="value", lo=0.0, hi=400.0, n_bins=20).to_pandas()
    return out.sort_values("bin").reset_index(drop=True)


_QUANTILE_QS = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99]


def _q_value_quantiles(sf_dir: str):
    """Exact distributed quantiles: sort + metadata walk + targeted block
    fetch (ops/stats.py, percentile_disc semantics)."""
    import ray.data as rd

    from etl_ray.ops.stats import exact_quantiles

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    return exact_quantiles(ds, col="value", qs=_QUANTILE_QS)


def _q_approx_quantiles(sf_dir: str):
    """Approximate quantiles from a deterministic KMV bottom-k hash
    sample (ops/stats.py) — the no-global-sort scale path; exactly
    reproducible, hence SQL-oracled."""
    import ray.data as rd

    from etl_ray.ops.stats import kmv_quantiles

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    return kmv_quantiles(ds, key_col="event_id", col="value",
                         qs=_QUANTILE_QS, m=4096)


def _sql_approx_quantiles(qs, m: int) -> str:
    h = _md5le64_sql("CAST(event_id AS VARCHAR)")
    arms = "\nUNION ALL\n".join(
        f"SELECT {q}::DOUBLE AS q, percentile_disc({q}::DOUBLE)"
        f" WITHIN GROUP (ORDER BY value) AS value FROM s"
        for q in qs)
    return f"""
WITH s AS (
  SELECT value FROM (
    SELECT value, ({h}) AS h
    FROM events WHERE value IS NOT NULL
    ORDER BY h LIMIT {m}
  )
)
{arms}
ORDER BY q
"""


def _q_anti_join(sf_dir: str):
    """Customers with no URGENT orders: shuffle anti-join (distinct right
    keys + left_outer + null filter, ops/joins.py)."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from etl_ray.ops.joins import anti_join

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_name"])
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderpriority"],
    ).map_batches(
        lambda t: t.filter(
            pc.equal(t["o_orderpriority"], "1-URGENT")
        ).select(["o_custkey"]),
        batch_format="pyarrow")
    out = anti_join(cust, orders, on="c_custkey",
                    right_on="o_custkey").to_pandas()
    if out.empty:  # an empty Ray dataset loses its schema on to_pandas
        out = pd.DataFrame({"c_custkey": pd.Series(dtype="int64"),
                            "c_name": pd.Series(dtype="object")})
    return out.sort_values("c_custkey").reset_index(drop=True)


def _q_semi_join(sf_dir: str):
    """Parts that appear in at least one lineitem: shuffle semi-join."""
    import ray.data as rd

    from etl_ray.ops.joins import semi_join

    part = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_partkey", "p_name"])
    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey"])
    out = semi_join(part, li, on="p_partkey",
                    right_on="l_partkey").to_pandas()
    return out.sort_values("p_partkey").reset_index(drop=True)


def _q_token_bigrams(sf_dir: str):
    """Corpus bigram counts: batch-local pair counting, Sum combine
    (ops/ngrams.py)."""
    import ray.data as rd

    from etl_ray.ops.ngrams import bigram_counts

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    out = bigram_counts(ds, min_count=3).to_pandas()
    return out.sort_values(["w1", "w2"]).reset_index(drop=True)


def _q_pmi_collocations(sf_dir: str):
    """PMI per bigram: broadcast unigram table + vectorized log scoring
    (ops/ngrams.py)."""
    import ray.data as rd

    from etl_ray.ops.ngrams import pmi_bigrams

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    return pmi_bigrams(ds, min_count=5, round_to=4)


def _q_zscore_events(sf_dir: str):
    """Per-event-type population z-score: one tiny moments aggregate,
    stats broadcast, stateless normalize — no row shuffle
    (ops/stats.py)."""
    import ray.data as rd

    from etl_ray.ops.stats import group_zscore

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "value"])
    out = group_zscore(ds, col="value", by="event_type",
                       id_col="event_id").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


_GQ_QS = [0.25, 0.5, 0.75, 0.95]


def _q_grouped_quantiles(sf_dir: str):
    """percentile_disc of value per event type (ops/stats.py; few-groups
    partitioning assumption documented there)."""
    import ray.data as rd

    from etl_ray.ops.stats import grouped_quantiles

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    out = grouped_quantiles(ds, col="value", by="event_type",
                            qs=_GQ_QS).to_pandas()
    return out.sort_values(["event_type", "q"]).reset_index(drop=True)


def _q_rollup_docs(sf_dir: str):
    """GROUP BY ROLLUP(source, lang) over documents: per-level aggregates
    unioned with NULL fill (ops/stats.py)."""
    import ray.data as rd

    from etl_ray.ops.stats import rollup_counts

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["source", "lang", "n_chars"])
    out = rollup_counts(ds, cols=["source", "lang"], agg_col="n_chars")
    return out.sort_values(["source", "lang"],
                           na_position="last").reset_index(drop=True)


_PIVOT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _q_pivot_events(sf_dir: str):
    """Wide per-user aggregation: avg value per event type as columns,
    integer-cent partial sums for bit-exact averages (ops/stats.py)."""
    import ray.data as rd

    from etl_ray.ops.stats import pivot_avg_cents

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "value"])
    out = pivot_avg_cents(ds, index="user_id", pivot_col="event_type",
                          value_col="value", values=_PIVOT_TYPES).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_weighted_sample(sf_dir: str):
    """Deterministic A-Res weighted sample of events by value
    (ops/sampling.py): per-batch top-k candidates, tiny driver merge."""
    import ray.data as rd

    from etl_ray.ops.sampling import weighted_sample

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    out = weighted_sample(ds, key_col="event_id", weight_col="value",
                          k=50)
    return out.sort_values("event_id").reset_index(drop=True)


def _q_lag_deltas(sf_dir: str):
    """Per-user successive value deltas (SQL lag window analog,
    ops/windows.py)."""
    import ray.data as rd

    from etl_ray.ops.windows import lag_delta

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "value"])
    out = lag_delta(ds, key_col="user_id", ts_col="ts",
                    value_col="value", order_col="event_id").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def _q_intersect_users(sf_dir: str):
    """Users with BOTH click and purchase events: distinct-key intersect
    (ops/joins.py)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from etl_ray.ops.joins import intersect_keys

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type"])

    def typed(t):
        def f(tb):
            return tb.filter(pc.equal(tb["event_type"], t)) \
                .select(["user_id"])
        return f

    clicks = ev.map_batches(typed("click"), batch_format="pyarrow")
    buys = ev.map_batches(typed("purchase"), batch_format="pyarrow")
    out = intersect_keys(clicks, buys, on="user_id").to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_except_customers(sf_dir: str):
    """Customer keys with NO event activity: distinct-key EXCEPT
    (ops/joins.py except_keys) — both sides collapse to distinct keys
    before one hash anti-join."""
    import ray.data as rd

    from etl_ray.ops.joins import except_keys

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey"])
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id"])
    out = except_keys(cust, ev, on="c_custkey",
                      right_on="user_id").to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


def _q_distinct_users_by_type(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type, combiner-first
    (ops/stats.py distinct_count_by)."""
    import ray.data as rd

    from etl_ray.ops.stats import distinct_count_by

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "user_id"])
    out = distinct_count_by(ds, by="event_type", key_col="user_id",
                            alias="n_users").to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


def _q_user_value_series(sf_dir: str):
    """Per-user ordered value series (array_agg analog, integer-cent CSV;
    ops/windows.py collect_series)."""
    import ray.data as rd

    from etl_ray.ops.windows import collect_series

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "value", "ts", "event_id"])
    out = collect_series(ds).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_top_tokens(sf_dir: str):
    """Top-50 corpus tokens, deterministic tie-break
    (ops/textops.py top_tokens)."""
    import ray.data as rd

    from etl_ray.ops.textops import top_tokens

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    return top_tokens(ds, k=50)


def _q_value_buckets(sf_dir: str):
    """Quantile bucketization: every event labeled with the quartile
    bucket of its value (ops/stats.py bucketize_by_quantile)."""
    import ray.data as rd

    from etl_ray.ops.stats import bucketize_by_quantile

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    out = bucketize_by_quantile(ds, col="value", qs=(0.25, 0.5, 0.75),
                                keep_cols=["event_id"]).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def _q_window_dedup(sf_dir: str):
    """Event-time windowed dedup: same (user, event_type) within an hour
    collapses to the earliest event (ops/windows.py window_dedup)."""
    import ray.data as rd

    from etl_ray.ops.windows import window_dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "event_type", "ts"])
    out = window_dedup(ds, key_cols=("user_id", "event_type"),
                       ts_col="ts", order_col="event_id",
                       window_s=3600).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def _q_mad_by_type(sf_dir: str):
    """Per-event-type robust stats: median + MAD in exact integer cents
    (ops/stats.py grouped_mad)."""
    import ray.data as rd

    from etl_ray.ops.stats import grouped_mad

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    return grouped_mad(ds, col="value", by="event_type")


def _q_doc_entropy(sf_dir: str):
    """Per-document token-distribution Shannon entropy
    (ops/textops.py doc_entropy)."""
    import ray.data as rd

    from etl_ray.ops.textops import doc_entropy

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = doc_entropy(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_bigram_lm_scores(sf_dir: str):
    """Per-doc bigram-LM quality score: mean ln p(w2|w1) under corpus
    counts (ops/ngrams.py) — the perplexity-style curation filter."""
    import ray.data as rd

    from etl_ray.ops.ngrams import bigram_lm_scores

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return bigram_lm_scores(ds, id_col="doc_id", text_col="text",
                            round_to=4)


_SQL_BIGRAM_LM = r"""
WITH toksd AS (
  SELECT doc_id,
         regexp_split_to_array(trim(coalesce(text, '')), '\s+') AS w
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
uni AS (
  SELECT token, count(*) AS n
  FROM (SELECT unnest(w) AS token FROM toksd) GROUP BY token
),
ex AS (
  SELECT doc_id, w, unnest(generate_series(1, len(w) - 1)) AS i
  FROM toksd WHERE len(w) >= 2
),
pairs AS (SELECT doc_id, w[i] AS w1, w[i + 1] AS w2 FROM ex),
big AS (SELECT w1, w2, count(*) AS n FROM pairs GROUP BY w1, w2)
SELECT p.doc_id, count(*) AS n_pairs,
       round(avg(ln(CAST(b.n AS DOUBLE) / CAST(u.n AS DOUBLE))), 4)
         AS lm_score
FROM pairs p
JOIN big b ON p.w1 = b.w1 AND p.w2 = b.w2
JOIN uni u ON u.token = p.w1
GROUP BY p.doc_id ORDER BY p.doc_id
"""


def _q_revenue_by_nation(sf_dir: str):
    """Star-schema rollup with a combiner-before-join plan: lineitem
    revenue pre-aggregated per order (shuffle moves one row per distinct
    orderkey per batch), ONE hash join against orders, dimensions
    (customer x nation) broadcast, tiny final groupby."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from etl_ray.ops.components import _nonempty
    from etl_ray.ops.joins import broadcast_join, hash_join_kw

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def per_order(df: pd.DataFrame) -> pd.DataFrame:
        cents = (np.round(df["l_extendedprice"].to_numpy(np.float64) * 100)
                 .astype(np.int64)
                 * (10000 - np.round(df["l_discount"].to_numpy(np.float64)
                                     * 10000).astype(np.int64)))
        out = pd.DataFrame({"l_orderkey": df["l_orderkey"],
                            "_rev": cents})
        return out.groupby("l_orderkey", as_index=False).sum()

    li_agg = li.map_batches(per_order, batch_format="pandas") \
        .groupby("l_orderkey").aggregate(Sum("_rev", alias_name="_rev"))

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = _nonempty(li_agg).join(
        _nonempty(orders), on=("l_orderkey",), right_on=("o_orderkey",),
        **hash_join_kw())

    cust = pd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_nationkey"])
    nat = pd.read_parquet(os.path.join(sf_dir, "nation.parquet"),
                          columns=["n_nationkey", "n_name"])
    lookup = cust.merge(nat, left_on="c_nationkey",
                        right_on="n_nationkey")[["c_custkey", "n_name"]] \
        .rename(columns={"n_name": "nation"})
    enriched = broadcast_join(joined, lookup, left_on="o_custkey",
                              right_on="c_custkey", columns=["nation"])
    agg = enriched.groupby("nation") \
        .aggregate(Sum("_rev", alias_name="_rev")).to_pandas()
    agg["revenue"] = agg["_rev"].to_numpy(np.float64) / 1_000_000.0
    return agg[["nation", "revenue"]].sort_values("nation") \
        .reset_index(drop=True)


_SQL_REVENUE_BY_NATION = """
SELECT n.n_name AS nation,
       CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                * (10000 - CAST(round(l.l_discount * 10000) AS BIGINT)))
            AS DOUBLE) / 1000000.0 AS revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name ORDER BY nation
"""


def _q_grouped_hll(sf_dir: str):
    """Approx distinct users PER event type: grouped HLL registers,
    cell-exact vs the SQL emulation (ops/sketches.py)."""
    import ray.data as rd

    from etl_ray.ops.sketches import grouped_hll_registers

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type"])
    out = grouped_hll_registers(ds, "user_id", by="event_type",
                                p=8).to_pandas()
    return out.sort_values(["event_type", "bucket"]).reset_index(drop=True)


def _q_fuzzy_name_pairs(sf_dir: str):
    """Customer-name pairs within Levenshtein distance 1: lossless FastSS
    deletion-neighborhood blocking + capped self-join + vectorized verify
    (ops/fuzzyjoin.py)."""
    import ray.data as rd

    from etl_ray.ops.fuzzyjoin import edit1_pairs

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_name"])
    out = edit1_pairs(cust, id_col="c_custkey",
                      text_col="c_name").to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


_SQL_FUZZY_NAME_PAIRS = """
SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist
FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey
WHERE levenshtein(a.c_name, b.c_name) <= 1
ORDER BY id_a, id_b
"""


def _q_corpus_curation(sf_dir: str):
    """Flagship curation composite: lang filter + length filter + near-dup
    cluster drop (etl_ray/pipelines/curation.py)."""
    from etl_ray.pipelines.curation import curate_corpus

    return curate_corpus(sf_dir)


def _q_corpus_curation_gopher(sf_dir: str):
    """Curation composite with the Gopher repetition gate: docs whose
    duplicate-word fraction exceeds 0.6 are dropped in the streaming
    filter stage BEFORE the dedup shuffle (cheapest-filter-first), so the
    near-dup machinery only ever sees the survivors."""
    from etl_ray.pipelines.curation import curate_corpus

    return curate_corpus(sf_dir, max_dup_word_frac=0.6)


def _q_kmeans(sf_dir: str):
    """Distributed Lloyd's K-Means over embeddings (etl_ray/ops/
    clustering.py): 2 iterations from the seeded init, final per-vector
    assignment + distance."""
    import ray.data as rd

    from etl_ray.ops.clustering import kmeans

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    assigned, _ = kmeans(ds, k=8, dim=64, iters=2, seed=11, concurrency=2)
    out = assigned.to_pandas()
    out["dist"] = out["dist"].round(4)
    return out.sort_values("vec_id").reset_index(drop=True)


def _q_doc_frequencies(sf_dir: str):
    """Corpus document frequencies (distinct-doc token counts)."""
    import ray.data as rd

    from etl_ray.ops.retrieval import doc_frequencies

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = doc_frequencies(ds).to_pandas()
    return out.sort_values("token").reset_index(drop=True)


def _q_bm25_scores(sf_dir: str):
    """BM25 retrieval scores for a fixed term query (etl_ray/ops/
    retrieval.py; two-pass compact-stats design)."""
    import ray.data as rd

    from etl_ray.ops.retrieval import bm25_scores

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = bm25_scores(ds, _BM25_TERMS).to_pandas()
    out["score"] = out["score"].round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_tfidf_weights(sf_dir: str):
    """Smoothed TF-IDF weights per (doc, query term)."""
    import ray.data as rd

    from etl_ray.ops.retrieval import tfidf_weights

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = tfidf_weights(ds, _BM25_TERMS).to_pandas()
    out["weight"] = out["weight"].round(6)
    return out.sort_values(["doc_id", "term"]).reset_index(drop=True)


def _q_dedup_clusters(sf_dir: str):
    """Near-dup pairs → connected components → canonical keep list
    (the dedup finisher: transitive closure via distributed hash-to-min
    label propagation, etl_ray/ops/components.py)."""
    import ray.data as rd

    from etl_ray.ops.components import dup_clusters
    from etl_ray.ops.dedup import minhash_lsh_candidates, verify_candidates

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    cand = minhash_lsh_candidates(ds, concurrency=2)
    pairs = verify_candidates(ds, cand, threshold=0.3)
    out = dup_clusters(pairs).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_dup_clusters_quality(sf_dir: str):
    """Near-dup clusters with QUALITY-canonical selection: the kept
    member is the highest-n_words doc (ties → min id), not the min id —
    keep the longest copy of each near-dup family
    (ops/components.py dup_clusters_by_quality: one hash join + one
    bucketed per-component pass, deliberately not chained joins)."""
    import pandas as pd
    import ray.data as rd

    from etl_ray.ops.components import dup_clusters_by_quality
    from etl_ray.ops.dedup import minhash_lsh_candidates, verify_candidates

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    cand = minhash_lsh_candidates(ds, concurrency=2)
    pairs = verify_candidates(ds, cand, threshold=0.3)

    def qual(df: pd.DataFrame) -> pd.DataFrame:
        from etl_ray.functions.text import word_count

        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "n_words": word_count(df["text"])})

    quality = ds.map_batches(qual, batch_format="pandas")
    out = dup_clusters_by_quality(pairs, quality).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_dedup_simhash(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.dedup import simhash_candidates

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = simhash_candidates(ds, max_hamming=10, concurrency=2).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _q_dedup_embedding(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data as rd

    from etl_ray.ops.similarity import embedding_near_dups

    path = os.path.join(sf_dir, "embeddings.parquet")
    idx = pq.read_table(path, columns=["vec_id", "embedding"])
    import numpy as np

    ids = idx["vec_id"].to_numpy(zero_copy_only=False)
    M = np.array(idx["embedding"].to_pylist(), dtype=np.float64)
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])
    out = embedding_near_dups(ds, ids, M, threshold=_EMB_THRESHOLD,
                              concurrency=2).to_pandas()
    out["cosine"] = out["cosine"].round(4)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _q_dedup_lsh_embedding(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.similarity import lsh_bucketed_pairs

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    out = lsh_bucketed_pairs(ds, threshold=_EMB_THRESHOLD, n_planes=6,
                             concurrency=2).to_pandas()
    out["cosine"] = out["cosine"].round(4)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _q_ann_topk(sf_dir: str):
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from etl_ray.ops.similarity import cosine_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq.read_table(path, columns=["vec_id", "embedding"],
                       filters=[("vec_id", "<", 4)])
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    Q = np.array(qt["embedding"].to_pylist(), dtype=np.float64)

    import pyarrow.compute as pc

    ds = rd.read_parquet(path, columns=["vec_id", "embedding"]).map_batches(
        lambda t: t.filter(pc.greater_equal(t["vec_id"], 4)),
        batch_format="pyarrow",
    )
    out = cosine_topk(ds, qids, Q, k=10, concurrency=2)
    out["score"] = out["score"].round(4)
    return out[["query_id", "vec_id", "score", "rank"]].reset_index(drop=True)


def _q_dim_broadcast_join(sf_dir: str):
    """Broadcast small-side dimension join: events × nation × region
    (lookup frames ray.put once, probed vectorized per batch — no shuffle).
    Aggregates event value per region name."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from etl_ray.ops.joins import broadcast_join

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    dim = nation.merge(region, left_on="n_regionkey",
                       right_on="r_regionkey")[
        ["n_nationkey", "n_name", "r_name"]]
    dim["n_nationkey"] = dim["n_nationkey"].astype("int64")

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "value"])

    def key(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("n_nationkey", pa.array(uid % 25))

    joined = broadcast_join(ds.map_batches(key, batch_format="pyarrow"),
                            dim, left_on="n_nationkey",
                            right_on="n_nationkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(cents=np.round(df["value"].to_numpy() * 100)
                       .astype(np.int64))
        return df.groupby(["r_name", "n_name"], as_index=False).agg(
            n_events=("event_id", "size"), sum_cents=("cents", "sum"))

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby(["r_name", "n_name"])
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("sum_cents", alias_name="sum_cents"))
        .to_pandas()
    )
    out["sum_value"] = out.pop("sum_cents") / 100.0
    return out.sort_values(["r_name", "n_name"]).reset_index(drop=True)


def _q_hll_registers(sf_dir: str):
    """HyperLogLog distinct-user sketch STATE (mergeable partial agg; the
    oracle checks every register cell, not just the estimate)."""
    import ray.data as rd

    from etl_ray.ops.sketches import hll_registers

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id"])
    out = hll_registers(ds, "user_id", p=8).to_pandas()
    return out.sort_values("bucket").reset_index(drop=True)


def _q_cms_counts(sf_dir: str):
    """Count-Min frequency sketch state over event_type."""
    import ray.data as rd

    from etl_ray.ops.sketches import cms_counts

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type"])
    out = cms_counts(ds, "event_type", depth=4, width=64).to_pandas()
    return out.sort_values(["row", "bucket"]).reset_index(drop=True)


def _q_asof_state(sf_dir: str):
    """AS-OF join: each event picks the latest state-change row (derived
    stream, every 50th event) with since <= event_id, per user — the
    bucketed-shuffle variant (ONE hash exchange, vectorized merge_asof per
    bucket; DuckDB ASOF JOIN is the oracle)."""
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.joins import asof_join

    left = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                           columns=["event_id", "user_id", "value"])

    def to_state(batch: pa.Table) -> pa.Table:
        import numpy as np

        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        keep = batch.filter(pa.array(eid % 50 == 0))
        state = np.round(
            keep["value"].to_numpy(zero_copy_only=False) * 100)
        return pa.table({
            "user_id": keep["user_id"],
            "since": keep["event_id"],
            "state": pa.array(state.astype(np.int64)),
        })

    right = left.map_batches(to_state, batch_format="pyarrow")
    out = asof_join(left, right, by="user_id", on="event_id",
                    right_on="since", value_cols=["state"]).to_pandas()
    out["state"] = out["state"].astype("float64")
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)


def _q_bloom_bits(sf_dir: str):
    """Bloom-filter membership sketch STATE (distinct set bits; mergeable
    set-union partial agg — the oracle checks the filter bit-for-bit)."""
    import ray.data as rd

    from etl_ray.ops.sketches import bloom_bits

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id"])
    out = bloom_bits(ds, "user_id", m=4096, k=4).to_pandas()
    return out.sort_values("bit").reset_index(drop=True)


def _q_token_histogram(sf_dir: str):
    """Corpus vocabulary histogram: batch-local explode+count, shuffle
    moves one row per distinct token per batch, hash-aggregate Sum."""
    import ray.data as rd

    from etl_ray.ops.textops import token_histogram

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    out = token_histogram(ds).to_pandas()
    return out.sort_values("token").reset_index(drop=True)


def _q_ann_ivf_topk(sf_dir: str):
    """IVF ANN end-to-end on the SCALE path: build (one assignment pass)
    → persist partitioned by cell_id → pruned read of ONLY the nprobe
    probed cells' directories → per-cell gathered scoring. Identical
    results to streaming the whole corpus (unprobed cells get zero FLOPs
    either way); the partitioned variant additionally gives them zero
    scan bytes."""

    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from etl_ray.ops.similarity import (ivf_build, ivf_persist,
                                        ivf_topk_partitioned)
    from etl_ray.util import scratch_dir

    path = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq.read_table(path, columns=["vec_id", "embedding"],
                       filters=[("vec_id", "<", 4)])
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    Q = np.array(qt["embedding"].to_pylist(), dtype=np.float64)
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"]).map_batches(
        lambda t: t.filter(pc.greater_equal(t["vec_id"], 4)),
        batch_format="pyarrow",
    )
    indexed, C = ivf_build(ds, dim=Q.shape[1], nlist=8, seed=11,
                           concurrency=2)
    root = scratch_dir("ivfq_")
    ivf_persist(indexed, root)
    out, stats = ivf_topk_partitioned(root, qids, Q, centroids=C, k=10,
                                      nprobe=3, concurrency=2)
    assert stats["cells_probed"] <= stats["cells_total"]
    out["score"] = out["score"].round(4)
    return out[["query_id", "vec_id", "score", "rank"]].reset_index(drop=True)


def _q_text_tokens(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.textops import token_counts

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return (
        token_counts(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _q_text_quality(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.textops import quality_scores

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = quality_scores(ds).to_pandas()
    for c in ("avg_word_len", "stop_ratio", "punct_ratio"):
        out[c] = out[c].round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_source_kl(sf_dir: str):
    """Per-source KL divergence from the corpus token distribution — the
    source-drift detector (ops/ngrams.py source_kl_divergence;
    combiner-first (source, token) counts, |vocab|-scale tables only)."""
    import ray.data as rd

    from etl_ray.ops.ngrams import source_kl_divergence

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["source", "text"])
    out = source_kl_divergence(ds).to_pandas()
    return out.sort_values("source").reset_index(drop=True)


def _q_source_quality(sf_dir: str):
    """Per-source corpus quality rollup (ops/textops.py
    source_quality_report — exact integer totals, mergeable sums,
    combiner-first; ratios derived once from the totals, never
    mean-of-means)."""
    import ray.data as rd

    from etl_ray.ops.textops import source_quality_report

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["source", "text"])
    out = source_quality_report(ds).to_pandas()
    return out.sort_values("source").reset_index(drop=True)


def _q_oov_rates(sf_dir: str):
    """Per-doc out-of-vocabulary rate vs the corpus's own top-20 vocab
    (ops/textops.py oov_rates — vocab broadcast once via ray.put, corpus
    streams with searchsorted membership, zero shuffle in pass 2)."""
    import ray.data as rd

    from etl_ray.ops.textops import oov_rates

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = oov_rates(ds, vocab_k=20).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_repetition_scores(sf_dir: str):
    """Gopher-style repetition curation signals per document: duplicate
    word fraction, top word/bigram coverage, duplicate trigram fraction
    (ops/textops.py repetition_scores — batch-local explode + shifted-
    array n-grams, zero shuffle)."""
    import ray.data as rd

    from etl_ray.ops.textops import repetition_scores

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = repetition_scores(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_contamination(sf_dir: str):
    """Train/test overlap (decontamination) check: every 37th document
    plays the held-out benchmark; each corpus document reports how many of
    its DISTINCT 3-gram shingles appear in the benchmark shingle set
    (ops/dedup.py contamination_flags — benchmark hashes broadcast once,
    corpus streams, binary-search membership). The oracle replays the
    identical md5-word-hash + polynomial-fold shingle machinery in
    HUGEINT SQL (the same CTE chain the LSH oracle uses)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from etl_ray.ops.dedup import benchmark_shingles, contamination_flags

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    def every_37th(t):
        import numpy as np
        import pyarrow as pa

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 37 == 0))

    bench = docs.map_batches(every_37th, batch_format="pyarrow")
    bh = benchmark_shingles(bench, shingle_n=3)
    out = contamination_flags(docs, bh, shingle_n=3).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_contamination() -> str:
    f = _fold_sql
    return f"""
WITH docs AS (SELECT doc_id, {_NORM_SQL} AS norm FROM documents),
warr AS (
  SELECT doc_id, CASE WHEN norm = '' THEN CAST([] AS VARCHAR[])
                      ELSE string_split(norm, ' ') END AS ws
  FROM docs
),
wexp AS (
  SELECT doc_id, generate_subscripts(ws, 1) AS i, unnest(ws) AS w,
         len(ws) AS nw
  FROM warr
),
words AS (SELECT doc_id, i, {_md5le64_sql('w')} AS h, nw FROM wexp),
sh AS (
  SELECT w1.doc_id,
         CAST({f(f('CAST(w1.h AS HUGEINT)', 'w2.h'), 'w3.h')} AS HUGEINT) AS s
  FROM words w1
  JOIN words w2 ON w2.doc_id = w1.doc_id AND w2.i = w1.i + 1
  JOIN words w3 ON w3.doc_id = w1.doc_id AND w3.i = w1.i + 2
  UNION ALL
  SELECT w1.doc_id,
         CAST(CASE WHEN w1.nw = 1 THEN CAST(w1.h AS HUGEINT)
              ELSE {f('CAST(w1.h AS HUGEINT)', 'w2.h')} END AS HUGEINT) AS s
  FROM words w1
  LEFT JOIN words w2 ON w2.doc_id = w1.doc_id AND w2.i = 2
  WHERE w1.nw < 3 AND w1.i = 1
),
bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 37 = 0),
hits AS (
  SELECT d.doc_id, count(DISTINCT d.s) AS n_hits
  FROM (SELECT DISTINCT doc_id, s FROM sh) d
  JOIN bench b ON b.s = d.s
  GROUP BY d.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits,
       COALESCE(h.n_hits, 0) > 0 AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
ORDER BY d.doc_id
"""


def _q_pii_scrub(sf_dir: str):
    """PII masking over the corpus: the documents table is first enriched
    with DETERMINISTIC synthetic PII (email + dotted quad + phone derived
    from doc_id — the synthetic corpus carries none of its own), then
    scrubbed by the vectorized RE2 rule chain (ops/textops.py scrub_pii).
    The oracle rebuilds the identical enrichment and replays the identical
    rule chain as nested regexp_replace — DuckDB is RE2 too, so the masked
    text must match byte for byte."""
    import pandas as pd
    import ray.data as rd

    from etl_ray.ops.textops import scrub_pii

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])

    def enrich(df: pd.DataFrame) -> pd.DataFrame:
        did = df["doc_id"]
        df = df.copy()
        df["text"] = (
            df["text"].astype(str)
            + " contact user" + did.astype(str)
            + "@example.org from 10.0." + (did % 256).astype(str)
            + ".7 or +44 20 7946 09" + (did % 90 + 10).astype(str)
        )
        return df

    out = scrub_pii(ds.map_batches(enrich, batch_format="pandas"))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _sql_pii_scrub() -> str:
    from etl_ray.ops.textops import PII_RULES

    (em, ip, ph) = (r[1] for r in PII_RULES)
    return f"""
WITH enriched AS (
  SELECT doc_id,
         text || ' contact user' || doc_id || '@example.org from 10.0.'
              || (doc_id % 256) || '.7 or +44 20 7946 09'
              || (doc_id % 90 + 10) AS text
  FROM documents
), e1 AS (
  SELECT doc_id, text,
         regexp_replace(text, '{em}', '<EMAIL>', 'g') AS t1
  FROM enriched
), e2 AS (
  SELECT *, regexp_replace(t1, '{ip}', '<IP>', 'g') AS t2 FROM e1
)
SELECT doc_id,
       regexp_replace(t2, '{ph}', '<PHONE>', 'g') AS text_clean,
       CAST(len(regexp_extract_all(text, '{em}')) AS BIGINT) AS n_email,
       CAST(len(regexp_extract_all(t1, '{ip}')) AS BIGINT) AS n_ip,
       CAST(len(regexp_extract_all(t2, '{ph}')) AS BIGINT) AS n_phone
FROM e2 ORDER BY doc_id
"""


def _q_doc_fingerprint(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.textops import fingerprints

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return (
        fingerprints(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _q_lang_id(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.textops import language_id

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return (
        language_id(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _q_range_join(sf_dir: str):
    """Range (interval) join, the domain-bucketed variant: every 97th event
    defines an interval [event_id, event_id+150) — overlapping, so events
    can match two intervals (1->N fan-out). Oracle is DuckDB's inequality
    join."""
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.joins import range_join

    left = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                           columns=["event_id", "user_id", "value"])

    def to_intervals(batch: pa.Table) -> pa.Table:
        import numpy as np

        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        keep = batch.filter(pa.array(eid % 97 == 0))
        kid = keep["event_id"]
        import pyarrow.compute as pc

        return pa.table({
            "interval_id": kid,
            "lo": kid,
            "hi": pc.add(kid, 150),
        })

    intervals = left.map_batches(to_intervals, batch_format="pyarrow")
    out = range_join(left, intervals, on="event_id", lo_col="lo",
                     hi_col="hi", value_cols=["interval_id"],
                     bucket_width=256).to_pandas()
    out = out[["event_id", "user_id", "value", "interval_id"]].copy()
    out["interval_id"] = out["interval_id"].astype("int64")
    return out.sort_values(["event_id", "interval_id"]).reset_index(drop=True)


def _q_hopping_window(sf_dir: str):
    """Hopping (sliding) event-time window: 3 h width advancing hourly;
    replication AND (key, window) partial agg stay inside map_batches."""
    import ray.data as rd

    from etl_ray.ops.windows import hopping_window

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "user_id", "value"])
    out = hopping_window(ds, key_col="user_id", ts_col="ts",
                         value_col="value", width_s=3 * 3600,
                         step_s=3600).to_pandas()
    out["sum_value"] = out.pop("sum_cents") / 100.0
    return (
        out[["user_id", "window", "n", "sum_value"]]
        .sort_values(["user_id", "window"])
        .reset_index(drop=True)
    )


def _q_cdc_lake_diff(sf_dir: str):
    """Changelog CAPTURE: replay the events changelog one segment per
    commit, then diff version 1 (state after the first segment) against the
    final version — per-partition, zero-shuffle (ops/cdc_diff.py)."""
    from etl_ray.ops.cdc_diff import lake_diff
    from etl_ray.util import to_pandas_keep_schema

    _, lake, _ = _replay_events(sf_dir, tag="lakediff",
                                segments_per_commit=1)
    # at tiny scale the changelog may fit one commit → head == v1 and the
    # diff is EMPTY; keep the schema through the empty-block path
    d = to_pandas_keep_schema(lake_diff(lake, from_version=1))
    d = d.rename(columns={"sequence_number": "last_seq"})
    return (
        d[["doc_id", "change_op", "last_seq", "value", "event_type"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_cdc_ivm_view(sf_dir: str):
    """Incremental view maintenance: build a grouped (count, exact
    scaled-cents sum) view at lake version 1, then advance it to the head
    purely from lake_diff change deltas — O(changed docs) per refresh, not
    O(table) (ops/ivm.py). The returned view must equal a direct groupby
    over the final state, which is what the oracle computes."""
    from etl_ray.ops.ivm import ViewSpec, build_view, refresh_view

    _, lake, _ = _replay_events(sf_dir, tag="ivm", segments_per_commit=1)
    spec = ViewSpec(name="by_event_type", group_col="event_type",
                    sum_cols=(("sum_cents", "value", 100),))
    build_view(lake, spec, version=1)
    out = refresh_view(lake, spec)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_cents"] = out["sum_cents"].astype("int64")
    return (
        out[["event_type", "n_docs", "sum_cents"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def _q_cdc_dedup_incremental(sf_dir: str):
    """Incrementally-maintained MinHash signature index (ops/dedup_ivm.py):
    build the index at lake version 1 (inserts only), replay update/delete
    commits, refresh the index from manifest deltas — only dirty
    partitions are read and only docs whose winning sequence_number
    changed are re-hashed. The returned signature table must equal a
    from-scratch signature pass over the final state, which is what the
    oracle computes in HUGEINT SQL."""
    from etl_ray.config import EngineConfig
    from etl_ray.ops.dedup_ivm import (build_signature_index,
                                       refresh_signature_index,
                                       signatures_long)
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.replay import replay

    wal, lake = A.fresh_dirs("sigivm")
    A.docs_to_changelog(sf_dir, wal)
    cfg = EngineConfig(num_partitions=8, payload=A.docs_payload())
    replay(wal, lake, cfg, segments_per_commit=1)  # versions 1..3
    build_signature_index(lake, version=1)
    refresh_signature_index(lake)
    out = signatures_long(lake).to_pandas()
    return out.sort_values(["doc_id", "perm"]).reset_index(drop=True)


def _q_cdc_dedup_exact_tokens(sf_dir: str):
    """Post-replay sequence dedup by token-ARRAY equality: replay the
    docs changelog (whose updates copy neighbours' text, manufacturing
    real duplicate sequences), tokenize the lake's final state, and
    collapse identical token arrays (ops/dedup.py exact_dedup_tokens —
    vectorized ragged-fold hash, batch-local collapse, mergeable (min,
    count) aggregates). The oracle groups DuckDB's native list values
    over the closed-form final state — array equality, not hash
    equality, so a fold collision would be caught."""
    from etl_ray.config import EngineConfig
    from etl_ray.lake import read_lake
    from etl_ray.ops.dedup import exact_dedup_tokens
    from etl_ray.ops.packing import TokenizeDocs
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.replay import replay

    wal, lake = A.fresh_dirs("tokdedup")
    A.docs_to_changelog(sf_dir, wal)
    cfg = EngineConfig(num_partitions=8, payload=A.docs_payload())
    replay(wal, lake, cfg)
    toks = read_lake(lake, columns=["doc_id", "text"]).map_batches(
        TokenizeDocs(), batch_format="pyarrow")
    out = exact_dedup_tokens(toks).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_lake_token_histogram(sf_dir: str):
    """Corpus unigram distribution over the replayed lake's NATIVE token
    arrays (ops/textops.py token_id_histogram — zero-copy list_flatten +
    per-batch bincount collapse; the exchange moves at most |vocab| rows
    per batch, never the token stream)."""
    from etl_ray.config import EngineConfig
    from etl_ray.lake import read_lake
    from etl_ray.ops.packing import TokenizeDocs
    from etl_ray.ops.textops import token_id_histogram
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.replay import replay

    wal, lake = A.fresh_dirs("tokhist")
    A.docs_to_changelog(sf_dir, wal)
    cfg = EngineConfig(num_partitions=8, payload=A.docs_payload())
    replay(wal, lake, cfg)
    toks = read_lake(lake, columns=["doc_id", "text"]).map_batches(
        TokenizeDocs(), batch_format="pyarrow")
    out = token_id_histogram(toks).to_pandas()
    return out.sort_values("token_id").reset_index(drop=True)


def _q_chunk_sequences(sf_dir: str):
    """Long-document sliding-window chunking (max_len=128, overlap=32):
    batch-local 1->N vectorized gather, zero shuffle."""
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.packing import TokenizeDocs, chunk_sequences

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    toks = ds.map_batches(TokenizeDocs(), batch_format="pyarrow")
    out = chunk_sequences(toks, max_len=128, overlap=32)

    def to_csv(batch: pa.Table) -> pa.Table:
        # compare-friendly csv (list columns hash awkwardly driver-side);
        # test-scale convenience, not a hot path
        csv = [",".join(map(str, t)) for t in batch["tokens"].to_pylist()]
        return batch.drop_columns(["tokens"]).append_column(
            "tokens_csv", pa.array(csv, pa.string()))

    df = out.map_batches(to_csv, batch_format="pyarrow").to_pandas()
    return df.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)


def _q_length_bucket_batches(sf_dir: str):
    """Pad-efficient training batches: length-bucket each tokenized doc,
    assign deterministic batch slots within the bucket, report per-doc
    pad waste (ops/packing.py length_bucket_batches — n_tok/bucket
    batch-local, one small shuffle on the bucket id)."""
    import ray.data as rd

    from etl_ray.ops.packing import TokenizeDocs, length_bucket_batches

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    toks = ds.map_batches(TokenizeDocs(), batch_format="pyarrow")
    out = length_bucket_batches(toks, batch_size=16).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_export_shards(sf_dir: str):
    """Resumable hash-sharded training export: tokenize, write 16
    deterministic shards (tmp+rename + SUCCESS markers) to a fresh dir,
    return the shard manifest (ops/export.py — assignment is per-row
    md5 % n, so the oracle reproduces every shard's doc/token totals in
    closed form)."""

    import ray.data as rd

    from etl_ray.ops.export import export_shards
    from etl_ray.ops.packing import TokenizeDocs
    from etl_ray.util import scratch_dir

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    ds = ds.map_batches(
        lambda t: t.set_column(0, "doc_id", t["doc_id"].cast("string")),
        batch_format="pyarrow")
    toks = ds.map_batches(TokenizeDocs(), batch_format="pyarrow")
    out_dir = scratch_dir("export_")
    m = export_shards(toks, out_dir, n_shards=16, tokens_col="tokens")
    m = m.drop(columns=["skipped"])
    for c in m.columns:
        m[c] = m[c].astype("int64")
    return m.sort_values("shard").reset_index(drop=True)


def _q_epoch_order(sf_dir: str):
    """Deterministic per-epoch global shuffle order: one distributed sort
    on md5(key|epoch) — every epoch a different reproducible permutation,
    any worker can recompute any doc's position (ops/sampling.py
    epoch_order)."""
    import ray.data as rd

    from etl_ray.ops.sampling import epoch_order

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])
    ds = ds.map_batches(
        lambda t: t.set_column(0, "doc_id",
                               t["doc_id"].cast("string")),
        batch_format="pyarrow")
    out = epoch_order(ds, key_col="doc_id", epoch=3).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_mixture_expand(sf_dir: str):
    """Deterministic data-mixture expansion: src0 down-weighted to 0.5,
    src1 up-weighted to 2.25 (two whole copies + 25% a third), everything
    else 1.0 — per-row arithmetic, 1→N in map_batches, zero shuffle
    (ops/sampling.py mixture_expand)."""
    import ray.data as rd

    from etl_ray.ops.sampling import mixture_expand

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "source"])
    out = mixture_expand(ds, key_col="doc_id", source_col="source",
                         weights={"src0": 0.5, "src1": 2.25}).to_pandas()
    return (out.sort_values(["doc_id", "copy_idx"])
            .reset_index(drop=True))


def _q_stratified_sample(sf_dir: str):
    """Deterministic per-stratum hash sampling (source-mix rebalancing);
    the selection predicate is reproduced verbatim in the SQL oracle."""
    import ray.data as rd

    from etl_ray.ops.sampling import stratified_sample

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang", "source"])
    out = stratified_sample(
        ds, key_col="doc_id", stratum_col="lang",
        rates={"en": 0.25, "zh": 0.75, "de": 0.5}, default_rate=1.0,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_top_events_per_user(sf_dir: str):
    """Per-key top-k (k=3 by value, deterministic event_id tie-break):
    batch-local partial top-k, then coarse-bucket resolution — the shuffle
    moves <= k rows per (key, batch)."""
    import ray.data as rd

    from etl_ray.ops.ranking import top_k_per_key

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "value"])
    out = top_k_per_key(ds, key_col="user_id", value_col="value",
                        order_col="event_id", k=3).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return (
        out[["user_id", "rank", "event_id", "value"]]
        .sort_values(["user_id", "rank"])
        .reset_index(drop=True)
    )


def _q_sessionize(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.windows import sessionize

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "user_id", "value"])
    out = sessionize(ds, gap_minutes=30).to_pandas()
    return (
        out[["user_id", "session_id", "session_start", "session_end",
             "n_events", "sum_value"]]
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )


def _q_rolling_avg(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.windows import rolling_stats

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "user_id", "value"])
    out = rolling_stats(ds, window=3).to_pandas()
    return (
        out[["user_id", "event_id", "moving_avg"]]
        .sort_values(["user_id", "event_id"])
        .reset_index(drop=True)
    )


def _q_archive_ingest(sf_dir: str):
    """documents → a tar archive of .txt test files → archive source →
    parser registry → standard-column rows (the reference's §3.1 task
    lifecycle end-to-end, verified against SQL over the same documents)."""
    import io
    import json
    import tarfile

    import pandas as pd
    import pyarrow.parquet as pq

    from etl_ray.parsers import parse_archives
    from etl_ray.util import scratch_dir

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).sort_by([("doc_id", "ascending")])
    d = scratch_dir("archq_")
    tar_path = os.path.join(d, "docs.tgz")
    with tarfile.open(tar_path, "w:gz") as tf:
        for did, text in zip(docs["doc_id"].to_pylist(),
                             docs["text"].to_pylist()):
            data = (text or "").encode("utf-8")
            info = tarfile.TarInfo(f"doc-{did:08d}.txt")
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    parsed = parse_archives([tar_path]).to_pandas()
    ok = parsed[parsed["error"].isna()]
    payloads = ok["payload"].map(json.loads)
    out = pd.DataFrame(
        {
            "doc_id": ok["member"].str.extract(r"doc-(\d+)\.txt")[0].astype(
                "int64"),
            "n_chars": payloads.map(lambda p: p["n_chars"]).astype("int64"),
            "n_words": payloads.map(lambda p: p["n_words"]).astype("int64"),
        }
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _ndt_cents(sf_dir: str):
    """events → per-user (user_id, sorted event_ids, integer cents) used to
    synthesize deterministic ndt result files."""
    import pyarrow.parquet as pq

    ev = pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_id", "value"],
    ).sort_by([("user_id", "ascending"), ("event_id", "ascending")])
    import numpy as np

    u = ev["user_id"].to_numpy(zero_copy_only=False)
    e = ev["event_id"].to_numpy(zero_copy_only=False)
    c = np.round(ev["value"].to_numpy(zero_copy_only=False) * 100).astype(
        np.int64)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(u)) + 1, [len(u)]])
    return [(int(u[s]), e[s:t], c[s:t])
            for s, t in zip(starts[:-1], starts[1:])]


def _q_ndt7_scrub(sf_dir: str):
    """events → one synthesized ndt7 result file per user (ServerMeasurements
    carrying ConnectionInfo + an ``_unsafe`` UUID) → NDT7ResultParser →
    summary rows. Proves the shipped field rules end-to-end: the audit
    column ``n_conninfo_remaining`` must be 0 for every row and the id must
    be the ``_unsafe``-stripped UUID (reference parser/ndt7_result.go:65-134)."""
    import io
    import json
    import tarfile

    import pandas as pd

    from etl_ray.ndtresult import ndt_result_registry
    from etl_ray.parsers import parse_archives
    from etl_ray.util import scratch_dir

    d = scratch_dir("ndt7q_")
    tar_path = os.path.join(d, "ndt7.tgz")
    with tarfile.open(tar_path, "w:gz") as tf:
        for uid, eids, cents in _ndt_cents(sf_dir):
            ms = [{
                "ConnectionInfo": {"Client": f"10.0.0.{uid % 250}:1234",
                                   "Server": "192.0.2.1:443"},
                "TCPInfo": {
                    "BytesAcked": int(c), "BytesReceived": int(c),
                    "ElapsedTime": int(e) + 1, "MinRTT": int(c),
                    "BytesSent": abs(int(c)) + 1,
                    "BytesRetrans": abs(int(c)) % 7,
                },
            } for e, c in zip(eids, cents)]
            obj = {"Download": {
                "UUID": f"ndt-{uid}_unsafe",
                "StartTime": f"t-{uid}",
                "ServerMeasurements": ms,
            }}
            data = json.dumps(obj, sort_keys=True).encode("utf-8")
            info = tarfile.TarInfo(f"ndt7-download-{uid:08d}.json")
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    parsed = parse_archives(
        [tar_path], registry=ndt_result_registry()).to_pandas()
    ok = parsed[parsed["error"].isna()
                & (parsed["datatype"] == "ndt7_result")]
    p = ok["payload"].map(json.loads)
    out = pd.DataFrame({
        "id": p.map(lambda r: r["id"]),
        "test_time": p.map(lambda r: r["test_time"]),
        "congestion_control": p.map(lambda r: r["congestion_control"]),
        "mean_throughput_mbps": p.map(
            lambda r: r["mean_throughput_mbps"]).astype("float64"),
        "min_rtt": p.map(lambda r: r["min_rtt"]).astype("float64"),
        "loss_rate": p.map(lambda r: r["loss_rate"]).astype("float64"),
        "n_measurements": p.map(
            lambda r: r["n_measurements"]).astype("int64"),
        "n_conninfo_remaining": p.map(
            lambda r: r["n_conninfo_remaining"]).astype("int64"),
        "n_conninfo_scrubbed": p.map(
            lambda r: r["n_conninfo_scrubbed"]).astype("int64"),
    })
    return out.sort_values("id").reset_index(drop=True)


def _q_ndt5_scrub(sf_dir: str):
    """events → one synthesized ndt5 result file per user (legacy JSON-object
    ClientMetadata + direction mix: user%3 ∈ {0: S2C, 1: C2S, 2: both};
    user%5==0 carries TCPInfo, others exercise the user-space MinRTT
    fallback) → NDT5ResultParser → one row per measured direction. Proves
    the pre-decode ClientMetadata strip and the ``_unsafe`` UUID strip
    (reference parser/ndt5_result.go:68-104,163-207)."""
    import io
    import json
    import tarfile

    import pandas as pd

    from etl_ray.ndtresult import ndt_result_registry
    from etl_ray.parsers import parse_archives
    from etl_ray.util import scratch_dir

    d = scratch_dir("ndt5q_")
    tar_path = os.path.join(d, "ndt5.tgz")
    with tarfile.open(tar_path, "w:gz") as tf:
        for uid, eids, cents in _ndt_cents(sf_dir):
            c = int(cents[-1])
            s2c = {
                "UUID": f"ndt5-{uid}-s2c_unsafe",
                "StartTime": f"t5-{uid}",
                "MeanThroughputMbps": c / 50.0,
                "MinRTT": c * 1_000_000,  # ns (user-space estimate)
            }
            if uid % 5 == 0:
                s2c["TCPInfo"] = {"MinRTT": c, "BytesSent": abs(c) + 1,
                                  "BytesRetrans": abs(c) % 7}
            c2s = {"UUID": f"ndt5-{uid}-c2s_unsafe",
                   "StartTime": f"t5-{uid}",
                   "MeanThroughputMbps": c / 100.0}
            obj = {"Control": {"UUID": f"ndt5-{uid}-ctl"}}
            if uid % 3 in (0, 2):
                obj["S2C"] = s2c
            if uid % 3 in (1, 2):
                obj["C2S"] = c2s
            # NOT first in the object: the reference regex anchors on the
            # leading comma (parser/ndt5_result.go:77)
            text = json.dumps(obj, sort_keys=True)
            legacy = (text[:-1]
                      + ',"ClientMetadata":{"client_name":"legacy-cli"}}')
            data = legacy.encode("utf-8")
            info = tarfile.TarInfo(f"ndt5-{uid:08d}.json")
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    parsed = parse_archives(
        [tar_path], registry=ndt_result_registry()).to_pandas()
    ok = parsed[parsed["error"].isna()
                & (parsed["datatype"] == "ndt5_result")]
    p = ok["payload"].map(json.loads)
    out = pd.DataFrame({
        "id": p.map(lambda r: r["id"]),
        "direction": p.map(lambda r: r["direction"]),
        "test_time": p.map(lambda r: r["test_time"]),
        "congestion_control": p.map(lambda r: r["congestion_control"]),
        "mean_throughput_mbps": p.map(
            lambda r: r["mean_throughput_mbps"]).astype("float64"),
        "min_rtt": p.map(lambda r: r["min_rtt"]).astype("float64"),
        "loss_rate": p.map(lambda r: r["loss_rate"]).astype("float64"),
        "client_metadata_stripped": p.map(
            lambda r: r["client_metadata_stripped"]).astype("bool"),
    })
    return out.sort_values(["id", "direction"]).reset_index(drop=True)


def _q_ss_parse(sf_dir: str):
    """Sidestream K:/C: schema-on-read text: archive → 1→N typed rows with
    canonical web100 renames (reference parser/ss.go:59-312)."""
    from etl_ray.pipelines.telemetry import ss_parse

    return ss_parse(sf_dir)


def _q_snaplog_deltas(sf_dir: str):
    """Snaplog self-describing binary decode + per-connection delta stream
    (reference web100/web100.go:164-497, parser/ndt.go:389-450)."""
    from etl_ray.pipelines.telemetry import snaplog_deltas

    return snaplog_deltas(sf_dir)


def _q_pack_sequences(sf_dir: str):
    """Pretraining-data layout: tokenize documents, concatenate in doc_id
    order within range buckets, chunk into fixed-length sequences."""
    import ray.data as rd

    from etl_ray.ops.packing import pack_documents

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = pack_documents(ds, seq_len=128, bucket_size=64).to_pandas()
    return out.sort_values("seq_id").reset_index(drop=True)


def _q_pcap_packets(sf_dir: str):
    """libpcap binary decode: record walk + vectorized IPv4 header gather,
    one row per packet (reference parser/pcap.go:40-109)."""
    from etl_ray.pipelines.telemetry import pcap_packets

    return pcap_packets(sf_dir)


def _q_scamper_hops(sf_dir: str):
    """Scamper1 tracelb node restructure with manufactured HopID
    (reference parser/scamper1.go:44-91, parser/parser.go:77-87)."""
    from etl_ray.pipelines.telemetry import scamper_hops

    return scamper_hops(sf_dir)


def _q_pt_paris_hops(sf_dir: str):
    """Legacy .paris text traceroute: first-line proto/IP parse, 4-tuple
    hop lines → node tree → REVERSED hop rows (reference
    parser/pt.go:321-933; tree 677-781, reversal 375-422)."""
    from etl_ray.pipelines.telemetry import pt_paris_hops

    return pt_paris_hops(sf_dir)


def _q_ndt_group_deltas(sf_dir: str):
    """NDT member grouping: {c2s,s2c,meta} by timestamp prefix with
    gz-preference collisions + meta enrichment on real-format web100
    snaplog delta rows (reference parser/ndt.go:210-309,570-588)."""
    from etl_ray.pipelines.telemetry import ndt_group_deltas

    return ndt_group_deltas(sf_dir)


def _q_multimodal_real(sf_dir: str):
    """REAL image decode, no codec library: synthesize a deterministic
    PPM (P6) / PGM (P5) / 24-bit BMP / PNG (zlib, filters 0-4) payload per
    document INSIDE map_batches (distributed synth), decode with the
    pure-numpy RealImageDecoder pool, verify dims + exact pixel mean
    against SQL. doc_id % 17 == 0 payloads are corrupt (JPEG magic) and
    must surface as decoded_ok = FALSE with zeroed dims — the quarantine
    contract."""
    import ray.data as rd

    from etl_ray.ops.multimodal import RealImageDecoder, decode_images

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])
    out = decode_images(ds.map_batches(_synth_images, batch_format="pyarrow"),
                        decoder=RealImageDecoder, concurrency=2).to_pandas()
    out["decoded_ok"] = out["decode_error"].isna()
    out = out.drop(columns=["decode_error", "payload_bytes"])
    return out.sort_values("doc_id").reset_index(drop=True)


def _synth_images(t):
    """Deterministic per-doc image payloads (PPM/PGM/BMP/PNG mix, constant
    ``b`` with one ``a`` pixel at the origin; doc_id % 17 == 0 corrupt) —
    shared by the decode and resize queries; pixel means stay closed-form
    for the SQL oracles."""
    import numpy as np
    import pyarrow as pa

    payloads = []
    for d in t["doc_id"].to_pylist():
        w, h = d % 16 + 1, d % 8 + 1
        a, b = (d * 7) % 256, d % 251
        if d % 17 == 0:
            payloads.append(b"\xff\xd8corrupt-jpeg")
            continue
        if d % 3 == 0:  # BMP, 24-bit, bottom-up, padded rows
            px = np.full((h, w, 3), b, np.uint8)
            px[0, 0, 0] = a
            stride = (w * 3 + 3) & ~3
            rows = np.zeros((h, stride), np.uint8)
            rows[:, : w * 3] = px[::-1, :, ::-1].reshape(h, w * 3)
            body = rows.tobytes()
            header = (b"BM" + (54 + len(body)).to_bytes(4, "little")
                      + b"\x00\x00\x00\x00" + (54).to_bytes(4, "little")
                      + (40).to_bytes(4, "little")
                      + w.to_bytes(4, "little", signed=True)
                      + h.to_bytes(4, "little", signed=True)
                      + (1).to_bytes(2, "little")
                      + (24).to_bytes(2, "little")
                      + (0).to_bytes(4, "little") + b"\x00" * 20)
            payloads.append(header + body)
            continue
        c = 3 if d % 2 == 0 else 1
        px = np.full(w * h * c, b, np.uint8)
        px[0] = a
        if d % 5 == 0:  # PNG (stdlib-zlib decode path), filters 0-4
            from etl_ray.ops.multimodal import encode_png

            payloads.append(encode_png(
                px.reshape(h, w, c), filter_type=(d // 5) % 5))
            continue
        magic = b"P6" if c == 3 else b"P5"
        payloads.append(magic + b"\n# synth\n"
                        + f"{w} {h}\n255\n".encode() + px.tobytes())
    pay = pa.array(payloads, pa.binary())
    return pa.table({
        "doc_id": t["doc_id"],
        "payload": pay,
        "media_type": pa.array(["image/x-synth"] * len(t)),
        "payload_bytes": pa.compute.binary_length(pay).cast(pa.int64()),
    })


def _q_multimodal_resize(sf_dir: str):
    """Decode → pixel-center nearest-neighbor resize (to 5x4) → PNG
    re-encode, as an actor/task-pool stage (ops/multimodal.py
    ImageResizer). The sampled-grid arithmetic is all-integer, so the SQL
    oracle reproduces the resized image's exact pixel mean in closed form
    (the origin pixel ``a`` lands in n0r x n0c output cells, everything
    else is ``b``). Corrupt payloads surface decoded_ok = FALSE with
    zeroed dims."""
    import ray.data as rd

    from etl_ray.ops.multimodal import ImageResizer, decode_images

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])
    out = decode_images(ds.map_batches(_synth_images, batch_format="pyarrow"),
                        decoder=ImageResizer(out_h=4, out_w=5),
                        concurrency=2).to_pandas()
    out["decoded_ok"] = out["decode_error"].isna()
    out = out.drop(columns=["decode_error", "payload", "payload_bytes"])
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_multimodal_audio(sf_dir: str):
    """REAL audio decode, no codec library: synthesize a deterministic
    RIFF/WAVE PCM16 payload per document inside map_batches (constant
    amplitude ``b`` with one ``a`` sample, mono/stereo mix, chunk-walking
    exercised via an extra LIST chunk), decode with the pure-numpy
    AudioFeatures pool and verify rate/channels/exact integer means
    against SQL. doc_id % 17 == 0 payloads are corrupt → decoded_ok FALSE,
    zeroed fields."""
    import ray.data as rd

    from etl_ray.ops.multimodal import AudioFeatures, decode_images

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])

    def synth(t):
        import numpy as np
        import pyarrow as pa

        from etl_ray.ops.multimodal import encode_wav

        payloads = []
        for d in t["doc_id"].to_pylist():
            if d % 17 == 0:
                payloads.append(b"ID3corrupt-mp3")
                continue
            ns = d % 32 + 4
            c = 2 if d % 4 == 0 else 1
            rate = 8000 + (d % 3) * 4000
            a = (d * 29) % 2000 - 1000
            b = (d * 13) % 1000 - 500
            s = np.full(ns * c, b, np.int16)
            s[0] = a
            wav = encode_wav(s, sample_rate=rate, channels=c)
            if d % 5 == 0:  # exercise the chunk walker: LIST before data
                extra = b"LIST" + (4).to_bytes(4, "little") + b"INFO"
                wav = wav[:36] + extra + wav[36:]
                wav = wav[:4] + (len(wav) - 8).to_bytes(4, "little") + wav[8:]
            payloads.append(wav)
        return pa.table({
            "doc_id": t["doc_id"],
            "payload": pa.array(payloads, pa.binary()),
        })

    out = decode_images(ds.map_batches(synth, batch_format="pyarrow"),
                        decoder=AudioFeatures(), concurrency=2).to_pandas()
    out["decoded_ok"] = out["decode_error"].isna()
    out = out.drop(columns=["decode_error"])
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_multimodal_video(sf_dir: str):
    """Video plumbing: synthesize a deterministic frame container per doc
    (VID0 index + PNG frames, constant-luma frames), demux the index,
    decode ONLY every 4th frame plus the last (skipped frames are never
    PNG-decoded — the sampling decision costs an index read, not a
    decode), 1→N fan-out inside map_batches. Corrupt containers
    (doc_id % 17 == 0) surface one decoded_ok = FALSE row."""
    import ray.data as rd

    from etl_ray.ops.multimodal import VideoFrameSampler, decode_images

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])

    def synth(t):
        import numpy as np
        import pyarrow as pa

        from etl_ray.ops.multimodal import encode_video

        payloads = []
        for d in t["doc_id"].to_pylist():
            if d % 17 == 0:
                payloads.append(b"\x00\x00\x00\x01not-a-container")
                continue
            nf, h, w = d % 9 + 2, d % 4 + 1, d % 5 + 1
            frames = [np.full((h, w, 1), (d * 7 + j * 11) % 256, np.uint8)
                      for j in range(nf)]
            payloads.append(encode_video(frames, fps=5 + d % 3))
        return pa.table({
            "doc_id": t["doc_id"],
            "payload": pa.array(payloads, pa.binary()),
        })

    out = decode_images(ds.map_batches(synth, batch_format="pyarrow"),
                        decoder=VideoFrameSampler(every_nth=4),
                        concurrency=2).to_pandas()
    out["decoded_ok"] = out["decode_error"].isna()
    out = out.drop(columns=["decode_error"])
    return out.sort_values(["doc_id", "frame_idx"]).reset_index(drop=True)


def _q_multimodal(sf_dir: str):
    import ray.data as rd

    from etl_ray.ops.multimodal import decode_images, to_binary_payload

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    payloads = ds.map_batches(to_binary_payload, batch_format="pyarrow")
    out = decode_images(payloads, concurrency=2).to_pandas()
    out["feature_hex"] = out["feature"].map(lambda b: b.hex())
    out = out.drop(columns=["feature"])
    return out.sort_values("doc_id").reset_index(drop=True)


# ------------------------------------------------------------ driver contract
def entry() -> Any:
    """Flagship: full CDC replay of the events-derived changelog at
    sf0.001 → final lake state."""
    return _q_cdc_replay_lww(SF_SMOKE)


def queries() -> dict[str, Callable[[str], Any]]:
    from etl_ray.pipelines import analogs as A

    return {
        # CDC engine end-to-end (SURVEY.md §2.2, §2.9, §2.10, §7)
        "cdc_replay_lww": _q_cdc_replay_lww,
        "cdc_replay_resume": _q_cdc_replay_resume,
        "cdc_replay_salted": _q_cdc_replay_salted,
        "cdc_replay_compacted": _q_cdc_replay_compacted,
        "cdc_replay_evolution": _q_cdc_replay_evolution,
        "cdc_quarantine": _q_cdc_quarantine,
        "cdc_watermarks": _q_cdc_watermarks,
        "cdc_replay_retraction": _q_cdc_replay_retraction,
        "cdc_replay_corrected": _q_cdc_replay_corrected,
        "cdc_time_travel": _q_cdc_time_travel,
        "cdc_recover": _q_cdc_recover,
        "cdc_recover_compacted": _q_cdc_recover_compacted,
        "pt_pollution": _q_pt_pollution,
        # parser analogs (SURVEY.md §2.3-2.5, §2.8)
        "switch_group_agg": A.switch_group_agg,
        "last_event_summary": A.last_event_summary,
        "thin_events": A.thin_events,
        "fanout_directions": A.fanout_directions,
        "path_metadata": A.path_metadata,
        "synthetic_uuids": A.synthetic_uuids,
        # training-data ops
        "dedup_exact": _q_dedup_exact,
        "dedup_minhash_lsh": _q_dedup_minhash,
        "dedup_ngram_jaccard": _q_dedup_ngram_jaccard,
        "dedup_clusters": _q_dedup_clusters,
        "dup_clusters_quality": _q_dup_clusters_quality,
        "doc_frequencies": _q_doc_frequencies,
        "bm25_scores": _q_bm25_scores,
        "tfidf_weights": _q_tfidf_weights,
        "kmeans_embeddings": _q_kmeans,
        "corpus_curation": _q_corpus_curation,
        "corpus_curation_gopher": _q_corpus_curation_gopher,
        "value_histogram": _q_value_histogram,
        "value_quantiles": _q_value_quantiles,
        "approx_quantiles": _q_approx_quantiles,
        "anti_join_customers": _q_anti_join,
        "semi_join_parts": _q_semi_join,
        "token_bigrams": _q_token_bigrams,
        "pmi_collocations": _q_pmi_collocations,
        "zscore_events": _q_zscore_events,
        "grouped_quantiles": _q_grouped_quantiles,
        "rollup_docs": _q_rollup_docs,
        "pivot_events": _q_pivot_events,
        "weighted_sample": _q_weighted_sample,
        "lag_deltas": _q_lag_deltas,
        "intersect_users": _q_intersect_users,
        "except_customers": _q_except_customers,
        "window_dedup": _q_window_dedup,
        "distinct_users_by_type": _q_distinct_users_by_type,
        "user_value_series": _q_user_value_series,
        "top_tokens": _q_top_tokens,
        "value_buckets": _q_value_buckets,
        "mad_by_type": _q_mad_by_type,
        "doc_entropy": _q_doc_entropy,
        "fuzzy_name_pairs": _q_fuzzy_name_pairs,
        "grouped_hll": _q_grouped_hll,
        "revenue_by_nation": _q_revenue_by_nation,
        "bigram_lm_scores": _q_bigram_lm_scores,
        "dedup_simhash": _q_dedup_simhash,
        "dedup_embedding_cosine": _q_dedup_embedding,
        "dedup_lsh_embedding": _q_dedup_lsh_embedding,
        "ann_cosine_topk": _q_ann_topk,
        "ann_ivf_topk": _q_ann_ivf_topk,
        "dim_broadcast_join": _q_dim_broadcast_join,
        "hll_registers": _q_hll_registers,
        "cms_counts": _q_cms_counts,
        "bloom_bits": _q_bloom_bits,
        "token_histogram": _q_token_histogram,
        "asof_state": _q_asof_state,
        "range_join_events": _q_range_join,
        "hopping_window": _q_hopping_window,
        "cdc_lake_diff": _q_cdc_lake_diff,
        "cdc_ivm_view": _q_cdc_ivm_view,
        "cdc_dedup_incremental": _q_cdc_dedup_incremental,
        "cdc_dedup_exact_tokens": _q_cdc_dedup_exact_tokens,
        "lake_token_histogram": _q_lake_token_histogram,
        "length_bucket_batches": _q_length_bucket_batches,
        "mixture_expand": _q_mixture_expand,
        "epoch_order": _q_epoch_order,
        "export_shards": _q_export_shards,
        "chunk_sequences": _q_chunk_sequences,
        "stratified_sample": _q_stratified_sample,
        "top_events_per_user": _q_top_events_per_user,
        "sessionize": _q_sessionize,
        "rolling_avg": _q_rolling_avg,
        "archive_ingest": _q_archive_ingest,
        "ndt7_scrub": _q_ndt7_scrub,
        "ndt5_scrub": _q_ndt5_scrub,
        "ss_parse": _q_ss_parse,
        "snaplog_deltas": _q_snaplog_deltas,
        "pcap_packets": _q_pcap_packets,
        "scamper_hops": _q_scamper_hops,
        "pt_paris_hops": _q_pt_paris_hops,
        "ndt_group_deltas": _q_ndt_group_deltas,
        "text_token_counts": _q_text_tokens,
        "text_quality": _q_text_quality,
        "repetition_scores": _q_repetition_scores,
        "oov_rates": _q_oov_rates,
        "source_quality": _q_source_quality,
        "source_kl": _q_source_kl,
        "doc_fingerprint": _q_doc_fingerprint,
        "lang_id": _q_lang_id,
        "pii_scrub": _q_pii_scrub,
        "contamination_check": _q_contamination,
        "pack_sequences": _q_pack_sequences,
        "multimodal_decode": _q_multimodal,
        "multimodal_real_decode": _q_multimodal_real,
        "multimodal_resize": _q_multimodal_resize,
        "multimodal_audio": _q_multimodal_audio,
        "multimodal_video": _q_multimodal_video,
    }


def oracle_sql() -> dict[str, str]:
    lww = _CHANGELOG_CTE
    evo = """
WITH c AS (
  SELECT CAST(user_id AS VARCHAR) AS doc_id,
         event_id AS last_seq, value, event_type,
         CASE WHEN event_type = 'error' THEN 'delete' ELSE 'insert' END AS op,
         CASE WHEN event_id >= 8000
              THEN CAST(json_extract(props, '$.k') AS BIGINT) END AS k
  FROM events
), r AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY last_seq DESC) rn
  FROM c
)
SELECT doc_id, last_seq, value, event_type, k
FROM r WHERE rn = 1 AND op <> 'delete'
ORDER BY doc_id
"""
    recover = """
WITH c AS (
  SELECT CAST(user_id AS VARCHAR) AS doc_id, event_id AS last_seq,
         value, event_type,
         CASE WHEN event_type = 'error' THEN 'delete' ELSE 'insert' END AS op
  FROM events
  WHERE event_type = 'error' OR value IS NULL OR value <= 600
), r AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY last_seq DESC) rn
  FROM c
)
SELECT doc_id, last_seq, value, event_type
FROM r WHERE rn = 1 AND op <> 'delete'
ORDER BY doc_id
"""
    return {
        "cdc_replay_lww": lww,
        "cdc_replay_resume": lww,
        "cdc_replay_salted": lww,
        "cdc_replay_compacted": lww,
        "cdc_replay_evolution": evo,
        "cdc_recover": recover,
        "cdc_recover_compacted": recover,
        "cdc_quarantine": """
SELECT event_id, CAST(user_id AS VARCHAR) AS doc_id, value
FROM events WHERE event_type <> 'error' AND value > 300
ORDER BY event_id
""",
        "cdc_watermarks": """
SELECT user_id % 8 AS part, max(event_id) AS watermark_seq,
       count(*) AS n_events
FROM events GROUP BY 1 ORDER BY 1
""",
        "switch_group_agg": """
SELECT user_id, date_trunc('hour', ts) AS hour, count(*) AS n_samples,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0
         AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
""",
        "last_event_summary": """
SELECT user_id, arg_max(value, event_id) AS last_value,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE)
         / (100.0 * count(*)) AS mean_value,
       min(value) AS min_value,
       max(value) AS max_value, count(*) AS n_events
FROM events GROUP BY user_id ORDER BY user_id
""",
        "thin_events": """
WITH o AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS cnt
  FROM events
)
SELECT user_id, event_id, value, rn FROM o
WHERE (rn - 1) % 10 = 0 OR rn = cnt
ORDER BY user_id, event_id
""",
        "fanout_directions": """
SELECT event_id, user_id, 'c2s' AS direction, value * 0.5 AS dir_value
FROM events WHERE event_type = 'purchase'
UNION ALL
SELECT event_id, user_id, 's2c' AS direction, value AS dir_value
FROM events WHERE event_type = 'purchase'
ORDER BY event_id, direction
""",
        "path_metadata": """
SELECT doc_id, CAST(regexp_extract(source, 'src(\\d+)', 1) AS BIGINT)
         AS src_num, lang, n_chars
FROM documents ORDER BY doc_id
""",
        "synthetic_uuids": """
SELECT event_id, user_id,
       md5(CAST(user_id AS VARCHAR) || '|' || CAST(event_id AS VARCHAR))
         AS uuid
FROM events ORDER BY event_id
""",
        "dedup_exact": """
SELECT md5(text) AS content_hash, min(doc_id) AS doc_id
FROM documents GROUP BY 1 ORDER BY 1
""",
        "dedup_embedding_cosine": f"""
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 4)
         AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[]))
      >= {_EMB_THRESHOLD}
ORDER BY 1, 2
""",
        "ann_cosine_topk": """
WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings
           WHERE vec_id < 4),
     s AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id >= 4),
     scored AS (
       SELECT q.query_id, s.vec_id,
              list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                     CAST(s.embedding AS DOUBLE[])) AS cos
       FROM q CROSS JOIN s),
     ranked AS (
       SELECT *, row_number() OVER (
         PARTITION BY query_id ORDER BY cos DESC, vec_id) AS rank
       FROM scored)
SELECT query_id, vec_id, round(cos, 4) AS score, rank
FROM ranked WHERE rank <= 10 ORDER BY query_id, rank
""",
        "dim_broadcast_join": """
SELECT r.r_name, n.n_name,
       count(*) AS n_events,
       CAST(sum(CAST(round(e.value * 100) AS BIGINT)) AS DOUBLE) / 100.0
         AS sum_value
FROM events e
JOIN nation n ON n.n_nationkey = e.user_id % 25
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY 1, 2 ORDER BY 1, 2
""",
        "sessionize": """
WITH o AS (
  SELECT user_id, ts, event_id, value,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
), s AS (
  SELECT *, CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT)
              AS session_id
  FROM o
)
SELECT user_id, session_id, min(ts) AS session_start,
       max(ts) AS session_end, count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0
         AS sum_value
FROM s GROUP BY 1, 2 ORDER BY 1, 2
""",
        "rolling_avg": """
SELECT user_id, event_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS DOUBLE)
         / (100.0 * count(*) OVER w) AS moving_avg
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
ORDER BY user_id, event_id
""",
        "archive_ingest": """
SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars,
       CAST(CASE WHEN trim(text) = '' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
            AS BIGINT) AS n_words
FROM documents ORDER BY doc_id
""",
        "multimodal_real_decode": """
WITH p AS (
  SELECT doc_id,
         doc_id % 16 + 1 AS w, doc_id % 8 + 1 AS h,
         (doc_id * 7) % 256 AS a, doc_id % 251 AS b,
         CASE WHEN doc_id % 17 = 0 THEN 0
              WHEN doc_id % 3 = 0 THEN 3
              WHEN doc_id % 2 = 0 THEN 3 ELSE 1 END AS c
  FROM documents
)
SELECT doc_id,
       CASE WHEN c = 0 THEN 0 ELSE w END AS width,
       CASE WHEN c = 0 THEN 0 ELSE h END AS height,
       c AS channels,
       CASE WHEN c = 0 THEN 0.0
            ELSE (a + (w * h * c - 1) * b) / (w * h * c) END AS mean_luma,
       c <> 0 AS decoded_ok
FROM p ORDER BY doc_id
""",
        "multimodal_resize": """
WITH p AS (
  SELECT doc_id,
         doc_id % 16 + 1 AS w, doc_id % 8 + 1 AS h,
         (doc_id * 7) % 256 AS a, doc_id % 251 AS b,
         CASE WHEN doc_id % 17 = 0 THEN 0
              WHEN doc_id % 3 = 0 THEN 3
              WHEN doc_id % 2 = 0 THEN 3 ELSE 1 END AS c
  FROM documents
), n0 AS (
  -- pixel-center NN sampling: output cell i reads source index
  -- (2i+1)*in // (2*out); the origin pixel is sampled where that is 0
  SELECT doc_id,
         len(list_filter(generate_series(0, 3),
                         i -> (2 * i + 1) * h < 2 * 4)) AS n0r,
         len(list_filter(generate_series(0, 4),
                         i -> (2 * i + 1) * w < 2 * 5)) AS n0c
  FROM p
)
SELECT p.doc_id,
       CASE WHEN c = 0 THEN 0 ELSE 5 END AS width,
       CASE WHEN c = 0 THEN 0 ELSE 4 END AS height,
       c AS channels,
       CASE WHEN c = 0 THEN 0.0
            ELSE (b * (4 * 5 * c) + (a - b) * n0r * n0c)
                 / CAST(4 * 5 * c AS DOUBLE) END AS mean_luma,
       c <> 0 AS decoded_ok
FROM p JOIN n0 USING (doc_id) ORDER BY p.doc_id
""",
        "multimodal_audio": """
WITH p AS (
  SELECT doc_id,
         doc_id % 32 + 4 AS ns,
         CASE WHEN doc_id % 4 = 0 THEN 2 ELSE 1 END AS c,
         8000 + (doc_id % 3) * 4000 AS rate,
         (doc_id * 29) % 2000 - 1000 AS a,
         (doc_id * 13) % 1000 - 500 AS b,
         doc_id % 17 = 0 AS corrupt
  FROM documents
), t AS (SELECT *, ns * c AS total FROM p)
SELECT doc_id,
       CASE WHEN corrupt THEN 0 ELSE rate END AS sample_rate,
       CASE WHEN corrupt THEN 0 ELSE c END AS channels,
       CASE WHEN corrupt THEN 0 ELSE ns END AS n_samples,
       CASE WHEN corrupt THEN 0.0
            ELSE (a + (total - 1) * b) / CAST(total AS DOUBLE)
       END AS mean_amp,
       CASE WHEN corrupt THEN 0.0
            ELSE (a * a + (total - 1) * b * b) / CAST(total AS DOUBLE)
       END AS mean_square,
       NOT corrupt AS decoded_ok
FROM t ORDER BY doc_id
""",
        "multimodal_video": """
WITH p AS (
  SELECT doc_id, doc_id % 9 + 2 AS nf, 5 + doc_id % 3 AS fps,
         doc_id % 4 + 1 AS h, doc_id % 5 + 1 AS w,
         doc_id % 17 = 0 AS corrupt
  FROM documents
), ok AS (
  SELECT doc_id, nf, fps, h, w,
         UNNEST(list_distinct(list_filter(
             generate_series(0, nf - 1),
             i -> i % 4 = 0 OR i = nf - 1))) AS fi
  FROM p WHERE NOT corrupt
)
SELECT doc_id, fi AS frame_idx, nf AS n_frames, fps, w AS width,
       h AS height,
       CAST((doc_id * 7 + fi * 11) % 256 AS DOUBLE) AS mean_luma,
       TRUE AS decoded_ok
FROM ok
UNION ALL
SELECT doc_id, -1, 0, 0, 0, 0, 0.0, FALSE FROM p WHERE corrupt
ORDER BY doc_id, frame_idx
""",
        "ndt7_scrub": """
WITH c AS (
  SELECT user_id, event_id, CAST(ROUND(value * 100) AS BIGINT) AS cents
  FROM events
), last AS (
  SELECT user_id AS u,
         arg_max(cents, event_id) AS lc,
         max(event_id) AS le,
         count(*) AS n
  FROM c GROUP BY user_id
)
SELECT 'ndt-' || u AS id,
       't-' || u AS test_time,
       'bbr' AS congestion_control,
       8.0 * lc / (le + 1) AS mean_throughput_mbps,
       lc / 1000.0 AS min_rtt,
       (abs(lc) % 7) / (abs(lc) + 1.0) AS loss_rate,
       n AS n_measurements,
       CAST(0 AS BIGINT) AS n_conninfo_remaining,
       n AS n_conninfo_scrubbed
FROM last ORDER BY id
""",
        "ndt5_scrub": """
WITH c AS (
  SELECT user_id, event_id, CAST(ROUND(value * 100) AS BIGINT) AS cents
  FROM events
), last AS (
  SELECT user_id AS u, arg_max(cents, event_id) AS lc
  FROM c GROUP BY user_id
), s2c AS (
  SELECT 'ndt5-' || u || '-s2c' AS id, 's2c' AS direction,
         't5-' || u AS test_time, 'cubic' AS congestion_control,
         lc / 50.0 AS mean_throughput_mbps,
         CASE WHEN u % 5 = 0 THEN lc / 1000.0
              ELSE CAST(lc AS DOUBLE) END AS min_rtt,
         CASE WHEN u % 5 = 0 THEN (abs(lc) % 7) / (abs(lc) + 1.0)
              ELSE 0.0 END AS loss_rate,
         TRUE AS client_metadata_stripped
  FROM last WHERE u % 3 IN (0, 2)
), c2s AS (
  SELECT 'ndt5-' || u || '-c2s' AS id, 'c2s' AS direction,
         't5-' || u AS test_time, 'unknown' AS congestion_control,
         lc / 100.0 AS mean_throughput_mbps,
         -1.0 AS min_rtt, -1.0 AS loss_rate,
         TRUE AS client_metadata_stripped
  FROM last WHERE u % 3 IN (1, 2)
)
SELECT * FROM s2c UNION ALL SELECT * FROM c2s ORDER BY id, direction
""",
        "cdc_time_travel": """
WITH seg0 AS (
  SELECT * FROM events ORDER BY event_id LIMIT 4000
), c AS (
  SELECT CAST(user_id AS VARCHAR) AS doc_id,
         event_id AS last_seq, value, event_type,
         CASE WHEN event_type = 'error' THEN 'delete' ELSE 'insert' END AS op
  FROM seg0
), r AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY last_seq DESC) rn
  FROM c
)
SELECT doc_id, last_seq, value, event_type
FROM r WHERE rn = 1 AND op <> 'delete'
ORDER BY doc_id
""",
        "cdc_replay_corrected": """
WITH c AS (
  SELECT CAST(user_id AS VARCHAR) AS doc_id, event_id AS last_seq,
         CASE WHEN event_type = 'purchase' THEN value + 1000
              ELSE value END AS value,
         CASE WHEN event_type = 'signup' THEN NULL
              ELSE event_type END AS event_type,
         CASE WHEN event_type = 'error' THEN 'delete' ELSE 'insert' END AS op
  FROM events
), r AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY last_seq DESC) rn
  FROM c
)
SELECT doc_id, last_seq, value, event_type
FROM r WHERE rn = 1 AND op <> 'delete'
ORDER BY doc_id
""",
        "pt_pollution": """
WITH b AS (
  SELECT user_id, event_id, event_id % 17 AS dest,
         (event_id * 7 + user_id) % 17 AS last_hop,
         event_id % 3 <> 0 AS complete
  FROM events
), w AS (
  SELECT *, lead(dest, 1) OVER win AS d1, lead(event_id, 1) OVER win AS e1,
         lead(dest, 2) OVER win AS d2, lead(event_id, 2) OVER win AS e2
  FROM b WINDOW win AS (PARTITION BY user_id ORDER BY event_id)
)
SELECT user_id, event_id, dest, last_hop, complete,
       (NOT complete AND (COALESCE(d1 = last_hop AND dest <> d1, false)
                          OR COALESCE(d2 = last_hop AND dest <> d2, false)))
         AS polluted,
       CASE WHEN NOT complete AND d1 = last_hop AND dest <> d1 THEN e1
            WHEN NOT complete AND d2 = last_hop AND dest <> d2 THEN e2
       END AS retracted_by
FROM w ORDER BY user_id, event_id
""",
        "cdc_replay_retraction": """
WITH b AS (
  SELECT user_id, event_id, value, event_type, event_id % 17 AS dest,
         (event_id * 7 + user_id) % 17 AS last_hop,
         event_id % 3 <> 0 AS complete
  FROM events
), w AS (
  SELECT *, lead(dest, 1) OVER win AS d1, lead(dest, 2) OVER win AS d2
  FROM b WINDOW win AS (PARTITION BY user_id ORDER BY event_id)
)
SELECT CAST(event_id AS VARCHAR) AS doc_id, event_id AS last_seq,
       value, event_type
FROM w
WHERE NOT (NOT complete
           AND (COALESCE(d1 = last_hop AND dest <> d1, false)
                OR COALESCE(d2 = last_hop AND dest <> d2, false)))
ORDER BY doc_id
""",
        "ss_parse": """
SELECT user_id AS cid, event_id AS poll_time,
       '10.0.0.' || CAST(user_id % 200 + 1 AS VARCHAR) AS local_address,
       '192.0.2.' || CAST(event_id % 250 + 1 AS VARCHAR) AS rem_address,
       5000 + event_id % 1000 AS rem_port,
       event_id * 1000000 + user_id % 1000000 AS start_time_stamp,
       CAST(round(value * 100) AS BIGINT) AS data_octets_out,
       event_id % 997 AS segs_out,
       1489539600 AS log_time
FROM events ORDER BY cid, poll_time
""",
        "snaplog_deltas": """
WITH o AS (
  SELECT user_id AS cid, event_id,
         row_number() OVER w - 1 AS snap_index,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY event_id
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS data_octets_out,
         event_id % 997 AS segs_out
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
)
SELECT cid, snap_index, event_id AS snap_time_stamp, data_octets_out,
       segs_out,
       data_octets_out - lag(data_octets_out) OVER w AS d_data_octets_out,
       segs_out - lag(segs_out) OVER w AS d_segs_out
FROM o
WINDOW w AS (PARTITION BY cid ORDER BY snap_index)
ORDER BY cid, snap_index
""",
        "ndt_group_deltas": """
WITH o AS (
  SELECT user_id AS cid, event_id,
         row_number() OVER w - 1 AS snap_index,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY event_id
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS c2s_total,
         event_id % 997 AS segs_out
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
), d AS (
  SELECT cid, 0 AS direction, snap_index, c2s_total AS data_octets_out,
         segs_out FROM o
  UNION ALL
  SELECT cid, 1, snap_index, c2s_total * 3, segs_out FROM o
)
SELECT cid, direction, snap_index, data_octets_out,
       data_octets_out - lag(data_octets_out) OVER
         (PARTITION BY cid, direction ORDER BY snap_index)
         AS d_data_octets_out,
       segs_out,
       CASE WHEN cid % 10 = 0 THEN NULL
            ELSE '198.51.100.' || CAST(cid % 200 AS VARCHAR) END
         AS client_ip,
       CASE WHEN cid % 10 = 0 THEN NULL
            ELSE '10.0.' || CAST(cid % 250 AS VARCHAR) || '.1' END
         AS server_ip,
       CASE WHEN cid % 10 = 0 THEN NULL
            ELSE 'os-' || CAST(cid % 3 AS VARCHAR) END AS client_os,
       cid % 10 = 0 AS no_meta
FROM d ORDER BY cid, direction, snap_index
""",
        "pcap_packets": """
SELECT user_id, event_id AS ts_sec, user_id % 1000000 AS ts_usec,
       '10.0.' || CAST(user_id % 250 AS VARCHAR) || '.1' AS src_ip,
       '192.0.2.' || CAST(event_id % 250 + 1 AS VARCHAR) AS dst_ip,
       64 - event_id % 32 AS ttl,
       6 AS proto,
       event_id % 64 AS ip_payload_len
FROM events ORDER BY user_id, ts_sec
""",
        "pt_paris_hops": """
WITH n AS (
  SELECT user_id, event_id,
         '192.0.2.' || CAST(event_id % 250 + 1 AS VARCHAR) AS ip,
         'host-' || CAST(user_id % 10 AS VARCHAR) || '.example' AS hostname,
         CAST(event_id % 1000 AS DOUBLE) / 1000 AS r,
         row_number() OVER w - 1 AS rnk,
         count(*) OVER (PARTITION BY user_id) AS cnt,
         lag('192.0.2.' || CAST(event_id % 250 + 1 AS VARCHAR)) OVER w
           AS prev_ip,
         last_value('192.0.2.' || CAST(event_id % 250 + 1 AS VARCHAR))
           OVER (PARTITION BY user_id ORDER BY event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING
                 AND UNBOUNDED FOLLOWING) AS lhop
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
)
SELECT user_id AS cid,
       cnt - 1 - rnk AS hop_index,
       '20170315_mlab1-lga03_' ||
         CASE WHEN rnk = 0
              THEN '10.0.' || CAST(user_id % 250 AS VARCHAR) || '.1'
              ELSE prev_ip END AS hop_id,
       CASE WHEN rnk = 0
            THEN '10.0.' || CAST(user_id % 250 AS VARCHAR) || '.1'
            ELSE prev_ip END AS source_ip,
       CASE WHEN rnk = 0 THEN '' ELSE hostname END AS source_hostname,
       ip AS dst_ip, r AS rtt0, 4 AS n_rtts,
       lhop AS last_hop, false AS reached_dest
FROM n
ORDER BY cid, hop_index
""",
        "scamper_hops": """
WITH n AS (
  SELECT user_id, event_id,
         '192.0.2.' || CAST(event_id % 250 + 1 AS VARCHAR) AS addr,
         event_id % 4 + 1 AS q_ttl,
         'host-' || CAST(user_id % 10 AS VARCHAR) AS hostname,
         count(*) OVER (PARTITION BY user_id) AS nodec
  FROM events
)
SELECT '20170315_' || hostname || '_' || addr AS hop_id,
       addr, q_ttl, '192.0.2.77' AS dst, nodec, hostname
FROM n ORDER BY hop_id
""",
        "text_token_counts": f"""
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
         AS n_ws_tokens,
       len(regexp_extract_all(text, '{_BPE_PAT}')) AS n_bpe_tokens
FROM documents ORDER BY doc_id
""",
        "text_quality": f"""
SELECT doc_id,
       length(text) AS n_chars,
       CASE WHEN trim(text) = '' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
         AS n_words,
       round((length(text) - greatest(
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
               - 1, 0))
             / CAST(greatest(
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\\s+')) END,
               1) AS DOUBLE), 6) AS avg_word_len,
       round(len(regexp_extract_all(lower(text), '{_STOP_PAT}'))
             / CAST(greatest(
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\\s+')) END,
               1) AS DOUBLE), 6) AS stop_ratio,
       round(len(regexp_extract_all(text, '[^\\w\\s]'))
             / CAST(greatest(length(text), 1) AS DOUBLE), 6) AS punct_ratio
FROM documents ORDER BY doc_id
""",
        "doc_fingerprint": """
SELECT doc_id,
       md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))
         AS fingerprint
FROM documents ORDER BY doc_id
""",
        "multimodal_decode": f"""
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS payload_bytes,
       1 + (CAST(('0x' || substr(md5('{_DECODER_SALT}' || text), 1, 2))
                 AS BIGINT) % 64) AS width,
       1 + (CAST(('0x' || substr(md5('{_DECODER_SALT}' || text), 3, 2))
                 AS BIGINT) % 64) AS height,
       md5('{_DECODER_SALT}' || text) AS feature_hex
FROM documents ORDER BY doc_id
""",
        "pack_sequences": f"""
WITH toks AS (
  SELECT doc_id, doc_id // 64 AS bucket,
         list_transform(regexp_extract_all(text, '{_BPE_PAT}'),
                        x -> length(x)) AS tk
  FROM documents
),
exp AS (
  SELECT doc_id, bucket, generate_subscripts(tk, 1) AS i, unnest(tk) AS t
  FROM toks
),
pos AS (
  SELECT bucket, t,
         row_number() OVER (PARTITION BY bucket ORDER BY doc_id, i) - 1 AS p
  FROM exp
)
SELECT bucket * 1048576 + p // 128 AS seq_id,
       count(*) AS n_tok,
       string_agg(t, ',' ORDER BY p) AS tokens_csv
FROM pos GROUP BY bucket, p // 128 ORDER BY seq_id
""",
        # sketch family: the portable-hash design makes the full LSH
        # machinery SQL-reproducible (see the _sql_* builders above)
        "ann_ivf_topk": _sql_ann_ivf(8, 3, 10),
        "hll_registers": _sql_hll_registers(8),
        "cms_counts": _sql_cms_counts(4, 64),
        "bloom_bits": _sql_bloom_bits(4096, 4),
        "asof_state": """
WITH r AS (
  SELECT user_id, event_id AS since,
         CAST(round(value * 100) AS BIGINT) AS state
  FROM events WHERE event_id % 50 = 0
)
SELECT e.event_id, e.user_id, e.value, r.state
FROM events e ASOF LEFT JOIN r
  ON e.user_id = r.user_id AND e.event_id >= r.since
ORDER BY e.user_id, e.event_id
""",
        "chunk_sequences": f"""
WITH toks AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '{_BPE_PAT}'),
                        x -> length(x)) AS tk
  FROM documents
), base AS (
  SELECT doc_id, tk, len(tk) AS n,
         CASE WHEN len(tk) <= 128 THEN 1
              ELSE CAST(ceil((len(tk) - 128) / 96.0) AS BIGINT) + 1
         END AS n_chunks
  FROM toks
), ch AS (
  SELECT doc_id, tk, n, UNNEST(range(0, n_chunks)) AS chunk_idx FROM base
)
SELECT doc_id, chunk_idx,
       least(chunk_idx * 96 + 128, n) - chunk_idx * 96 AS n_tok,
       array_to_string(
         list_transform(tk[chunk_idx * 96 + 1 :
                           least(chunk_idx * 96 + 128, n)],
                        x -> CAST(x AS VARCHAR)), ',') AS tokens_csv
FROM ch ORDER BY doc_id, chunk_idx
""",
        "length_bucket_batches": f"""
WITH tok AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '{_BPE_PAT}')) AS n_tok
  FROM documents
), b AS (
  SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
         CAST(CAST(n_tok > 32 AS INT) + CAST(n_tok > 64 AS INT)
              + CAST(n_tok > 128 AS INT) + CAST(n_tok > 256 AS INT)
              AS BIGINT) AS bucket
  FROM tok
), r AS (
  SELECT *, CAST((row_number() OVER (PARTITION BY bucket ORDER BY doc_id)
                  - 1) // 16 AS BIGINT) AS batch_idx
  FROM b
)
SELECT doc_id, n_tok, bucket, batch_idx,
       CAST(max(n_tok) OVER (PARTITION BY bucket, batch_idx)
            AS BIGINT) AS pad_to,
       CAST(max(n_tok) OVER (PARTITION BY bucket, batch_idx) - n_tok
            AS BIGINT) AS waste
FROM r ORDER BY doc_id
""",
        "export_shards": f"""
WITH tok AS (
  SELECT CAST(doc_id AS VARCHAR) AS doc_id,
         len(regexp_extract_all(text, '{_BPE_PAT}')) AS n_tok
  FROM documents
)
SELECT CAST(({_md5le64_sql('doc_id')}) % 16 AS BIGINT) AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tok) AS BIGINT) AS n_tok
FROM tok GROUP BY 1 ORDER BY 1
""",
        "epoch_order": f"""
SELECT CAST(doc_id AS VARCHAR) AS doc_id,
       CAST(row_number() OVER (
           ORDER BY {_md5le64_sql("CAST(doc_id AS VARCHAR) || '|e3|'")},
                    CAST(doc_id AS VARCHAR)) - 1 AS BIGINT) AS epoch_rank
FROM documents ORDER BY doc_id
""",
        "mixture_expand": f"""
WITH w AS (
  SELECT doc_id, source,
         CASE source WHEN 'src0' THEN 0.5 WHEN 'src1' THEN 2.25
              ELSE 1.0 END AS wgt
  FROM documents
), c AS (
  SELECT doc_id, source,
         CAST(floor(wgt) AS BIGINT)
         + CASE WHEN ({_md5le64_sql("CAST(doc_id AS VARCHAR)")}) % 65536
                     < CAST(round((wgt - floor(wgt)) * 65536) AS BIGINT)
                THEN 1 ELSE 0 END AS n_copies
  FROM w
)
SELECT doc_id, source, UNNEST(range(0, n_copies)) AS copy_idx
FROM c WHERE n_copies > 0 ORDER BY doc_id, copy_idx
""",
        "stratified_sample": f"""
SELECT doc_id, lang, source FROM documents
WHERE ({_md5le64_sql('CAST(doc_id AS VARCHAR)')}) % 65536 <
      CASE lang WHEN 'en' THEN 16384 WHEN 'zh' THEN 49152
                WHEN 'de' THEN 32768 ELSE 65536 END
ORDER BY doc_id
""",
        "top_events_per_user": """
SELECT user_id,
       row_number() OVER (PARTITION BY user_id
                          ORDER BY value DESC, event_id) - 1 AS rank,
       event_id, value
FROM events
QUALIFY rank < 3
ORDER BY user_id, rank
""",
        "range_join_events": """
WITH iv AS (
  SELECT event_id AS interval_id, event_id AS lo, event_id + 150 AS hi
  FROM events WHERE event_id % 97 = 0
)
SELECT e.event_id, e.user_id, e.value, iv.interval_id
FROM events e JOIN iv ON e.event_id >= iv.lo AND e.event_id < iv.hi
ORDER BY e.event_id, iv.interval_id
""",
        "hopping_window": """
WITH e AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS cents,
         CAST(floor(epoch(ts)) AS BIGINT) // 3600 AS w_last
  FROM events
), x AS (
  SELECT user_id, cents,
         UNNEST(range(w_last - 2, w_last + 1)) AS "window"
  FROM e
)
SELECT user_id, "window", COUNT(*) AS n, SUM(cents) / 100.0 AS sum_value
FROM x GROUP BY user_id, "window" ORDER BY user_id, "window"
""",
        "cdc_lake_diff": """
WITH c AS (
  SELECT CAST(user_id AS VARCHAR) AS doc_id, event_id AS seq, value,
         event_type,
         CASE WHEN event_type = 'error' THEN 'delete' ELSE 'insert' END
           AS op,
         row_number() OVER (ORDER BY event_id) AS rnk
  FROM events
), s1 AS (
  SELECT doc_id, seq FROM (
    SELECT doc_id, seq, op,
           row_number() OVER (PARTITION BY doc_id ORDER BY seq DESC) rn
    FROM c WHERE rnk <= 4000)
  WHERE rn = 1 AND op <> 'delete'
), s2 AS (
  SELECT doc_id, seq, value, event_type FROM (
    SELECT doc_id, seq, value, event_type, op,
           row_number() OVER (PARTITION BY doc_id ORDER BY seq DESC) rn
    FROM c)
  WHERE rn = 1 AND op <> 'delete'
)
SELECT COALESCE(s2.doc_id, s1.doc_id) AS doc_id,
       CASE WHEN s1.doc_id IS NULL THEN 'insert'
            WHEN s2.doc_id IS NULL THEN 'delete'
            ELSE 'update' END AS change_op,
       CAST(s2.seq AS DOUBLE) AS last_seq, CAST(s2.value AS DOUBLE) AS value,
       s2.event_type
FROM s1 FULL JOIN s2 ON s1.doc_id = s2.doc_id
WHERE s1.doc_id IS NULL OR s2.doc_id IS NULL OR s1.seq <> s2.seq
ORDER BY doc_id
""",
        "cdc_ivm_view": """
WITH c AS (
  SELECT CAST(user_id AS VARCHAR) AS doc_id, event_id AS seq, value,
         event_type,
         CASE WHEN event_type = 'error' THEN 'delete' ELSE 'insert' END AS op
  FROM events
), r AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY seq DESC) rn
  FROM c
), s AS (
  SELECT doc_id, value, event_type FROM r WHERE rn = 1 AND op <> 'delete'
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM s GROUP BY event_type ORDER BY event_type
""",
        "token_histogram": r"""
WITH toks AS (
  SELECT UNNEST(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents WHERE trim(text) <> ''
)
SELECT token, count(*) AS n
FROM toks WHERE token <> '' GROUP BY token ORDER BY token
""",
        "dedup_minhash_lsh": _sql_dedup_minhash(),
        "cdc_dedup_incremental": _sql_cdc_dedup_incremental(),
        "lake_token_histogram": f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
final AS (
  SELECT CAST(d.doc_id AS VARCHAR) AS doc_id,
         CASE WHEN d.doc_id % 5 = 0 THEN u.text ELSE d.text END AS text
  FROM documents d
  CROSS JOIN nn
  LEFT JOIN documents u ON u.doc_id = (d.doc_id + 1) % nn.n
  WHERE d.doc_id % 7 <> 0
), tok AS (
  SELECT list_transform(regexp_extract_all(text, '{_BPE_PAT}'),
                        x -> length(x)) AS tk
  FROM final
)
SELECT CAST(t.id AS BIGINT) AS token_id, CAST(count(*) AS BIGINT) AS n
FROM tok, UNNEST(tk) AS t(id) GROUP BY 1 ORDER BY 1
""",
        "cdc_dedup_exact_tokens": f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
final AS (
  SELECT CAST(d.doc_id AS VARCHAR) AS doc_id,
         CASE WHEN d.doc_id % 5 = 0 THEN u.text ELSE d.text END AS text
  FROM documents d
  CROSS JOIN nn
  LEFT JOIN documents u ON u.doc_id = (d.doc_id + 1) % nn.n
  WHERE d.doc_id % 7 <> 0
), tok AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '{_BPE_PAT}'),
                        x -> length(x)) AS tk
  FROM final
)
SELECT min(doc_id) AS doc_id, CAST(count(*) AS BIGINT) AS n_dups
FROM tok GROUP BY tk ORDER BY doc_id
""",
        "dedup_ngram_jaccard": _sql_dedup_ngram_jaccard(0.3),
        "dedup_clusters": _sql_dedup_clusters(0.3),
        "dup_clusters_quality": _sql_dup_clusters_quality(0.3),
        "doc_frequencies": _sql_doc_frequencies(),
        "bm25_scores": _sql_bm25_scores(_BM25_TERMS),
        "tfidf_weights": _sql_tfidf_weights(_BM25_TERMS),
        "kmeans_embeddings": _sql_kmeans(8, 64, 2, 11),
        "corpus_curation": _sql_corpus_curation("en", 20, 0.3),
        "corpus_curation_gopher": _sql_corpus_curation("en", 20, 0.3, 0.6),
        "value_histogram": _sql_value_histogram(0.0, 400.0, 20),
        "value_quantiles": _sql_value_quantiles(_QUANTILE_QS),
        "approx_quantiles": _sql_approx_quantiles(_QUANTILE_QS, 4096),
        "anti_join_customers": _SQL_ANTI_JOIN,
        "semi_join_parts": _SQL_SEMI_JOIN,
        "token_bigrams": _sql_token_bigrams(3),
        "pmi_collocations": _sql_pmi_collocations(5),
        "zscore_events": _SQL_ZSCORE_EVENTS,
        "grouped_quantiles": _sql_grouped_quantiles(_GQ_QS),
        "rollup_docs": _SQL_ROLLUP_DOCS,
        "pivot_events": _sql_pivot_events(_PIVOT_TYPES),
        "weighted_sample": _sql_weighted_sample(50),
        "lag_deltas": _SQL_LAG_DELTAS,
        "intersect_users": _SQL_INTERSECT_USERS,
        "except_customers": """
SELECT DISTINCT c_custkey FROM customer
EXCEPT
SELECT DISTINCT user_id FROM events
ORDER BY c_custkey
""",
        "window_dedup": """
WITH l AS (
  SELECT event_id, user_id, event_type,
         epoch_us(ts) - lag(epoch_us(ts)) OVER
           (PARTITION BY user_id, event_type ORDER BY ts, event_id) AS gap_us
  FROM events
)
SELECT user_id, event_type, event_id
FROM l WHERE gap_us IS NULL OR gap_us >= 3600000000
ORDER BY event_id
""",
        "distinct_users_by_type": """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
""",
        "user_value_series": """
SELECT user_id, count(value) AS n,
       coalesce(string_agg(CAST(CAST(round(value * 100) AS BIGINT)
                                AS VARCHAR), ','
                           ORDER BY ts, event_id), '') AS series_csv
FROM events GROUP BY user_id ORDER BY user_id
""",
        "top_tokens": r"""
WITH toks AS (
  SELECT UNNEST(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents WHERE trim(text) <> ''
)
SELECT token, count(*) AS n
FROM toks WHERE token <> '' GROUP BY token
ORDER BY n DESC, token LIMIT 50
""",
        "value_buckets": """
WITH q AS (
  SELECT percentile_disc(0.25) WITHIN GROUP (ORDER BY value) AS q1,
         percentile_disc(0.5)  WITHIN GROUP (ORDER BY value) AS q2,
         percentile_disc(0.75) WITHIN GROUP (ORDER BY value) AS q3
  FROM events WHERE value IS NOT NULL
)
SELECT e.event_id,
       CASE WHEN e.value <= q.q1 THEN 0
            WHEN e.value <= q.q2 THEN 1
            WHEN e.value <= q.q3 THEN 2 ELSE 3 END AS bucket
FROM events e, q WHERE e.value IS NOT NULL
ORDER BY e.event_id
""",
        "mad_by_type": """
WITH m AS (
  SELECT event_type,
         percentile_disc(0.5) WITHIN GROUP (ORDER BY value) AS med
  FROM events WHERE value IS NOT NULL GROUP BY event_type
), d AS (
  SELECT e.event_type,
         abs(round(e.value * 100) - round(m.med * 100)) AS ad
  FROM events e JOIN m ON e.event_type = m.event_type
  WHERE e.value IS NOT NULL
)
SELECT d.event_type, m.med AS median,
       percentile_disc(0.5) WITHIN GROUP (ORDER BY d.ad) / 100.0 AS mad
FROM d JOIN m ON d.event_type = m.event_type
GROUP BY d.event_type, m.med
ORDER BY d.event_type
""",
        "doc_entropy": r"""
WITH toks AS (
  SELECT doc_id, UNNEST(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents WHERE trim(text) <> ''
), c AS (
  SELECT doc_id, token, count(*) AS c FROM toks WHERE token <> ''
  GROUP BY doc_id, token
), t AS (SELECT doc_id, sum(c) AS tot FROM c GROUP BY doc_id)
SELECT c.doc_id, CAST(t.tot AS BIGINT) AS n_tok,
       round(-sum((c.c / t.tot) * ln(c.c / t.tot)), 4) + 0.0 AS entropy
FROM c JOIN t USING (doc_id)
GROUP BY c.doc_id, t.tot
ORDER BY c.doc_id
""",
        "fuzzy_name_pairs": _SQL_FUZZY_NAME_PAIRS,
        "grouped_hll": _sql_grouped_hll(8),
        "revenue_by_nation": _SQL_REVENUE_BY_NATION,
        "bigram_lm_scores": _SQL_BIGRAM_LM,
        "dedup_simhash": _sql_dedup_simhash(10),
        "dedup_lsh_embedding": _sql_dedup_lsh_embedding(6, _EMB_THRESHOLD),
        "lang_id": _sql_lang_id(),
        "pii_scrub": _sql_pii_scrub(),
        "contamination_check": _sql_contamination(),
        "source_kl": r"""
WITH toks AS (
  SELECT source, UNNEST(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents WHERE text IS NOT NULL AND trim(text) <> ''
), f AS (SELECT source, token FROM toks WHERE token <> ''),
sc AS (SELECT source, token, count(*) AS n FROM f GROUP BY 1, 2),
ct AS (SELECT token, sum(n) AS n_c FROM sc GROUP BY 1),
tot AS (SELECT sum(n) AS t FROM sc),
st AS (SELECT source, sum(n) AS t_s FROM sc GROUP BY 1)
SELECT sc.source, CAST(st.t_s AS BIGINT) AS n_tok,
       floor(sum((sc.n / st.t_s)
                 * ln((sc.n / st.t_s) / (ct.n_c / tot.t))) * 1e4 + 0.5)
           / 1e4 + 0.0 AS kl_nats
FROM sc
JOIN ct USING (token)
JOIN st ON st.source = sc.source
CROSS JOIN tot
GROUP BY sc.source, st.t_s ORDER BY sc.source
""",
        "source_quality": f"""
WITH q AS (
  SELECT source, length(text) AS c,
         CASE WHEN trim(coalesce(text, '')) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS w,
         len(regexp_extract_all(lower(text), '{_STOP_PAT}')) AS s,
         len(regexp_extract_all(text, '[^\\w\\s]')) AS p
  FROM documents
)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(c) AS BIGINT) AS total_chars,
       CAST(sum(w) AS BIGINT) AS total_words,
       floor(sum(s) / CAST(greatest(sum(w), 1) AS DOUBLE) * 1e4 + 0.5)
           / 1e4 + 0.0 AS stop_ratio,
       floor(sum(p) / CAST(greatest(sum(c), 1) AS DOUBLE) * 1e4 + 0.5)
           / 1e4 + 0.0 AS punct_ratio
FROM q GROUP BY source ORDER BY source
""",
        "oov_rates": r"""
WITH toks AS (
  SELECT doc_id, UNNEST(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents WHERE text IS NOT NULL AND trim(text) <> ''
), filt AS (SELECT doc_id, token FROM toks WHERE token <> ''),
hist AS (SELECT token, count(*) AS n FROM filt GROUP BY token),
vocab AS (SELECT token FROM hist ORDER BY n DESC, token ASC LIMIT 20),
per AS (
  SELECT doc_id, count(*) AS n_tok,
         count(*) FILTER (
             WHERE token NOT IN (SELECT token FROM vocab)) AS n_oov
  FROM filt GROUP BY doc_id
)
SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
       CAST(n_oov AS BIGINT) AS n_oov,
       floor(n_oov / n_tok * 1e4 + 0.5) / 1e4 + 0.0 AS oov_rate
FROM per ORDER BY doc_id
""",
        "repetition_scores": r"""
WITH toks AS (
  SELECT doc_id,
         UNNEST(regexp_split_to_array(trim(text), '\s+')) AS token,
         UNNEST(generate_series(
             1, len(regexp_split_to_array(trim(text), '\s+')))) AS i
  FROM documents WHERE trim(text) <> ''
), wc AS (
  SELECT doc_id, token, count(*) AS c FROM toks GROUP BY 1, 2
), ws AS (
  SELECT doc_id, sum(c) AS n_tok, max(c) AS topw, count(*) AS uniqw
  FROM wc GROUP BY 1
), bi AS (
  SELECT a.doc_id, a.token || ' ' || b.token AS g
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
), bc AS (SELECT doc_id, g, count(*) AS c FROM bi GROUP BY 1, 2),
bs AS (SELECT doc_id, sum(c) AS nb, max(c) AS topb FROM bc GROUP BY 1),
tri AS (
  SELECT a.doc_id, a.token || ' ' || b.token || ' ' || c.token AS g
  FROM toks a
  JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  JOIN toks c ON a.doc_id = c.doc_id AND c.i = a.i + 2
), tc AS (SELECT doc_id, g, count(*) AS c FROM tri GROUP BY 1, 2),
ts AS (SELECT doc_id, sum(c) AS nt, count(*) AS uniqt FROM tc GROUP BY 1)
SELECT ws.doc_id, CAST(ws.n_tok AS BIGINT) AS n_tok,
  floor((1.0 - uniqw / ws.n_tok) * 1e4 + 0.5) / 1e4 + 0.0 AS dup_word_frac,
  floor((topw / ws.n_tok) * 1e4 + 0.5) / 1e4 + 0.0 AS top_word_frac,
  coalesce(floor((topb / nb) * 1e4 + 0.5) / 1e4, 0.0) + 0.0
      AS top_bigram_frac,
  coalesce(floor((1.0 - uniqt / nt) * 1e4 + 0.5) / 1e4, 0.0) + 0.0
      AS dup_trigram_frac
FROM ws LEFT JOIN bs USING (doc_id) LEFT JOIN ts USING (doc_id)
ORDER BY ws.doc_id
""",
    }
