"""Incremental MinHash signature-index maintenance over a CDC lake.

The dedup twin of ops/ivm.py: near-duplicate detection at corpus scale
needs a signature per document, and recomputing the whole corpus after
every ingest commit is exactly the rescan CDC exists to avoid. This module
maintains a MinHash signature table CO-PARTITIONED with the lake (one
signature file per lake partition) and refreshes it from manifest deltas:

- a partition whose live-file list is UNCHANGED between the index's as-of
  version and the lake head cannot contain changed docs — its signature
  file is carried forward by reference, never read, never rewritten;
- a dirty partition is re-merged (same LWW merge the lake readers use),
  and only docs whose winning ``sequence_number`` differs from the one
  recorded in the old signature file are re-hashed; deletes simply drop
  out because the new file keeps exactly the partition's live doc_ids.

So a refresh costs O(dirty partitions) reads and O(changed docs) hashing —
at 10^10 events over 10^8 docs a commit touching 1% of partitions reads 1%
of the signature index and hashes only the upserted docs.

Signatures are the SAME MinHasher(seed=97) scheme the LSH dedup pipeline
and its SQL oracle use (ops/dedup.py:180), so the maintained index is
verifiable: after any number of incremental refreshes the table must be
bit-equal to a from-scratch signature pass over the lake's final state.

State layout under ``<lake>/_views/<name>/``: ``v<V>/part-<k>.parquet``
files (columns doc_id, sequence_number, sig: binary of num_perm uint64
little-endian) plus a ``meta.json`` recording the as-of version and the
per-partition file list (which may reference older version dirs for
carried-forward partitions). Writes are tmp+rename atomic, meta flip last
— a crash mid-refresh leaves the previous consistent index. After the flip,
signature files the new meta does not reference are removed, so the index
stays one file per partition however many refreshes run.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from etl_ray.lake import live_rows, read_file, write_file
from etl_ray.state.manifest import Manifest
from etl_ray.util import write_atomic

_META = "meta.json"


def _index_dir(lake_dir: str, name: str) -> str:
    return os.path.join(lake_dir, "_views", name)


def _load_meta(lake_dir: str, name: str) -> Optional[dict]:
    mp = os.path.join(_index_dir(lake_dir, name), _META)
    if not os.path.exists(mp):
        return None
    with open(mp) as f:
        return json.load(f)


def _write_meta(lake_dir: str, name: str, meta: dict) -> None:
    d = _index_dir(lake_dir, name)
    os.makedirs(d, exist_ok=True)
    write_atomic(os.path.join(d, _META),
                 json.dumps(meta, indent=1, sort_keys=True))


class _SigPartition:
    """One call (re)builds one partition's signature file. Hasher state
    (permutation coefficients) built once per worker; the live docs come
    from ``lake.live_rows``, the merge ``read_lake`` runs, so they are
    byte-identical to what read_lake returns for the partition."""

    def __init__(self, lake_dir: str, schema_hex: str, out_dir: str,
                 text_col: str, num_perm: int, shingle_n: int, seed: int):
        from etl_ray.ops.dedup import MinHasher
        from etl_ray.schema import schema_from_hex

        self.lake_dir = lake_dir
        self.schema = schema_from_hex(schema_hex)
        self.out_dir = out_dir
        self.text_col = text_col
        self.hasher = MinHasher(num_perm=num_perm, shingle_n=shingle_n,
                                seed=seed)

    def _signature_blobs(self, texts: pd.Series) -> List[bytes]:
        from etl_ray.functions.text import normalize_for_fingerprint

        sigs = self.hasher.signatures(normalize_for_fingerprint(texts))
        buf = np.ascontiguousarray(sigs, dtype="<u8").tobytes()
        w = sigs.shape[1] * 8
        return [buf[i * w:(i + 1) * w] for i in range(sigs.shape[0])]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            part, files = row["part"], row["files"]
            live = live_rows(
                self.lake_dir, files, self.schema,
                ["doc_id", "sequence_number", "op", self.text_col],
            ).to_pandas()
            live = live.sort_values("doc_id").reset_index(drop=True)
            n_reused = 0
            if row["old_sig_file"]:
                old = read_file(os.path.join(
                    self.lake_dir, row["old_sig_file"])).to_pandas()
                j = live.merge(old, on="doc_id", how="left",
                               suffixes=("", "_old"))
                same = (j["sequence_number_old"].to_numpy()
                        == j["sequence_number"].to_numpy())
                n_reused = int(same.sum())
                sig = pd.Series([None] * len(j), dtype="object")
                sig[same] = j["sig"][same]
                todo = ~same
            else:
                j = live
                sig = pd.Series([None] * len(j), dtype="object")
                todo = np.ones(len(j), dtype=bool)
            if todo.any():
                sig[todo] = self._signature_blobs(
                    live[self.text_col][todo])
            rel = os.path.join(self.out_dir, f"part-{part:05d}.parquet")
            t = pa.table({
                "doc_id": pa.array(live["doc_id"], pa.string()),
                "sequence_number": pa.array(
                    live["sequence_number"].to_numpy(dtype="int64"),
                    pa.int64()),
                "sig": pa.array(list(sig), pa.binary()),
            })
            write_file(t, os.path.join(self.lake_dir, rel))
            out.append({"part": part, "file": rel, "n_docs": len(live),
                        "n_recomputed": int(len(live) - n_reused),
                        "n_reused": n_reused})
        return pa.Table.from_pylist(out, schema=pa.schema([
            pa.field("part", pa.int64()), pa.field("file", pa.string()),
            pa.field("n_docs", pa.int64()),
            pa.field("n_recomputed", pa.int64()),
            pa.field("n_reused", pa.int64()),
        ]))


def _sweep_unreferenced(lake_dir: str, name: str, files: dict) -> None:
    """Remove the signature files under ``_views/<name>/v*/`` that ``files``
    (the committed meta's map) does not reference, then the emptied version
    dirs. Runs after the meta flip, so a crash here only leaves garbage for
    the next refresh to collect."""
    d = _index_dir(lake_dir, name)
    keep = {os.path.normpath(os.path.join(lake_dir, f))
            for f in files.values()}
    for v in os.listdir(d):
        vdir = os.path.join(d, v)
        if not (v.startswith("v") and os.path.isdir(vdir)):
            continue
        for f in os.listdir(vdir):
            path = os.path.normpath(os.path.join(vdir, f))
            if path not in keep:
                os.remove(path)
        if not os.listdir(vdir):
            os.rmdir(vdir)


def _run_partitions(lake_dir: str, name: str, descs: List[dict],
                    manifest: Manifest, carried: dict, params: dict) -> dict:
    """Fan the dirty-partition descriptors out (plain Ray tasks, at most
    two per cluster CPU, each looping over a contiguous slice), commit the
    meta that maps every partition to its (new or carried-forward)
    signature file, then sweep the signature files it no longer
    references."""
    from etl_ray.util import map_descriptors

    out_dir = os.path.join("_views", name, f"v{manifest.version}")
    stats = {"as_of": manifest.version, "n_parts": len(manifest.partitions),
             "n_parts_dirty": len(descs), "n_recomputed": 0, "n_reused": 0,
             "n_docs": 0}
    files = dict(carried)
    if descs:
        res = map_descriptors(
            _SigPartition(lake_dir, manifest.schema_hex, out_dir,
                          params["text_col"], params["num_perm"],
                          params["shingle_n"], params["seed"]),
            descs)
        for r in res.to_pylist():
            files[str(r["part"])] = r["file"]
            for k in ("n_recomputed", "n_reused", "n_docs"):
                stats[k] += r[k]
    meta = {"as_of_version": manifest.version, "files": files,
            "partition_files": {
                str(k): sorted(p.files)
                for k, p in manifest.partitions.items()},
            **params}
    _write_meta(lake_dir, name, meta)
    _sweep_unreferenced(lake_dir, name, files)
    return stats


def build_signature_index(lake_dir: str, *, name: str = "minhash_sigs",
                          version: Optional[int] = None,
                          text_col: str = "text", num_perm: int = 64,
                          shingle_n: int = 3, seed: int = 97) -> dict:
    """Full build at ``version`` (default: head) — the once-per-index cost;
    afterwards ``refresh_signature_index`` is O(changes)."""
    manifest = Manifest.load(lake_dir, version=version)
    params = {"text_col": text_col, "num_perm": num_perm,
              "shingle_n": shingle_n, "seed": seed}
    descs = [{"part": int(k), "files": sorted(p.files), "old_sig_file": ""}
             for k, p in sorted(manifest.partitions.items())
             if p.files]
    return _run_partitions(lake_dir, name, descs, manifest, {}, params)


def refresh_signature_index(lake_dir: str, *,
                            name: str = "minhash_sigs") -> dict:
    """Advance the index to the lake head. Partitions whose live-file list
    is unchanged since the index's as-of version are carried forward by
    reference (not read); dirty partitions re-hash only docs whose winning
    sequence_number changed."""
    meta = _load_meta(lake_dir, name)
    if meta is None:
        raise FileNotFoundError(f"signature index {name} not built")
    manifest = Manifest.load(lake_dir)
    params = {k: meta[k] for k in
              ("text_col", "num_perm", "shingle_n", "seed")}
    if manifest.version == meta["as_of_version"]:
        return {"as_of": manifest.version,
                "n_parts": len(manifest.partitions), "n_parts_dirty": 0,
                "n_recomputed": 0, "n_reused": 0, "n_docs": 0}
    old_parts = meta.get("partition_files", {})
    descs, carried = [], {}
    for k, p in sorted(manifest.partitions.items()):
        if not p.files:
            continue
        ks = str(k)
        if sorted(p.files) == old_parts.get(ks) and ks in meta["files"]:
            carried[ks] = meta["files"][ks]
        else:
            descs.append({"part": int(k), "files": sorted(p.files),
                          "old_sig_file": meta["files"].get(ks, "")})
    return _run_partitions(lake_dir, name, descs, manifest, carried, params)


def read_signature_index(lake_dir: str, *, name: str = "minhash_sigs"):
    """The maintained index as a Dataset of (doc_id, sequence_number, sig
    binary blob) — the join-ready shape for LSH banding or pair checks."""
    import ray.data as rd

    meta = _load_meta(lake_dir, name)
    if meta is None:
        raise FileNotFoundError(f"signature index {name} not built")
    paths = [os.path.join(lake_dir, f)
             for _, f in sorted(meta["files"].items())]
    if not paths:
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.string()),
            "sequence_number": pa.array([], pa.int64()),
            "sig": pa.array([], pa.binary()),
        }))
    return rd.read_parquet(paths)


def signatures_long(lake_dir: str, *, name: str = "minhash_sigs"):
    """Index exploded to (doc_id, perm, m) — the comparison shape shared
    with the SQL oracle (one row per permutation, m < 2^61 fits int64)."""
    meta = _load_meta(lake_dir, name)
    num_perm = meta["num_perm"] if meta else 64

    def explode(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return pa.table({"doc_id": pa.array([], pa.string()),
                             "perm": pa.array([], pa.int32()),
                             "m": pa.array([], pa.int64())})
        blob = b"".join(t["sig"].to_pylist())
        m = np.frombuffer(blob, dtype="<u8").astype(np.int64)
        ids = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), num_perm)
        perm = np.tile(np.arange(num_perm, dtype=np.int32), n)
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "perm": pa.array(perm), "m": pa.array(m)})

    return read_signature_index(lake_dir, name=name).map_batches(
        explode, batch_format="pyarrow")


def index_lsh_candidates(lake_dir: str, *, name: str = "minhash_sigs",
                         bands: int = 16, max_bucket_ids: int = None):
    """Candidate near-dup pairs FROM the maintained index — banding reads
    the stored signature blobs, so after a refresh the dedup pass costs
    zero text re-hashing (the expensive stage) and produces the same
    (band, band_hash) keys as a fresh MinHasher pass over the lake's
    final state: pairs are identical by construction."""
    from etl_ray.ops.dedup import (DEFAULT_MAX_BUCKET_IDS, _SHINGLE_C,
                                   _bucket_self_pairs, _dedup_pairs)
    from ray.data.aggregate import Count

    if max_bucket_ids is None:
        max_bucket_ids = DEFAULT_MAX_BUCKET_IDS
    meta = _load_meta(lake_dir, name)
    if meta is None:
        raise FileNotFoundError(f"signature index {name} not built")
    num_perm = meta["num_perm"]
    if num_perm % bands:
        raise ValueError(f"bands={bands} must divide num_perm={num_perm}")
    rows_per_band = num_perm // bands

    def band_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return pa.table({
                "band": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.uint64()),
                "doc_id": pa.array([], pa.string()),
            })
        blob = b"".join(t["sig"].to_pylist())
        sb = np.frombuffer(blob, "<u8").reshape(n, bands, rows_per_band)
        key = np.zeros((n, bands), dtype=np.uint64)
        for r in range(rows_per_band):
            key = key * _SHINGLE_C + sb[:, :, r]
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "band": pa.array(
                np.tile(np.arange(bands, dtype=np.int32), n)),
            "band_hash": pa.array(key.reshape(-1).astype(np.int64)
                                  .view(np.uint64)),
            "doc_id": pa.array(np.repeat(ids, bands)),
        })

    sig = read_signature_index(lake_dir, name=name).map_batches(
        band_rows, batch_format="pyarrow")
    pairs = _bucket_self_pairs(sig, ["band", "band_hash"], "doc_id",
                               max_bucket_ids)
    return _dedup_pairs(pairs, [Count(alias_name="_nb")]).map_batches(
        lambda t: t.drop_columns(["_nb"]), batch_format="pyarrow")
