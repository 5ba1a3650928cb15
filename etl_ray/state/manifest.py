"""Atomic manifest: the lake's commit marker, watermarks and lineage.

Exactly-once protocol (the analog of the reference's atomic-on-Close GCS
object visibility + rows-count metadata, /root/reference/storage/
rowwriter.go:83-171, and deterministic idempotent output paths,
rowwriter.go:180-187):

  1. Data files are written under ``lake/part=<k>/`` with DETERMINISTIC names
     derived from (commit_id, partition, salt). A file is LIVE only if the
     current manifest lists it; orphans from crashed runs are invisible and
     are overwritten byte-for-byte when the commit is replayed.
  2. A commit writes ``_manifest/v<N>.json`` (tmp, fsync, rename,
     directory fsync: ``util.atomic_path``), then flips
     ``_manifest/CURRENT`` the same way. A crash between the two leaves
     CURRENT at N-1; the rerun recomputes the identical v<N>.json.
     Each version is a constant-size snapshot: the partitions' live files
     and watermarks, the schema, the quarantine files, the lineage
     counters (``commits_total`` among them), the stage histograms folded
     over every commit, the per-partition event counts of the last replay
     commit (for hot-partition salting) and, under ``"commit"``, that
     commit's own record alone. Nothing in it grows with the number of
     commits before it.
  3. ``applied_through_segment`` is the global watermark: replay resumes from
     the first segment after it (reference: Gardener job tracker state,
     /root/reference/active/poller.go:169-191).

History is the own records of the retained versions 1..CURRENT, read on
demand (``Manifest.history``); nothing on the commit path reads it.
``prune`` drops old versions, and with them their records from the
history, while the counters and folded histograms of the versions it keeps
still count them. A version written in the earlier format embeds every
record up to its own under ``lineage.commits``; loading one folds that
list (its last record is the version's own, the rest is history) into the
counters and histograms above, so such lakes open, replay on and compact.

Lineage counters keep the reference's row-stats invariant
accepted == committed + failed(quarantined) (/root/reference/etl/etl.go:23-35).

Storage scope: the manifest intentionally targets a POSIX-rename
filesystem (local disk or a shared fs mount) — tmp + os.replace IS the
commit primitive. On an object store the same protocol maps to
conditional puts (S3 If-None-Match / GCS x-goog-if-generation-match on
CURRENT) with data files staying immutable+deterministic exactly as
here; that swap is confined to ``commit``/``load`` (everything else goes
through pq.read_table, which already accepts URIs). Deliberately NOT
emulated over pyarrow.fs, because plain object-store rename is
copy+delete — non-atomic — and would silently break rule 2.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pyarrow as pa

from etl_ray.schema import schema_from_hex, schema_to_hex
from etl_ray.state.stats import fold_histograms
from etl_ray.util import write_atomic

MANIFEST_DIR = "_manifest"
VIEWS_DIR = "_views"


@dataclass
class PartitionState:
    files: List[str] = field(default_factory=list)  # lake-relative paths
    watermark_seq: int = -1  # max sequence_number applied to this partition
    base_gen: int = 0

    def to_json(self) -> dict:
        return {
            "files": self.files,
            "watermark_seq": self.watermark_seq,
            "base_gen": self.base_gen,
        }

    @staticmethod
    def from_json(d: dict) -> "PartitionState":
        return PartitionState(
            files=list(d["files"]),
            watermark_seq=int(d["watermark_seq"]),
            base_gen=int(d["base_gen"]),
        )


def _empty_lineage() -> dict:
    return {
        "events_in": 0,
        "valid": 0,
        "quarantined": 0,
        "rows_written": 0,
        "deletes": 0,
        "commits_total": 0,
    }


def _committed(lake_dir: str) -> int:
    """The version ``_manifest/CURRENT`` names; 0 without one."""
    current = os.path.join(lake_dir, MANIFEST_DIR, "CURRENT")
    if not os.path.exists(current):
        return 0
    with open(current) as f:
        return int(f.read().strip())


def _versions(manifest_dir: str) -> List[int]:
    """Version numbers with a ``v<N>.json`` on disk, ascending."""
    if not os.path.isdir(manifest_dir):
        return []
    return sorted(int(m.group(1)) for m in map(
        re.compile(r"^v(\d+)\.json$").match, os.listdir(manifest_dir)) if m)


def _read_version(lake_dir: str, version: int) -> dict:
    with open(os.path.join(lake_dir, MANIFEST_DIR, f"v{version}.json")) as f:
        return json.load(f)


@dataclass
class Manifest:
    lake_dir: str
    version: int = 0
    num_partitions: int = 32
    schema_hex: Optional[str] = None
    applied_through_segment: int = -1
    partitions: Dict[int, PartitionState] = field(default_factory=dict)
    quarantine_files: List[str] = field(default_factory=list)
    # counters over every commit, ``commits_total`` included
    lineage: dict = field(default_factory=_empty_lineage)
    # the commits' stage histograms (name -> Histogram json), folded
    histograms: dict = field(default_factory=dict)
    # per-partition event counts of the last commit that recorded them
    # (replay or recovery): what hot-partition salting reads
    partition_rows: Dict[str, int] = field(default_factory=dict)
    # this version's own commit record
    record: Optional[dict] = None

    # ------------------------------------------------------------------ io
    @property
    def manifest_dir(self) -> str:
        return os.path.join(self.lake_dir, MANIFEST_DIR)

    @property
    def commit_id(self) -> str:
        """Commit id of the NEXT commit built on top of this manifest."""
        return f"c{self.version + 1:06d}"

    @property
    def schema(self) -> Optional[pa.Schema]:
        return schema_from_hex(self.schema_hex) if self.schema_hex else None

    def set_schema(self, schema: pa.Schema) -> None:
        self.schema_hex = schema_to_hex(schema)

    def partition(self, k: int) -> PartitionState:
        if k not in self.partitions:
            self.partitions[k] = PartitionState()
        return self.partitions[k]

    def live_files(self) -> List[str]:
        out: List[str] = []
        for p in self.partitions.values():
            out.extend(p.files)
        return out

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "num_partitions": self.num_partitions,
            "schema_hex": self.schema_hex,
            "applied_through_segment": self.applied_through_segment,
            "partitions": {str(k): v.to_json() for k, v in self.partitions.items()},
            "quarantine_files": self.quarantine_files,
            "lineage": self.lineage,
            "histograms": self.histograms,
            "partition_rows": self.partition_rows,
            "commit": self.record,
        }

    def _fold(self, record: dict) -> None:
        """Fold one commit record into the counters that outlive it."""
        self.record = record
        self.lineage["commits_total"] += 1
        fold_histograms(self.histograms, record.get("histograms"))
        if "per_partition" in record:
            self.partition_rows = {
                str(k): v["rows"] for k, v in record["per_partition"].items()}

    @staticmethod
    def load(lake_dir: str, version: Optional[int] = None) -> "Manifest":
        """Load the committed manifest, or a fresh v0 if none exists.

        ``version`` loads a HISTORICAL manifest (time travel): every commit
        keeps its ``v<N>.json``, and data files are immutable once listed,
        so any past version reconstructs that snapshot exactly — the
        Delta-Lake-style log-of-versions pattern the atomic-CURRENT design
        buys for free. Compaction keeps old generations' files on disk
        until ``gc()``; time travel across a gc'd boundary raises on read.
        A ``version`` above CURRENT raises ``ValueError``: its
        ``v<N>.json`` may exist, written by a commit that crashed before
        the CURRENT flip, but it was never committed.
        """
        committed = _committed(lake_dir)
        if version is None:
            version = committed
        elif not 0 <= version <= committed:
            raise ValueError(
                f"version {version} is not committed (CURRENT is "
                f"{committed})")
        if version == 0:
            return Manifest(lake_dir=lake_dir)
        d = _read_version(lake_dir, version)
        m = Manifest(
            lake_dir=lake_dir,
            version=d["version"],
            num_partitions=d["num_partitions"],
            schema_hex=d["schema_hex"],
            applied_through_segment=d["applied_through_segment"],
            partitions={
                int(k): PartitionState.from_json(v) for k, v in d["partitions"].items()
            },
            quarantine_files=list(d.get("quarantine_files", [])),
            lineage=d.get("lineage", _empty_lineage()),
            histograms=d.get("histograms", {}),
            partition_rows=d.get("partition_rows", {}),
            record=d.get("commit"),
        )
        commits = m.lineage.pop("commits", None)
        if commits is not None:
            # a version that embeds the whole history (the earlier format):
            # derive the counters it lacks by folding that history
            m.lineage["commits_total"] = 0
            for rec in commits:
                m._fold(rec)
        return m

    @staticmethod
    def history(lake_dir: str, last: Optional[int] = None) -> List[dict]:
        """Commit records of the retained versions 1..CURRENT, oldest first
        (only the ``last`` ones when given, reading only their versions).
        Versions ``prune`` removed drop out; the counters and folded
        histograms of later versions still count them. A version in the
        earlier format embeds every record before it, so the walk back
        stops there."""
        committed = _committed(lake_dir)
        out: List[dict] = []
        for v in reversed(_versions(os.path.join(lake_dir, MANIFEST_DIR))):
            if last is not None and len(out) >= last:
                break
            if v > committed:
                continue
            d = _read_version(lake_dir, v)
            commits = d.get("lineage", {}).get("commits")
            if commits is not None:
                out.extend(reversed(commits))
                break
            if d.get("commit") is not None:
                out.append(d["commit"])
        if last is not None:
            del out[last:]
        return out[::-1]

    def commit(self, record: dict) -> None:
        """Fold ``record`` into the lineage and atomically publish this
        manifest as the new current version (rule 2).

        Caller must have already bumped ``self.version`` to the new version
        number and updated partitions/watermarks/lineage counters.
        """
        self._fold(record)
        os.makedirs(self.manifest_dir, exist_ok=True)
        # compact dumps() runs CPython's C encoder (an indent, or
        # json.dump, falls back to the pure-Python one)
        write_atomic(os.path.join(self.manifest_dir, f"v{self.version}.json"),
                     json.dumps(self.to_json(), sort_keys=True,
                                separators=(",", ":")))
        write_atomic(os.path.join(self.manifest_dir, "CURRENT"),
                     str(self.version))

    # ------------------------------------------------------------- utility
    def _live_across_versions(self) -> set:
        """Union of data files referenced by ANY retained manifest version —
        the set time travel still needs."""
        live = set()
        for v in _versions(self.manifest_dir):
            d = _read_version(self.lake_dir, v)
            for p in d.get("partitions", {}).values():
                live.update(p["files"])
            live.update(d.get("quarantine_files", []))
        return live

    def gc(self) -> List[str]:
        """Delete data files not referenced by ANY retained manifest version
        (orphans from crashed, never-committed runs), and the ``.tmp``
        files killed writers left in the lake and ``_manifest/``
        (``util.atomic_path`` names each one uniquely, so no rerun
        overwrites it). Historical versions' files are kept so time travel
        stays valid; reclaim them with ``prune``. Returns removed paths."""
        from etl_ray.stages.exchange import EXCHANGE_DIR

        live = self._live_across_versions() | set(
            self.live_files()) | set(self.quarantine_files)
        removed = []
        for root, _dirs, files in os.walk(self.lake_dir):
            for fn in files:
                full = os.path.join(root, fn)
                rel = os.path.relpath(full, self.lake_dir)
                # maintained secondary state (IVM views, signature
                # indexes) lives under _views/ with its own meta/versioning
                # — it references lake versions, the manifest never
                # references IT, so the liveness walk must not touch it;
                # the exchange cleans up after itself
                if rel.startswith((VIEWS_DIR, EXCHANGE_DIR)):
                    continue
                if fn.endswith(".tmp") or (
                        fn.endswith(".parquet")
                        and not rel.startswith(MANIFEST_DIR)
                        and rel not in live):
                    os.remove(full)
                    removed.append(rel)
        return removed

    def prune(self, keep_last: int = 1) -> List[str]:
        """Retire history: drop all but the last ``keep_last`` manifest
        versions, then gc — reclaims files only old snapshots referenced
        (the Delta-Lake VACUUM analog; time travel past the horizon is
        gone afterwards)."""
        versions = _versions(self.manifest_dir)
        cut = versions[:-keep_last] if keep_last > 0 else versions
        for v in cut:
            if v == self.version:
                continue  # never drop the current version
            os.remove(os.path.join(self.manifest_dir, f"v{v}.json"))
        return self.gc()
