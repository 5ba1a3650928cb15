"""Atomic manifest: the lake's commit marker, watermarks and lineage.

Exactly-once protocol (the analog of the reference's atomic-on-Close GCS
object visibility + rows-count metadata, /root/reference/storage/
rowwriter.go:83-171, and deterministic idempotent output paths,
rowwriter.go:180-187):

  1. Data files are written under ``lake/part=<k>/`` with DETERMINISTIC names
     derived from (commit_id, partition, salt). A file is LIVE only if the
     current manifest lists it; orphans from crashed runs are invisible and
     are overwritten byte-for-byte when the commit is replayed.
  2. A commit writes ``_manifest/v<N>.json`` via tmp + os.replace, then flips
     ``_manifest/CURRENT`` via tmp + os.replace. A crash between the two
     leaves CURRENT at N-1; the rerun recomputes the identical v<N>.json.
  3. ``applied_through_segment`` is the global watermark: replay resumes from
     the first segment after it (reference: Gardener job tracker state,
     /root/reference/active/poller.go:169-191).

Lineage counters keep the reference's row-stats invariant
accepted == committed + failed(quarantined) (/root/reference/etl/etl.go:23-35).

Storage scope: the manifest intentionally targets a POSIX-rename
filesystem (local disk or a shared fs mount) — tmp + os.replace IS the
commit primitive. On an object store the same protocol maps to
conditional puts (S3 If-None-Match / GCS x-goog-if-generation-match on
CURRENT) with data files staying immutable+deterministic exactly as
here; that swap is confined to _flush/_load (everything else goes
through pq.read_table, which already accepts URIs). Deliberately NOT
emulated over pyarrow.fs, because plain object-store rename is
copy+delete — non-atomic — and would silently break rule 2.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pyarrow as pa

from etl_ray.schema import schema_from_hex, schema_to_hex

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
        "commits": [],
    }


@dataclass
class Manifest:
    lake_dir: str
    version: int = 0
    num_partitions: int = 32
    schema_hex: Optional[str] = None
    applied_through_segment: int = -1
    partitions: Dict[int, PartitionState] = field(default_factory=dict)
    quarantine_files: List[str] = field(default_factory=list)
    lineage: dict = field(default_factory=_empty_lineage)

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
        }

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
        current = os.path.join(lake_dir, MANIFEST_DIR, "CURRENT")
        committed = 0
        if os.path.exists(current):
            with open(current) as f:
                committed = int(f.read().strip())
        if version is None:
            version = committed
        elif not 0 <= version <= committed:
            raise ValueError(
                f"version {version} is not committed (CURRENT is "
                f"{committed})")
        if version == 0:
            return Manifest(lake_dir=lake_dir)
        with open(os.path.join(lake_dir, MANIFEST_DIR, f"v{version}.json")) as f:
            d = json.load(f)
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
        )
        return m

    def commit(self) -> None:
        """Atomically publish this manifest as the new current version.

        Caller must have already bumped ``self.version`` to the new version
        number and updated partitions/watermarks/lineage.
        """
        os.makedirs(self.manifest_dir, exist_ok=True)
        path = os.path.join(self.manifest_dir, f"v{self.version}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            # compact dumps() runs CPython's C encoder (an indent, or
            # json.dump, falls back to the pure-Python one)
            f.write(json.dumps(self.to_json(), sort_keys=True,
                               separators=(",", ":")))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        cur = os.path.join(self.manifest_dir, "CURRENT")
        tmp = cur + ".tmp"
        with open(tmp, "w") as f:
            f.write(str(self.version))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, cur)

    # ------------------------------------------------------------- utility
    def _versions_on_disk(self) -> List[int]:
        import re

        out = []
        if not os.path.isdir(self.manifest_dir):
            return out
        for fn in os.listdir(self.manifest_dir):
            m = re.match(r"^v(\d+)\.json$", fn)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def _live_across_versions(self) -> set:
        """Union of data files referenced by ANY retained manifest version —
        the set time travel still needs."""
        live = set()
        for v in self._versions_on_disk():
            with open(os.path.join(self.manifest_dir, f"v{v}.json")) as f:
                d = json.load(f)
            for p in d.get("partitions", {}).values():
                live.update(p["files"])
            live.update(d.get("quarantine_files", []))
        return live

    def gc(self) -> List[str]:
        """Delete data files not referenced by ANY retained manifest version
        (orphans from crashed, never-committed runs). Historical versions'
        files are kept so time travel stays valid; reclaim them with
        ``prune``. Returns removed paths."""
        live = self._live_across_versions() | set(
            self.live_files()) | set(self.quarantine_files)
        removed = []
        for root, _dirs, files in os.walk(self.lake_dir):
            for fn in files:
                full = os.path.join(root, fn)
                rel = os.path.relpath(full, self.lake_dir)
                if rel.startswith(MANIFEST_DIR):
                    continue
                # maintained secondary state (IVM views, signature
                # indexes) lives under _views/ with its own meta/versioning
                # — it references lake versions, the manifest never
                # references IT, so the liveness walk must not touch it
                if rel.startswith(VIEWS_DIR):
                    continue
                if not fn.endswith(".parquet"):
                    continue
                if rel not in live:
                    os.remove(full)
                    removed.append(rel)
        return removed

    def prune(self, keep_last: int = 1) -> List[str]:
        """Retire history: drop all but the last ``keep_last`` manifest
        versions, then gc — reclaims files only old snapshots referenced
        (the Delta-Lake VACUUM analog; time travel past the horizon is
        gone afterwards)."""
        versions = self._versions_on_disk()
        cut = versions[:-keep_last] if keep_last > 0 else versions
        for v in cut:
            if v == self.version:
                continue  # never drop the current version
            os.remove(os.path.join(self.manifest_dir, f"v{v}.json"))
        return self.gc()
