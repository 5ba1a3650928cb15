"""Changelog (WAL) segment discovery.

The analog of the reference's job/prefix listing with regex filter and
skip-count sampling (/root/reference/active/active.go:44-54,167-203,
etl/globals.go:326-330): list segment files, keep those strictly after the
manifest's global watermark, optionally sample every (skip+1)-th.

Discovery is driver-side (hybrid scout-then-pipeline): the work-list is tiny
(one path per segment); the data itself is only ever read inside the
exchange's stage-1 Ray tasks, one row group per task.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, Optional

import pyarrow.parquet as pq

SEGMENT_RE = re.compile(r"^seg-(\d+)\.parquet$")


@dataclass(frozen=True)
class Segment:
    path: str
    number: int
    size: int = -1  # bytes (from the listing; URI-transparent)


def list_segments(wal_dir: str, *, after: int = -1,
                  skip_count: int = 0,
                  name_filter: Optional[str] = None,
                  limit: Optional[int] = None) -> List[Segment]:
    """Segments with number > ``after``, in order. ``skip_count`` keeps every
    (skip_count+1)-th segment (sampling relief valve); ``name_filter`` is an
    optional regex over file names (reference job filter)."""
    from etl_ray.util import fs_listdir

    pat = re.compile(name_filter) if name_filter else None
    is_uri = "://" in wal_dir
    _, entries = fs_listdir(wal_dir)
    segs = []
    for fn, size in entries:
        m = SEGMENT_RE.match(fn)
        if not m:
            continue
        if pat and not pat.search(fn):
            continue
        num = int(m.group(1))
        if num <= after:
            continue
        full = (wal_dir.rstrip("/") + "/" + fn) if is_uri else os.path.join(
            wal_dir, fn)
        segs.append(Segment(full, num, size))
    if skip_count > 0:
        segs = segs[:: skip_count + 1]
    if limit is not None:
        segs = segs[:limit]
    return segs


def segments_schema(paths: List[str]):
    """Promoted Arrow schema across segment footers (footer-only reads —
    cheap; no data IO). Drives schema evolution before the pipeline runs.
    URI-transparent (s3://, gs://, file:// via pyarrow.fs)."""
    from etl_ray.schema import promote_all
    from etl_ray.util import resolve_fs

    def read_one(p: str):
        if "://" not in p:
            return pq.read_schema(p)
        f, lp = resolve_fs(p)
        with f.open_input_file(lp) as fh:
            return pq.read_schema(fh)

    return promote_all(read_one(p) for p in paths)
