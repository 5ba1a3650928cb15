"""Changelog CAPTURE: diff two committed lake versions into change events.

The inverse of replay: given two manifest versions of the same lake,
emit the insert/update/delete stream that transforms the older state into
the newer one. This is the m-lab "reprocess detection" question (which
tests changed between two loads?) answered engine-natively, and the
standard way to feed a downstream consumer incrementally.

Scale shape: both versions share the SAME doc_id hash partitioning
(partition count is fixed at lake creation, manifest.num_partitions), so
the diff is embarrassingly parallel — one call merges partition p at
v_from AND at v_to and compares (at most two tasks per cluster CPU, each
diffing a contiguous slice of partitions); NO shuffle, no cross-partition
traffic.
A partition whose file list is the same at both versions holds no change
and is never read, so a diff costs O(changed partitions), not O(table).
Within a changed partition, unchanged docs are detected by
sequence_number equality (sequence numbers are unique per event, so any
change to a doc changes its winning seq) and never leave the task.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from etl_ray.lake import live_rows
from etl_ray.state.manifest import Manifest

_CONTROL = ("op", "__reason", "__shard")


class DiffPartition:
    """One call diffs one partition descriptor row: reads the partition's
    live files at v_from and v_to, LWW-merges each side, and emits change
    rows. State (schemas) is built once per worker."""

    def __init__(self, lake_dir: str, schema_hex_from: str,
                 schema_hex_to: str, include_old=()):
        from etl_ray.schema import schema_from_hex

        self.lake_dir = lake_dir
        # a version-0 manifest has no schema and no files: its side reads
        # empty under the other side's schema
        sf, st = (schema_from_hex(h) if h else None
                  for h in (schema_hex_from, schema_hex_to))
        self.schema_from = sf or st or pa.schema([])
        self.schema_to = st or sf or pa.schema([])
        self.include_old = [
            c for c in include_old
            if c in {f.name for f in self.schema_from}
        ]
        self.payload_cols = [
            f.name for f in self.schema_to
            if f.name not in _CONTROL + ("doc_id", "sequence_number")
        ]
        # canonical output schema: every block MUST match it, or unions of
        # empty / deletes-only partitions diverge. Deletes null-fill the
        # payload, so integer payload fields widen to float64 (exactly what
        # a SQL oracle's nullable BIGINT -> .df() produces, too).
        fields = [("doc_id", pa.string()), ("change_op", pa.string()),
                  ("sequence_number", pa.float64())]
        for c in self.payload_cols:
            t = self.schema_to.field(c).type
            if pa.types.is_integer(t):
                t = pa.float64()
            fields.append((c, t))
        for c in self.include_old:
            t = self.schema_from.field(c).type
            if pa.types.is_integer(t):
                t = pa.float64()
            fields.append((f"old_{c}", t))
        self.out_schema = pa.schema(fields)

    def _to_arrow(self, out: pd.DataFrame) -> pa.Table:
        arrays = []
        for f in self.out_schema:
            col = out[f.name]
            vals = col.to_numpy(dtype=object, copy=True)
            mask = col.isna().to_numpy()
            if mask.any():
                vals[mask] = None
            arrays.append(pa.array(vals, type=f.type, from_pandas=True))
        return pa.Table.from_arrays(arrays, schema=self.out_schema)

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            a = live_rows(self.lake_dir, row["files_from"],
                          self.schema_from).to_pandas()
            b = live_rows(self.lake_dir, row["files_to"],
                          self.schema_to).to_pandas()
            am = a[["doc_id", "sequence_number"] + self.include_old]
            am = am.rename(columns={
                "sequence_number": "__seq_from",
                **{c: f"old_{c}" for c in self.include_old},
            })
            j = b.merge(am, on="doc_id", how="left")
            seq_a = j["__seq_from"].to_numpy()
            is_new = np.isnan(seq_a)
            changed = (~is_new) & (
                seq_a != j["sequence_number"].to_numpy())
            keep = j[is_new | changed].reset_index(drop=True)
            ops = np.where(is_new[is_new | changed], "insert", "update")
            out = pd.DataFrame({"doc_id": keep["doc_id"], "change_op": ops,
                                "sequence_number": keep["sequence_number"]
                                .astype("float64")})
            for c in self.payload_cols:
                out[c] = keep[c] if c in keep.columns else None
            for c in self.include_old:
                # null for inserts (left-join miss), the v_from value for
                # updates — the IVM consumer retracts the old contribution
                out[f"old_{c}"] = keep[f"old_{c}"]
            adel = a[~a["doc_id"].isin(b["doc_id"])].sort_values("doc_id")
            if len(adel):
                dels = pd.DataFrame({
                    "doc_id": adel["doc_id"].to_numpy(),
                    "change_op": "delete",
                    "sequence_number": np.nan,
                })
                for c in self.include_old:
                    dels[f"old_{c}"] = adel[c].to_numpy()
                dels = dels.reindex(columns=out.columns)  # NaN payload
                out = pd.concat([out, dels], ignore_index=True)
            outs.append(self._to_arrow(out))
        if not outs:
            return self.out_schema.empty_table()
        return pa.concat_tables(outs)


def lake_diff(lake_dir: str, *, from_version: int,
              to_version: Optional[int] = None, include_old=()):
    """Change-event stream between two committed versions of a lake, as a
    ``ray.data.Dataset`` with columns (doc_id, change_op, sequence_number,
    <payload...>). ``sequence_number`` is the winning seq at ``to_version``
    (null for deletes), plus ``old_<col>`` for each ``include_old`` column.
    One call per partition whose file list differs between the versions,
    at most two tasks per cluster CPU, no shuffle."""
    import ray.data as rd

    from etl_ray.util import descriptor_dataset, task_count

    m_from = Manifest.load(lake_dir, version=from_version)
    m_to = Manifest.load(lake_dir, version=to_version)
    # an empty version-0 lake holds no partition yet; its first commit
    # sets the count
    if (m_from.partitions and m_to.partitions
            and m_from.num_partitions != m_to.num_partitions):
        raise ValueError("partition count changed between versions")
    descs = []
    parts = sorted(set(m_from.partitions) | set(m_to.partitions))
    for k in parts:
        fa = list(m_from.partitions[k].files) if k in m_from.partitions else []
        fb = list(m_to.partitions[k].files) if k in m_to.partitions else []
        if fa != fb:
            descs.append({"part": k, "files_from": fa, "files_to": fb})
    diff = DiffPartition(lake_dir, m_from.schema_hex, m_to.schema_hex,
                         include_old=include_old)
    if not descs:
        return rd.from_arrow(diff.out_schema.empty_table())
    return descriptor_dataset(descs, task_count(len(descs))).map_batches(
        diff, batch_format="pyarrow", batch_size=1)
