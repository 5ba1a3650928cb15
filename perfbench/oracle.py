"""Independent last-writer-wins oracle over the WAL, computed with DuckDB.

The expected lake state for a WAL prefix is derived from the segment files
alone; no engine code takes part. The valid-event rules restate
``etl_ray/stages/validate.py`` and ``TokensPayload`` under ``EngineConfig()``
defaults:

- ``op`` is insert, update or delete;
- ``doc_id`` is non-null and non-empty;
- ``sequence_number`` is non-null and non-negative;
- an insert or update carries non-null ``tokens``, every token is in
  ``[0, VOCAB)``, ``len(tokens) <= MAX_TOKENS``, and ``n_tok`` is null or
  equals ``len(tokens)``.

Among valid events the largest ``sequence_number`` per ``doc_id`` wins, and a
winning delete removes the document.

A scan is compared with the expected state through ``digest``: both sides are
sorted by ``doc_id`` and hashed column by column (``doc_id``,
``sequence_number``, token lists), in equal-sized row chunks so that the
driver never holds a second copy of a scan.

The module also runs as a small JSON-lines server (``python -m
perfbench.oracle``) so that WAL generation and DuckDB stay out of the
benchmark driver's memory; see ``OracleClient``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

VOCAB = 50257  # TokensPayload() default vocab_size
MAX_TOKENS = 1 << 20  # TokensPayload() default max_tokens
COLUMNS = ("doc_id", "sequence_number", "tokens")
DIGEST_CHUNK_ROWS = 8192

_EXPECTED_SQL = """
WITH ev AS (
  SELECT op, doc_id, sequence_number, tokens, n_tok
  FROM read_parquet([{paths}], union_by_name = true)
), valid AS (
  SELECT * FROM ev
  WHERE op IN ('insert', 'update', 'delete')
    AND doc_id IS NOT NULL AND doc_id <> ''
    AND sequence_number IS NOT NULL AND sequence_number >= 0
    AND (op = 'delete' OR (
      tokens IS NOT NULL
      AND (n_tok IS NULL OR n_tok = len(tokens))
      AND len(tokens) <= {max_tokens}
      AND coalesce(list_min(tokens) >= 0 AND list_max(tokens) < {vocab},
                   true)))
), ranked AS (
  SELECT op, doc_id, sequence_number, tokens,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY sequence_number DESC) AS rn
  FROM valid
)
SELECT doc_id, sequence_number, tokens FROM ranked
WHERE rn = 1 AND op <> 'delete'
"""


def expected_state(paths: List[str]) -> pa.Table:
    """Live documents after applying the WAL segments ``paths`` in order."""
    import duckdb

    quoted = ", ".join("'" + p.replace("'", "''") + "'" for p in paths)
    sql = _EXPECTED_SQL.format(paths=quoted, max_tokens=MAX_TOKENS,
                               vocab=VOCAB)
    con = duckdb.connect()
    try:
        con.execute("SET enable_progress_bar = false")
        return con.execute(sql).fetch_arrow_table()
    finally:
        con.close()


def digest(table: pa.Table) -> Tuple[int, str]:
    """(row count, content hash) of a scan or an expected state, independent
    of row order, chunking and string/list offset widths."""
    t = table.select(list(COLUMNS))
    order = pc.sort_indices(t, sort_keys=[("doc_id", "ascending")])
    h = hashlib.blake2b(digest_size=16)
    for s in range(0, len(t), DIGEST_CHUNK_ROWS):
        part = t.take(order.slice(s, DIGEST_CHUNK_ROWS))
        ids = part["doc_id"].to_pylist()
        h.update(b"doc_id")
        h.update("\x00".join(ids).encode())
        seq = pc.cast(part["sequence_number"], pa.int64()).to_numpy()
        h.update(b"sequence_number")
        h.update(np.ascontiguousarray(seq).tobytes())
        tok = pc.cast(part["tokens"], pa.large_list(pa.int32()))
        tok = tok.combine_chunks()
        lengths = pc.list_value_length(tok).fill_null(-1).to_numpy()
        values = pc.list_flatten(tok).to_numpy()
        h.update(b"tokens")
        h.update(np.ascontiguousarray(lengths, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(values, dtype=np.int32).tobytes())
    return len(t), h.hexdigest()


# ---------------------------------------------------------------- server


def _handle(req: dict) -> dict:
    if req["op"] == "generate":
        from etl_ray.sources.generator import generate_changelog

        paths = generate_changelog(req["wal_dir"], **req["params"])
        return {"paths": paths, "bytes": [os.path.getsize(p) for p in paths]}
    if req["op"] == "expect":
        rows, dig = digest(expected_state(req["paths"]))
        return {"rows": rows, "digest": dig}
    raise ValueError(f"unknown oracle request {req['op']!r}")


def serve(inp, out) -> None:
    """Answer one JSON request per line until EOF."""
    for line in inp:
        req = json.loads(line)
        try:
            resp = {"ok": True, **_handle(req)}
        except Exception as e:  # reported to the client, which fails the op
            resp = {"ok": False, "error": f"{type(e).__name__}: {e}"}
        out.write(json.dumps(resp) + "\n")
        out.flush()


class OracleClient:
    """Client of an oracle server child process (WAL generation and
    expected-state digests). ``close`` ends the child and waits for it."""

    def __init__(self, root: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.oracle"], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._digests: dict = {}

    def _call(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("oracle process exited")
        resp = json.loads(line)
        if not resp.pop("ok"):
            raise RuntimeError(f"oracle: {resp['error']}")
        return resp

    def generate(self, wal_dir: str, **params) -> Tuple[List[str], int]:
        """Write a changelog with ``generate_changelog``; (paths, bytes)."""
        resp = self._call(op="generate", wal_dir=wal_dir, params=params)
        return resp["paths"], sum(resp["bytes"])

    def expect(self, paths: List[str]) -> Tuple[int, str]:
        """Digest of the expected state of a WAL prefix (memoised: every
        cycle of a run replays the same WAL)."""
        key = tuple(paths)
        if key not in self._digests:
            resp = self._call(op="expect", paths=list(paths))
            self._digests[key] = (resp["rows"], resp["digest"])
        return self._digests[key]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
