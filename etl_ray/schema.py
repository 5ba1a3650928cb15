"""Schema management: promotion (add nullable column, widen ints) and casting.

Mirrors the reference's idempotent schema-evolution tool
(/root/reference/cmd/update-schema/update.go:112-161): UpdateTable adds new
NULLABLE columns; here we additionally support lossless integer/float widening
declared by newer changelog segments. All lake columns are nullable (the
reference's RemoveRequired, /root/reference/schema/schema.go:101-136).
"""

from __future__ import annotations

from typing import Iterable

import pyarrow as pa

_INT_ORDER = {
    pa.int8(): 0,
    pa.int16(): 1,
    pa.int32(): 2,
    pa.int64(): 3,
}
_FLOAT_ORDER = {pa.float32(): 0, pa.float64(): 1}


def _widen(a: pa.DataType, b: pa.DataType) -> pa.DataType:
    """Return the promoted type for two compatible types, else raise."""
    if a.equals(b):
        return a
    if a in _INT_ORDER and b in _INT_ORDER:
        return a if _INT_ORDER[a] >= _INT_ORDER[b] else b
    if a in _FLOAT_ORDER and b in _FLOAT_ORDER:
        return a if _FLOAT_ORDER[a] >= _FLOAT_ORDER[b] else b
    if a in _INT_ORDER and b in _FLOAT_ORDER:
        return b
    if b in _INT_ORDER and a in _FLOAT_ORDER:
        return a
    if pa.types.is_list(a) and pa.types.is_list(b):
        return pa.list_(_widen(a.value_type, b.value_type))
    # dictionary<T> promotes to T (conform decodes it)
    if pa.types.is_dictionary(a):
        return _widen(a.value_type, b)
    if pa.types.is_dictionary(b):
        return _widen(a, b.value_type)
    raise TypeError(f"incompatible schema evolution: {a} vs {b}")


def promote_schema(current: pa.Schema, incoming: pa.Schema) -> pa.Schema:
    """current ∪ incoming with widening; new columns appended nullable.

    Column drops are NOT evolution: a column missing from ``incoming`` stays
    in the promoted schema (reads fill null), exactly like the reference's
    add-only UpdateTable.
    """
    fields = []
    cur_names = set(current.names)
    for f in current:
        if f.name in incoming.names:
            inc = incoming.field(f.name)
            # field docs survive evolution: current's metadata wins,
            # incoming's fills gaps
            meta = dict(inc.metadata or {})
            meta.update(f.metadata or {})
            fields.append(pa.field(f.name, _widen(f.type, inc.type),
                                   nullable=True, metadata=meta or None))
        else:
            fields.append(pa.field(f.name, f.type, nullable=True,
                                   metadata=f.metadata))
    for f in incoming:
        if f.name not in cur_names:
            fields.append(pa.field(f.name, f.type, nullable=True,
                                   metadata=f.metadata))
    return pa.schema(fields)


def promote_all(schemas: Iterable[pa.Schema]) -> pa.Schema:
    it = iter(schemas)
    out = next(it)
    for s in it:
        out = promote_schema(out, s)
    return out


def conform(table: pa.Table, target: pa.Schema) -> pa.Table:
    """Cast ``table`` to ``target``: missing columns → null, ints widened.

    Used on the read path (old base/delta files written under an earlier
    schema version) and on the write path (segments that predate a column).
    Zero-copy when the table already matches.
    """
    if table.schema.equals(target):
        return table
    n = len(table)
    cols = []
    for f in target:
        if f.name in table.column_names:
            col = table[f.name]
            if not col.type.equals(f.type):
                col = col.cast(f.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(n, f.type))
    return pa.Table.from_arrays(cols, schema=target)


def schema_to_hex(schema: pa.Schema) -> str:
    h = schema.serialize().hex()
    return h.decode() if isinstance(h, bytes) else h


def schema_from_hex(hexstr: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.BufferReader(bytes.fromhex(hexstr)))


# -------------------------------------------------------- field descriptions
# Per-field documentation merged into the published schema — the analog of
# the reference's YAML description assets
# (/root/reference/schema/schema.go:101-136,
# schema/descriptions/toplevel.yaml): docs are config-as-data keyed by
# dotted field path; ``annotate_schema`` merges them into Arrow field
# metadata, which survives the manifest's IPC round-trip
# (schema_to_hex/schema_from_hex) for free.

# Docs shared by every datatype (the reference's toplevel.yaml).
TOPLEVEL_DOCS = {
    "id": "UUID of the connection / test under consideration.",
    "date": "Collection date; used to partition the lake.",
    "parser_version": "Version of the parser that produced this row.",
    "archive": "URL of the archive containing this test.",
    "member": "Original filename of the measurement inside the archive.",
    "datatype": "Registered parser datatype that claimed this member.",
}

# Per-datatype docs (the reference's <RowType>.yaml assets).
DATATYPE_DOCS = {
    "ndt7_result": {
        "test_time": "The date and time of the measurement in UTC.",
        "congestion_control":
            "The congestion control algorithm used for the connection.",
        "mean_throughput_mbps":
            "The measured rate in Mbit/s, derived from the last tcp-info "
            "snapshot of the measurement.",
        "min_rtt": "The minimum round trip time observed during the "
                   "measurement, in milliseconds.",
        "loss_rate": "Loss rate over the lifetime of the connection.",
    },
    "ndt5_result": {
        "direction": "Measured direction: s2c (download) or c2s (upload).",
        "test_time": "The date and time of the measurement in UTC.",
        "congestion_control":
            "The congestion control algorithm used for the connection.",
        "mean_throughput_mbps": "The measured rate in Mbit/s.",
        "min_rtt": "Minimum RTT in milliseconds (TCPInfo when present, "
                   "else the user-space estimate).",
        "loss_rate": "BytesRetrans/BytesSent when TCPInfo is present; "
                     "-1 = unknown.",
    },
    "cdc_lake": {
        "doc_id": "Primary key of the document this change applies to.",
        "last_seq": "Changelog sequence of the winning (last-writer) event.",
        "op": "Change operation: insert, update or delete.",
    },
}


def schema_docs_for(datatype: str) -> dict:
    """Toplevel docs merged with the datatype's own (datatype wins) — the
    FindSchemaDocsFor dispatch."""
    docs = dict(TOPLEVEL_DOCS)
    docs.update(DATATYPE_DOCS.get(datatype, {}))
    return docs


def _annotate_field(f: pa.Field, docs: dict, prefix: str) -> pa.Field:
    path = f"{prefix}{f.name}"
    if pa.types.is_struct(f.type):
        children = [_annotate_field(f.type.field(i), docs, f"{path}.")
                    for i in range(f.type.num_fields)]
        f = f.with_type(pa.struct(children))
    desc = docs.get(path)
    if desc is None:
        return f
    meta = dict(f.metadata or {})
    meta[b"description"] = desc.encode("utf-8")
    return f.with_metadata(meta)


def annotate_schema(schema: pa.Schema, docs: dict) -> pa.Schema:
    """Merge ``{dotted.field.path: description}`` into field metadata.
    Unknown doc keys are ignored (docs outlive schema revisions, exactly
    like the reference's YAML assets); nested struct fields use dotted
    paths."""
    return pa.schema(
        [_annotate_field(f, docs, "") for f in schema],
        metadata=schema.metadata)


def describe_schema(schema: pa.Schema) -> list:
    """Flatten to (dotted_path, type_str, description|None) rows — the
    publishable data dictionary."""
    out = []

    def walk(f: pa.Field, prefix: str):
        path = f"{prefix}{f.name}"
        meta = f.metadata or {}
        desc = meta.get(b"description")
        out.append((path, str(f.type),
                    desc.decode("utf-8") if desc else None))
        if pa.types.is_struct(f.type):
            for i in range(f.type.num_fields):
                walk(f.type.field(i), f"{path}.")

    for f in schema:
        walk(f, "")
    return out
