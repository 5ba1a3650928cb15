"""Property-based tests (hypothesis): the LWW merge kernel against a
brute-force dict replay, schema promotion laws."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from etl_ray.schema import conform, promote_schema
from etl_ray.stages.merge import drop_tombstones, lww_last_per_keys, merge_runs

doc_ids = st.text(alphabet="abcd", min_size=1, max_size=3)
ops = st.sampled_from(["insert", "update", "delete"])


@st.composite
def event_lists(draw):
    n = draw(st.integers(0, 60))
    seqs = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n,
                         unique=True))
    return [
        {
            "doc_id": draw(doc_ids),
            "sequence_number": seqs[i],
            "op": draw(ops),
            "v": draw(st.integers(-5, 5)),
        }
        for i in range(n)
    ]


def brute_force(events):
    state = {}
    for e in sorted(events, key=lambda e: e["sequence_number"]):
        if e["op"] == "delete":
            state.pop(e["doc_id"], None)
        else:
            state[e["doc_id"]] = e
    return state


SCHEMA = pa.schema(
    [("doc_id", pa.string()), ("sequence_number", pa.int64()),
     ("op", pa.string()), ("v", pa.int64())]
)


@settings(max_examples=120, deadline=None)
@given(event_lists())
def test_lww_equals_bruteforce(events):
    t = pa.Table.from_pylist(events, schema=SCHEMA)
    merged = drop_tombstones(lww_last_per_keys(t, ["doc_id"]))
    got = {r["doc_id"]: r for r in merged.to_pylist()}
    exp = brute_force(events)
    assert set(got) == set(exp)
    for k in exp:
        assert got[k]["sequence_number"] == exp[k]["sequence_number"]
        assert got[k]["v"] == exp[k]["v"]


@settings(max_examples=60, deadline=None)
@given(event_lists(), st.integers(1, 4))
def test_lww_partition_invariant(events, nruns):
    """Merging any split of the events into runs (the LSM shape: arbitrary
    delta-file boundaries, including duplicated events across runs) gives the
    same final state as merging everything at once — the property that makes
    salting and crash-retry fragment duplication safe."""
    runs = [[] for _ in range(nruns)]
    for i, e in enumerate(events):
        runs[i % nruns].append(e)
    if events:
        runs[0].extend(events[:3])  # duplicated delivery
    tables = [pa.Table.from_pylist(r, schema=SCHEMA) for r in runs if r]
    if not tables:
        return
    got = merge_runs(tables, drop_deletes=True, target_schema=SCHEMA)
    exp = drop_tombstones(lww_last_per_keys(
        pa.Table.from_pylist(events, schema=SCHEMA), ["doc_id"]))
    g = {r["doc_id"]: r["sequence_number"] for r in got.to_pylist()}
    e = {r["doc_id"]: r["sequence_number"] for r in exp.to_pylist()}
    assert g == e


int_types = st.sampled_from([pa.int8(), pa.int16(), pa.int32(), pa.int64()])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcde"), int_types),
                min_size=1, max_size=5, unique_by=lambda t: t[0]),
       st.lists(st.tuples(st.sampled_from("abcde"), int_types),
                min_size=1, max_size=5, unique_by=lambda t: t[0]))
def test_promote_schema_laws(fa, fb):
    a = pa.schema([pa.field(n, t) for n, t in fa])
    b = pa.schema([pa.field(n, t) for n, t in fb])
    p = promote_schema(a, b)
    # upper bound: every column readable from both sides
    assert set(p.names) == set(a.names) | set(b.names)
    # widening is monotone: conforming data of either schema succeeds
    ta = pa.Table.from_pylist([{n: 1 for n, _ in fa}], schema=a)
    out = conform(ta, p)
    assert out.schema.equals(p)
    # idempotent
    assert promote_schema(p, p).equals(p)
    # commutative up to column order
    q = promote_schema(b, a)
    assert {f.name: f.type for f in p} == {f.name: f.type for f in q}
