import pyarrow as pa
import pytest

from etl_ray.schema import (
    conform,
    promote_schema,
    schema_from_hex,
    schema_to_hex,
)


def test_promote_adds_nullable_column():
    a = pa.schema([("x", pa.int32()), ("y", pa.string())])
    b = pa.schema([("x", pa.int32()), ("z", pa.float64())])
    p = promote_schema(a, b)
    assert p.names == ["x", "y", "z"]
    assert all(f.nullable for f in p)


def test_promote_widen_int():
    a = pa.schema([("n", pa.int32())])
    b = pa.schema([("n", pa.int64())])
    assert promote_schema(a, b).field("n").type == pa.int64()
    assert promote_schema(b, a).field("n").type == pa.int64()


def test_promote_widen_list_value():
    a = pa.schema([("t", pa.list_(pa.int32()))])
    b = pa.schema([("t", pa.list_(pa.int64()))])
    assert promote_schema(a, b).field("t").type == pa.list_(pa.int64())


def test_promote_dictionary_to_its_value_type():
    """``dictionary<string>`` vs ``string``, in either order, promotes to
    ``string``; conform decodes the dictionary column."""
    d = pa.schema([("s", pa.dictionary(pa.int32(), pa.string()))])
    s = pa.schema([("s", pa.string())])
    assert promote_schema(d, s).field("s").type == pa.string()
    assert promote_schema(s, d).field("s").type == pa.string()
    assert promote_schema(d, d).equals(d)
    t = pa.table({"s": pa.array(["a", None, "a"]).dictionary_encode()})
    assert conform(t, s)["s"].to_pylist() == ["a", None, "a"]


def test_promote_incompatible_raises():
    a = pa.schema([("n", pa.int32())])
    b = pa.schema([("n", pa.string())])
    with pytest.raises(TypeError):
        promote_schema(a, b)


def test_conform_fills_missing_and_widens():
    t = pa.table({"x": pa.array([1, 2], pa.int32())})
    target = pa.schema([("x", pa.int64()), ("lang", pa.string())])
    out = conform(t, target)
    assert out.schema.equals(target)
    assert out["lang"].null_count == 2
    assert out["x"].to_pylist() == [1, 2]


def test_schema_hex_roundtrip():
    s = pa.schema([("a", pa.list_(pa.int32())), ("b", pa.string())])
    assert schema_from_hex(schema_to_hex(s)).equals(s)
