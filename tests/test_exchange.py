"""The storage exchange's edges: the footer fan-out of
``rowgroup_descriptors`` past its in-process threshold, and WAL columns
that arrive dictionary-encoded (fragments carry them as validated, a
payload that declares the column ``string`` decodes them, and the lake
reads back the same rows as from a plain-string WAL)."""

import dataclasses
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines.replay import replay
from etl_ray.sources.generator import generate_changelog
from etl_ray.stages.exchange import rowgroup_descriptors

VOCAB = 1000


@pytest.mark.usefixtures("ray_session")
def test_rowgroup_descriptors_fan_out_matches_local_path(tmp_path):
    """Past ``parallel_threshold`` (64 files) the footers are read by Ray
    tasks; the descriptors and their order match the in-process read."""
    paths = []
    for i in range(70):
        p = str(tmp_path / f"seg-{i:04d}.parquet")
        pq.write_table(pa.table({"doc_id": [f"d{i}"],
                                 "sequence_number": [i]}), p)
        paths.append(p)
    fanned = rowgroup_descriptors(paths)
    assert len(paths) > 64
    assert fanned == rowgroup_descriptors(paths,
                                          parallel_threshold=len(paths))
    assert fanned == [{"path": p, "rg": 0} for p in paths]


def _dictionary_segment(src: str, dst: str, reverse: bool) -> None:
    """Rewrite ``src`` with its ``source`` column as ``dictionary<string>``
    over the sorted (or reverse-sorted) distinct values."""
    t = pq.read_table(src)
    col = t["source"].combine_chunks()
    values = pa.array(sorted(set(col.to_pylist()) - {None},
                             reverse=reverse), pa.string())
    enc = pa.DictionaryArray.from_arrays(
        pc.index_in(col, value_set=values), values)
    i = t.schema.get_field_index("source")
    pq.write_table(t.set_column(i, "source", enc), dst)


def _rows(lake_dir: str) -> list:
    ds = read_lake(lake_dir, include_seq=True)
    rows = pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow")).to_pylist()
    return sorted(rows, key=lambda r: r["doc_id"])


@pytest.mark.usefixtures("ray_session")
def test_dictionary_wal_column_replays_like_plain(tmp_path):
    """Two segments whose ``source`` is ``dictionary<string>`` with
    different dictionaries replay to the rows of the plain-string WAL."""
    plain_wal, dict_wal = str(tmp_path / "plain"), str(tmp_path / "dict")
    paths = generate_changelog(plain_wal, n_events=1500, n_segments=2,
                               seed=21, vocab=VOCAB, corrupt_frac=0.02)
    os.makedirs(dict_wal)
    for i, p in enumerate(paths):
        _dictionary_segment(p, os.path.join(dict_wal, os.path.basename(p)),
                            reverse=bool(i))
    dict_paths = sorted(os.path.join(dict_wal, f)
                        for f in os.listdir(dict_wal))
    dicts = [pq.read_table(p)["source"].chunk(0).dictionary
             for p in dict_paths]
    assert all(pa.types.is_dictionary(pq.read_schema(p).field("source").type)
               for p in dict_paths)
    assert not dicts[0].equals(dicts[1])

    # the tokens payload without its ``source: string`` declaration, so
    # the column's type comes from the segments' footers
    payload = TokensPayload(vocab_size=VOCAB)
    payload = dataclasses.replace(payload, payload_schema=pa.schema(
        [f for f in payload.payload_schema if f.name != "source"]))
    cfg = EngineConfig(num_partitions=8, max_salt=4, batch_size=256,
                       payload=payload)
    lakes = {}
    for name, wal in (("plain", plain_wal), ("dict", dict_wal)):
        lakes[name] = str(tmp_path / f"lake-{name}")
        replay(wal, lakes[name], cfg)
    # and under the full tokens payload, whose ``source: string`` the
    # dictionary column is promoted to
    lakes["full"] = str(tmp_path / "lake-full")
    replay(dict_wal, lakes["full"], dataclasses.replace(
        cfg, payload=TokensPayload(vocab_size=VOCAB)))
    got = _rows(lakes["dict"])
    assert got == _rows(lakes["plain"]) == _rows(lakes["full"])

    exp = oracle_replay(paths, vocab=VOCAB).to_pylist()
    assert [r["doc_id"] for r in got] == sorted(r["doc_id"] for r in exp)
    by_doc = {r["doc_id"]: r for r in exp}
    for r in got:
        e = by_doc[r["doc_id"]]
        assert (r["tokens"], r["n_tok"], r["source"], r["sequence_number"]) \
            == (e["tokens"], e["n_tok"], e["source"], e["sequence_number"])
