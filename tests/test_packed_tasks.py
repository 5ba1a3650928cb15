"""Descriptor packing: commit, compaction and scan work runs in at most two
tasks per cluster CPU, each over a contiguous slice of descriptors, with
results in submission order and the same rows as an unpacked merge."""

import textwrap

import pytest

import etl_ray.util
from etl_ray.util import TASKS_PER_CPU, map_descriptors


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("max_tasks", [1, 3, None])
@pytest.mark.parametrize("n", [1, 5, 33])
def test_map_descriptors_packs_in_order(n, max_tasks, monkeypatch):
    import pyarrow as pa
    import ray

    if max_tasks is not None:
        monkeypatch.setattr(etl_ray.util, "task_count",
                            lambda k: min(k, max_tasks))

    class Record:
        """Tags each descriptor row with the task that ran it."""

        def __call__(self, desc: pa.Table) -> pa.Table:
            task = ray.get_runtime_context().get_task_id()
            return pa.table({"i": desc["i"],
                             "task": pa.array([task] * len(desc))})

    out = map_descriptors(Record(), [{"i": i} for i in range(n)])
    # every descriptor once, in submission order
    assert out["i"].to_pylist() == list(range(n))
    tasks = out["task"].to_pylist()
    cap = max_tasks or TASKS_PER_CPU * int(
        ray.cluster_resources()["CPU"])
    assert len(set(tasks)) == min(n, cap)
    # each task took one contiguous slice
    runs = [t for k, t in enumerate(tasks) if k == 0 or tasks[k - 1] != t]
    assert len(runs) == len(set(runs))


# Runs in its own process so it can size its own Ray cluster.
_READ_SCRIPT = textwrap.dedent("""
    import os, sys
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    cpus = int(sys.argv[2])
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import etl_ray.lake as lake_mod
    from etl_ray.config import EngineConfig, TokensPayload
    from etl_ray.pipelines.replay import replay
    from etl_ray.sources.generator import generate_changelog
    from etl_ray.stages.merge import merge_runs
    from etl_ray.state.manifest import Manifest

    tmp = sys.argv[1]
    wal, lake = os.path.join(tmp, "wal"), os.path.join(tmp, "lake")
    calls = os.path.join(tmp, "calls.txt")
    generate_changelog(wal, n_events=900, n_segments=3, seed=8, vocab=100,
                       max_tok=24, evolve_at_segment=2)
    replay(wal, lake, EngineConfig(num_partitions=16, max_salt=2,
                                   batch_size=128,
                                   payload=TokensPayload(vocab_size=100)),
           segments_per_commit=1)

    class CountingMergeRead(lake_mod.MergeRead):
        def __call__(self, batch):
            task = ray.get_runtime_context().get_task_id()
            with open(calls, "a") as fh:
                fh.write(task + "\\n")
            return super().__call__(batch)

    lake_mod.MergeRead = CountingMergeRead

    # driver-side reference: every live file of every partition, one merge
    m = Manifest.load(lake)
    ref = []
    for _, p in sorted(m.partitions.items()):
        if p.files:
            ref.append(merge_runs(
                [pq.read_table(os.path.join(lake, f)) for f in p.files],
                drop_deletes=True, target_schema=m.schema))
    ref = pa.concat_tables(ref)
    n_parts = sum(1 for p in m.partitions.values() if p.files)
    lang = ref["lang"]
    assert 0 < lang.null_count < len(lang), "no file predates the evolution"

    def check(ds, cols):
        got = pa.concat_tables(
            ds.iter_batches(batch_format="pyarrow", batch_size=None))
        assert got.column_names == cols, got.column_names
        assert got.sort_by("doc_id").equals(
            ref.select(cols).sort_by("doc_id"))
        with open(calls) as fh:
            tasks = fh.read().split()
        os.remove(calls)
        assert len(tasks) == n_parts, (len(tasks), n_parts)
        assert len(set(tasks)) <= 2 * cpus, (len(set(tasks)), cpus)

    check(lake_mod.read_lake(lake, include_seq=True),
          [c for c in ref.column_names
           if c not in ("op", "__reason", "__shard")])
    check(lake_mod.read_lake(lake, columns=["doc_id", "lang"]),
          ["doc_id", "lang"])
    print("OK")
""")


@pytest.mark.parametrize("cpus", [1, 2])
def test_read_lake_packs_partitions_into_few_tasks(run_own_cluster, cpus):
    run_own_cluster(_READ_SCRIPT, cpus)
