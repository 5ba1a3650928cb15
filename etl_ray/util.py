"""Small Ray helpers, and the atomic, durable file writer."""

from __future__ import annotations

import atexit
import contextlib
import functools
import os
import shutil
import tempfile
import uuid

import pyarrow as pa


# tasks per cluster CPU for descriptor work (scan, commit, compaction): two
# waves, the same rule as the stage-2 bucket count (replay.BUCKETS_PER_CPU).
# Each task pays ~5 ms of Ray dispatch, so packing descriptors into at most
# this many tasks keeps a small scan or commit from paying it per item.
TASKS_PER_CPU = 2


def cluster_cpus() -> int:
    """The cluster's CPU count, at least 1 (also where none is reported)."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def task_count(n_items: int) -> int:
    """Tasks for ``n_items`` descriptors: ``min(n_items, TASKS_PER_CPU ×
    cluster CPUs)``."""
    return min(n_items, TASKS_PER_CPU * cluster_cpus())


def descriptor_dataset(items, num_blocks=None):
    """Dataset of tiny work-descriptor rows in ``num_blocks`` contiguous
    blocks (default: one block per item).

    Descriptor rows are a few bytes; the executor's min-bundle size (1 MiB)
    would coalesce them into a single block and serialize the downstream
    stage. The context tweak is confined to dataset creation (the dataset
    snapshots its DataContext) — combine with ``batch_size=1`` on the
    consuming map_batches, so each task calls its function once per item of
    its block. Lake readers pass ``task_count(len(items))``: one map task
    per block, each merging its partitions one at a time.
    """
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    prev = ctx.target_min_block_size
    ctx.target_min_block_size = 0
    try:
        return rd.from_items(items,
                             override_num_blocks=num_blocks or len(items))
    finally:
        ctx.target_min_block_size = prev


def _call_descriptors(fn, descs: list) -> bytes:
    out = fn(pa.Table.from_pylist(descs))
    # an IPC stream crosses Ray in about half the time of a pa.Table
    # (measured ~1.8 vs ~3.5 ms per task for a 9-column stats table)
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, out.schema) as w:
        w.write_table(out)
    return sink.getvalue().to_pybytes()


@functools.lru_cache(maxsize=None)
def _remote_call():
    import ray

    return ray.remote(num_cpus=1)(_call_descriptors)


def map_descriptors(fn, items) -> pa.Table:
    """Run ``fn`` over the descriptor dicts of ``items`` in
    ``task_count(len(items))`` Ray tasks (``num_cpus=1``), each taking one
    contiguous slice of ``items`` as a multi-row descriptor table, and
    return the result tables concatenated in submission order.

    ``fn`` is a constructed callable that loops over its descriptor rows
    (the stage callables: FragmentReadWriter, ApplyBucket, CompactGroup,
    _SigPartition); it is ``ray.put`` once and shared by every task. This
    is the whole dispatch layer of every lake write: a Ray Data pipeline
    over the same descriptors spends ~60-120 ms planning and dispatching
    per stage, against ~5 ms per task here, and needs no CPUs held back
    for an actor pool."""
    import ray

    if not items:
        return pa.table({})
    n = task_count(len(items))
    call = _remote_call()
    fn_ref = ray.put(fn)
    # n contiguous slices whose sizes differ by at most one
    cuts = [len(items) * i // n for i in range(n + 1)]
    refs = [call.remote(fn_ref, items[a:b])
            for a, b in zip(cuts, cuts[1:])]
    return pa.concat_tables(
        [pa.ipc.open_stream(b).read_all() for b in ray.get(refs)])


@functools.lru_cache(maxsize=None)
def _scratch_root() -> str:
    root = tempfile.mkdtemp(prefix="etl_ray_")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def scratch_dir(prefix: str) -> str:
    """A new directory for files the engine's fixtures and the
    ``__ray_entry__`` queries write outside any caller's path. Every one
    lives under one root per process, made in the system temp dir on first
    use and removed when the process exits."""
    return tempfile.mkdtemp(prefix=prefix, dir=_scratch_root())


def _fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(tmp: str, path: str) -> None:
    """Durably move a fully written ``tmp`` over ``path``: fsync its bytes,
    rename it, then fsync the directory so the rename itself survives a
    power loss (an un-synced directory entry can point back at the old
    file, or at none)."""
    _fsync_path(tmp)
    os.replace(tmp, path)
    _fsync_path(os.path.dirname(path) or ".")


@contextlib.contextmanager
def atomic_path(path: str):
    """Yield a tmp path beside ``path`` for the caller to write; on a clean
    exit ``publish`` it over ``path``. On an error the tmp file is removed
    and nothing is published. Each call gets its own tmp name, so two
    writers of one path never share bytes: the last rename wins whole.
    The one writer of every file the engine renames into place, except
    exchange fragments (transient; a retry rebuilds them)."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        yield tmp
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    publish(tmp, path)


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through ``atomic_path``."""
    with atomic_path(path) as tmp, open(tmp, "w") as f:
        f.write(text)


def resolve_fs(path: str):
    """URI → (pyarrow filesystem, fs-local path). Plain paths stay on the
    local filesystem; ``s3://``/``gs://``/``file://`` URIs route through
    pyarrow.fs (the reference streams archives from object storage,
    storage/storage.go:242-304 — here any pyarrow-supported store works;
    ray.data readers accept the same URIs natively)."""
    from pyarrow import fs as pafs

    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), path


def fs_listdir(path: str):
    """Sorted (name, size) of regular files under ``path`` (non-recursive),
    URI-transparent."""
    from pyarrow import fs as pafs

    f, p = resolve_fs(path)
    sel = pafs.FileSelector(p, recursive=False)
    infos = [i for i in f.get_file_info(sel) if i.type == pafs.FileType.File]
    return f, sorted((i.base_name, i.size) for i in infos)


def to_pandas_keep_schema(ds):
    """``Dataset.to_pandas()`` that preserves COLUMN NAMES when every block
    is empty. Ray's streaming executor drops empty blocks, so an all-empty
    result loses its schema through ``to_pandas()`` (observed on 2.49:
    zero columns); ``ds.schema()`` still knows it — rebuild the empty
    frame from that."""
    df = ds.to_pandas()
    if len(df) == 0 and len(df.columns) == 0:
        schema = ds.schema()
        if schema is not None:
            empty = pa.schema(
                [pa.field(n, t) for n, t in
                 zip(schema.names, schema.types)]).empty_table()
            return empty.to_pandas()
    return df
