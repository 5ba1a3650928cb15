import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture()
def tmp_lake(tmp_path):
    d = tmp_path / "lake"
    d.mkdir()
    return str(d)


@pytest.fixture()
def run_own_cluster(tmp_path):
    """Run a script in its own process (so it can size its own Ray
    cluster) as ``python -c script tmp_path cpus``; fail the test unless it
    exits 0 and prints OK last within ``timeout`` seconds."""

    def run(script: str, cpus: int, timeout: int = 300) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path), str(cpus)],
            cwd=REPO, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"did not finish in {timeout} s at {cpus} CPUs")
        assert proc.returncode == 0 and out.rstrip().endswith("OK"), \
            out[-3000:]

    return run


@pytest.fixture()
def forbid_ray_data(monkeypatch):
    """Make Ray Data's pipeline entry points raise in the test process, so
    a test can show that a code path dispatches plain Ray tasks only.
    ``monkeypatch.undo()`` lifts the patches."""
    import ray.data as rd

    def planned(*args, **kwargs):
        raise AssertionError("Ray Data pipeline planned")

    for obj, name in ((rd, "from_items"), (rd, "read_parquet"),
                      (rd.Dataset, "map_batches"), (rd.Dataset, "groupby")):
        monkeypatch.setattr(obj, name, planned)


@pytest.fixture()
def tmp_wal(tmp_path):
    d = tmp_path / "wal"
    d.mkdir()
    return str(d)


SF_DIR = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture()
def assert_lake_format():
    """Check one engine-written Parquet file against the lake file format
    (``etl_ray.lake.write_options``): ``doc_id`` has no dictionary page,
    and ``tokens.list.element`` and ``sequence_number``, where present, are
    ``DELTA_BINARY_PACKED`` with no dictionary page. Returns the column
    paths the file holds."""
    import pyarrow.parquet as pq

    def check(path: str) -> set:
        md = pq.ParquetFile(path).metadata
        assert md.num_row_groups > 0, path
        cols = set()
        for rg in range(md.num_row_groups):
            for i in range(md.num_columns):
                c = md.row_group(rg).column(i)
                name = c.path_in_schema
                cols.add(name)
                if name in ("doc_id", "tokens.list.element",
                            "sequence_number"):
                    assert not c.has_dictionary_page, (path, name)
                if name in ("tokens.list.element", "sequence_number"):
                    assert "DELTA_BINARY_PACKED" in c.encodings, \
                        (path, name, c.encodings)
        assert "doc_id" in cols, path
        return cols

    return check
