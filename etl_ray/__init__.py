"""etl_ray — a Ray-Data-native CDC / incremental-ingest engine.

A WAL-style Parquet changelog of insert/update/delete events keyed on
``doc_id`` is tailed, decoded and validated with zero-copy Arrow in plain Ray
tasks, hash-partitioned by ``doc_id`` through a storage exchange of bucket
files, and applied as last-writer-wins upserts on
``(doc_id, sequence_number)`` into a partitioned Parquet lake — LSM-style
delta+base files, an atomic manifest with exactly-once commit markers,
per-partition watermark/lineage checkpoints, schema evolution (column add /
int widen), and explicit skew salting.

Capability model: m-lab/etl's archive-ingestion pipeline (see SURVEY.md for
the mechanism-by-mechanism mapping; citations are file:line into
/root/reference). This is a brand-new engine, not a port.
"""

from etl_ray.config import EngineConfig, PayloadSpec, TokensPayload
from etl_ray.pipelines.replay import replay
from etl_ray.pipelines.compaction import compact
from etl_ray.lake import read_lake
from etl_ray.state.manifest import Manifest

__all__ = [
    "EngineConfig",
    "PayloadSpec",
    "TokensPayload",
    "replay",
    "compact",
    "read_lake",
    "Manifest",
]

__version__ = "0.1.0"
