"""Commit lineage counters and mergeable histograms.

The reference tracks per-buffer stats {Buffered, Pending, Committed, Failed}
with the invariant Accepted == Failed + Committed + Buffered
(/root/reference/row/row.go:45-104, etl/etl.go:23-35). Here the engine's
batching is Ray Data's job, so "buffered" only exists transiently inside a
commit; the durable invariant recorded in the manifest lineage is
events_in == valid + quarantined after every kind of commit: a recovery
moves events from quarantined to valid, and a bootstrap (base rows are not
events) adds only rows_written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class CommitStats:
    """Per-commit lineage, aggregated from per-shard apply results and
    persisted in the manifest ("per-partition rows/sec and lineage metrics",
    BASELINE.json north_star)."""

    commit_id: str = ""
    segments: list = field(default_factory=list)
    events_in: int = 0
    valid: int = 0
    quarantined: int = 0
    rows_written: int = 0
    deletes: int = 0
    wall_sec: float = 0.0
    per_partition: dict = field(default_factory=dict)  # part -> {rows, sec, rows_per_sec}
    histograms: dict = field(default_factory=dict)  # name -> Histogram json

    def to_json(self) -> dict:
        return {
            **({"histograms": self.histograms} if self.histograms else {}),
            "commit_id": self.commit_id,
            "segments": self.segments,
            "events_in": self.events_in,
            "valid": self.valid,
            "quarantined": self.quarantined,
            "rows_written": self.rows_written,
            "deletes": self.deletes,
            "wall_sec": round(self.wall_sec, 3),
            "events_per_sec": round(self.events_in / self.wall_sec, 1)
            if self.wall_sec > 0
            else None,
            "per_partition": self.per_partition,
        }


# --------------------------------------------------------------- histograms
# Prometheus-style cumulative-bucket histogram (the reference exports ~30
# metrics incl. duration/size histograms, metrics/metrics.go:398-555).
# Mergeable (bucket-wise add) so per-shard observations roll up into the
# commit lineage and across commits into /metrics.
DURATION_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                    5.0, 10.0, 30.0, 120.0)
ROWS_BUCKETS = (100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)


@dataclass
class Histogram:
    buckets: tuple = DURATION_BUCKETS
    counts: list = None  # len(buckets)+1; last is +Inf
    total: float = 0.0
    n: int = 0

    def __post_init__(self):
        if self.counts is None:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        import bisect

        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += float(value)
        self.n += 1

    def observe_many(self, values) -> None:
        for v in values:
            self.observe(float(v))

    def merge(self, other: "Histogram") -> "Histogram":
        assert tuple(other.buckets) == tuple(self.buckets)
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.n += other.n
        return self

    def to_json(self) -> dict:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "sum": round(self.total, 6), "count": self.n}

    @staticmethod
    def from_json(d: dict) -> "Histogram":
        return Histogram(buckets=tuple(d["buckets"]),
                         counts=list(d["counts"]), total=d["sum"],
                         n=d["count"])

    def prometheus_lines(self, name: str) -> list:
        """Cumulative-bucket text exposition lines."""
        out = [f"# TYPE {name} histogram"]
        cum = 0
        for le, c in zip(self.buckets, self.counts):
            cum += c
            out.append(f'{name}_bucket{{le="{le}"}} {cum}')
        cum += self.counts[-1]
        out.append(f'{name}_bucket{{le="+Inf"}} {cum}')
        out.append(f"{name}_sum {self.total}")
        out.append(f"{name}_count {self.n}")
        return out


def fold_histograms(into: dict, hists: Optional[dict]) -> None:
    """Merge a commit's histograms (name -> Histogram json) into the running
    fold ``into``, in place. The manifest folds each commit once, when it
    commits, so nothing re-folds the history per scrape."""
    for name, hjson in (hists or {}).items():
        h = Histogram.from_json(hjson)
        if name in into:
            h = Histogram.from_json(into[name]).merge(h)
        into[name] = h.to_json()


def prometheus_text(manifest) -> str:
    """Manifest lineage → Prometheus text exposition: the lineage counters
    as counters, and the per-stage histograms the manifest folded over
    every commit (the scrape surface of the reference's /metrics,
    metrics/metrics.go:398-555)."""
    lin = manifest.lineage
    lines = []
    for key in ("events_in", "valid", "quarantined", "rows_written",
                "deletes"):
        if key in lin:
            lines.append(f"# TYPE etl_ray_{key}_total counter")
            lines.append(f"etl_ray_{key}_total {lin[key]}")
    lines.append("# TYPE etl_ray_manifest_version gauge")
    lines.append(f"etl_ray_manifest_version {manifest.version}")
    lines.append("# TYPE etl_ray_commits_total counter")
    lines.append(f"etl_ray_commits_total {lin['commits_total']}")
    for hname in sorted(manifest.histograms):
        lines.extend(Histogram.from_json(manifest.histograms[hname])
                     .prometheus_lines(f"etl_ray_{hname}"))
    return "\n".join(lines) + "\n"
