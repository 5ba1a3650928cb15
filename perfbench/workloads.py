"""The benchmark's workloads: WAL shape plus the operations of one cycle.

Every cycle starts from an empty lake and replays the same WAL through the
same operation list, so a faster engine runs more identical cycles and never
changes what a cycle looks like. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    n_events: int
    n_segments: int
    segments_per_commit: int
    # a scan and a compaction follow every ``maintain_every``-th commit
    maintain_every: int
    # compact(force=True), else the default policy (compact_min_deltas)
    force_compact: bool
    # a second full scan after each compaction
    rescan: bool
    evolve_at_segment: Optional[int] = None
    corrupt_frac: float = 0.0

    def wal_params(self, seed: int) -> dict:
        return dict(n_events=self.n_events, n_segments=self.n_segments,
                    seed=seed, evolve_at_segment=self.evolve_at_segment,
                    corrupt_frac=self.corrupt_frac)

    def cycle(self) -> List[Tuple]:
        """("commit", max_segments) | ("scan",) | ("compact", force)."""
        ops: List[Tuple] = []
        for c in range(1, self.n_segments // self.segments_per_commit + 1):
            ops.append(("commit", self.segments_per_commit))
            if c % self.maintain_every == 0:
                ops.append(("scan",))
                ops.append(("compact", self.force_compact))
                if self.rescan:
                    ops.append(("scan",))
        return ops


BULK_BACKFILL = Workload(
    name="bulk_backfill",
    n_events=100_000, n_segments=4, segments_per_commit=4,
    maintain_every=1, force_compact=True, rescan=True,
)

TAIL_COMMITS = Workload(
    name="tail_commits",
    n_events=48_000, n_segments=48, segments_per_commit=1,
    maintain_every=8, force_compact=False, rescan=False,
    evolve_at_segment=24, corrupt_frac=0.01,
)

WORKLOADS = {w.name: w for w in (BULK_BACKFILL, TAIL_COMMITS)}

# WAL of the warm-up commit, scan and compaction timed by setup_s
WARMUP = Workload(
    name="warmup", n_events=2_000, n_segments=2,
    segments_per_commit=2, maintain_every=1, force_compact=True,
    rescan=False,
)
