"""Request-driven worker service: the reference's HTTP entry points.

m-lab/etl's parser runs as an HTTP service: a task queue / Gardener POSTs
one archive filename per request to ``/v2/worker`` and the worker processes
it synchronously, returning 200 on success (reference
cmd/etl_worker/etl_worker.go:118-158); ``active/poller.go:152-216`` is the
pull-based alternative the CLI's ``--poll`` flag covers.

Analog: a stdlib ThreadingHTTPServer in front of the SAME engine paths —
``/v2/worker?archive=<path>`` parses one archive through the registry
pipeline; ``/replay?wal=&lake=`` applies one CDC commit; ``/status?lake=``
returns the manifest summary. One Ray session is shared by all requests
(the server owns it, like any CLI entry point); requests serialize through
a lock because a single worker processes one task at a time — the
reference's ``max_active`` admission control collapses to 1 here, scale-out
is more worker replicas (k8s/data-pipeline/deployments/parser.yml:7).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


class BadRequest(ValueError):
    """Client-side error → HTTP 400 (reject, don't retry). Only raised by
    explicit request-validation steps; internal ValueError subclasses like
    pyarrow.ArrowInvalid from a corrupt lake must NOT map to 400, or a
    task-queue front-end that treats 4xx as permanent drops retryable
    work."""


class WorkerService:
    """Embeddable one-shot worker. ``serve_forever`` blocks; tests drive it
    on an ephemeral port in a thread."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._lock = threading.Lock()
        service = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # quiet
                pass

            def _reply(self, code: int, payload: dict):
                body = json.dumps(payload).encode()
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                self.do_POST()

            def do_POST(self):
                url = urlparse(self.path)
                q = {k: v[0] for k, v in parse_qs(url.query).items()}
                try:
                    if url.path == "/health":
                        self._reply(200, {"ok": True})
                    elif url.path == "/v2/worker":
                        self._reply(200, service.process_archive(q["archive"]))
                    elif url.path == "/replay":
                        self._reply(200, service.replay_once(
                            q["wal"], q["lake"]))
                    elif url.path == "/status":
                        self._reply(200, service.status(q["lake"]))
                    elif url.path == "/schema":
                        self._reply(200, service.schema_dictionary(
                            q["lake"]))
                    elif url.path == "/metrics":
                        body = service.metrics(q["lake"]).encode()
                        self.send_response(200)
                        self.send_header("Content-Type",
                                         "text/plain; version=0.0.4")
                        self.send_header("Content-Length", str(len(body)))
                        self.end_headers()
                        self.wfile.write(body)
                    else:
                        self._reply(404, {"error": "unknown path"})
                except KeyError as e:
                    self._reply(400, {"error": f"missing param {e}"})
                except BadRequest as e:
                    # invalid filename/params: reject, don't retry
                    self._reply(400, {"error": str(e)})
                except Exception as e:  # one bad task must not kill the pod
                    self._reply(500, {"error": str(e)})

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.port = self.httpd.server_address[1]

    # ------------------------------------------------------------ handlers
    def process_archive(self, archive: str) -> dict:
        """One-shot archive parse (the /v2/worker contract): counts parsed
        vs errored members, like the reference's per-task metrics. The
        ``archive`` param may be base64-encoded by a task-queue front-end
        (reference etl/globals.go:377-394)."""
        from etl_ray.functions.paths import get_filename
        from etl_ray.parsers import parse_archives

        try:
            archive = get_filename(archive)
        except ValueError as e:
            raise BadRequest(str(e))
        with self._lock:
            parsed = parse_archives([archive]).to_pandas()
        err = parsed["error"].notna()
        return {
            "archive": archive,
            "rows": int((~err).sum()),
            "errors": int(err.sum()),
            "datatypes": sorted(
                parsed.loc[~err, "datatype"].dropna().unique().tolist()),
        }

    def replay_once(self, wal: str, lake: str) -> dict:
        from etl_ray.config import EngineConfig
        from etl_ray.pipelines.replay import replay_once

        with self._lock:
            cs = replay_once(wal, lake, EngineConfig())
        if cs is None:
            return {"applied": 0, "caught_up": True}
        return {"applied": cs.events_in, "quarantined": cs.quarantined,
                "commit_id": cs.commit_id, "caught_up": False}

    def status(self, lake: str) -> dict:
        from etl_ray.state.manifest import Manifest

        m = Manifest.load(lake)
        return {
            "version": m.version,
            "applied_through_segment": m.applied_through_segment,
            "partitions": len(m.partitions),
            "lineage": m.lineage,
        }

    def schema_dictionary(self, lake: str) -> dict:
        """The lake's published data dictionary: every field with its type
        and description (the reference merges YAML description assets into
        the published schema, schema/schema.go:101-136). Descriptions ride
        in Arrow field metadata, so any schema committed by an annotated
        writer round-trips them through the manifest automatically;
        unannotated fields fall back to the shipped cdc_lake docs."""
        from etl_ray.schema import (annotate_schema, describe_schema,
                                    schema_docs_for)
        from etl_ray.state.manifest import Manifest

        m = Manifest.load(lake)
        schema = m.schema
        if schema is None:
            return {"version": m.version, "fields": []}
        schema = annotate_schema(schema, {
            **schema_docs_for("cdc_lake"),
            **{p: d for p, _t, d in describe_schema(schema) if d},
        })
        return {
            "version": m.version,
            "fields": [{"path": p, "type": t, "description": d}
                       for p, t, d in describe_schema(schema)],
        }

    def metrics(self, lake: str) -> str:
        """Prometheus text exposition of the lake's lineage counters and
        merged per-commit stage histograms (the reference's /metrics
        scrape, metrics/metrics.go:398-555)."""
        from etl_ray.state.manifest import Manifest
        from etl_ray.state.stats import prometheus_text

        return prometheus_text(Manifest.load(lake))

    # ----------------------------------------------------------- lifecycle
    def serve_forever(self):
        self.httpd.serve_forever()

    def shutdown(self):
        self.httpd.shutdown()
        self.httpd.server_close()


def main(argv=None):  # pragma: no cover - thin CLI shim
    import argparse

    ap = argparse.ArgumentParser(description="etl_ray one-shot worker")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8080)
    args = ap.parse_args(argv)
    svc = WorkerService(args.host, args.port)
    print(f"worker listening on {args.host}:{svc.port}")
    svc.serve_forever()


if __name__ == "__main__":  # pragma: no cover
    main()
