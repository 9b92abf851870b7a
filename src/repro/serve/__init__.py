"""The serving layer: a concurrent synthesis service over HTTP.

``repro.serve`` turns the batch/cache/verify stack into a long-lived
process that accepts work over the wire — the piece that makes the
repository a *service* rather than a toolbox:

* :class:`~repro.serve.queue.JobQueue` — a persistent, crash-tolerant
  priority queue of accepted jobs (append-only JSONL event log; replay
  requeues work a dead process left in flight; a configurable depth
  bound turns overload into :class:`QueueFullError` backpressure),
* :class:`~repro.serve.service.SynthesisService` — a worker tier
  executing jobs through :func:`~repro.api.batch.run_task` against one
  shared :class:`~repro.explore.cache.ResultCache`.  Workers are child
  *processes* (a :class:`~repro.exec.WorkerPool`), so CPU-bound
  synthesis scales past the GIL; a crashed child is detected, its job
  requeued, its slot respawned.  Single-flight is the store-level
  claim (:mod:`repro.store.claims`, a kernel-held byte lock) that
  :func:`~repro.api.batch.run_task` takes, the same rule within one
  service and across *any* processes sharing a cache directory,
* :class:`~repro.serve.http.SynthesisServer` / :func:`start_server` —
  a selector-based single-threaded JSON front (``POST /tasks``,
  ``GET /jobs/<id>``, ``GET /results/<key>``, ``GET /healthz``,
  ``GET /stats``) that holds thousands of idle pollers on one thread
  and answers queue overload with ``429 + Retry-After``,
* :class:`~repro.serve.client.Client` — a small blocking client with
  split connect/read timeouts and bounded exponential backoff on
  429/5xx, used by ``repro submit``, the examples and the end-to-end
  tests.

Quickstart (in-process, ephemeral port)::

    from repro.serve import Client, start_server

    with start_server(workers=4) as handle:
        client = Client(handle.url)
        records = client.submit_and_wait([
            {"graph": "hal", "latency": 17, "power_budget": p}
            for p in (10.0, 12.0, 16.0)
        ])
        for record in records:
            print(record.feasible, record.area, record.peak_power)

From the command line: ``repro serve --port 8642`` and
``repro submit batch.json --url http://127.0.0.1:8642 --wait``.
"""

from ..exec import WorkerCrash
from .client import Client, ClientError
from .http import ServerHandle, Submission, SynthesisServer, parse_submission, start_server
from .queue import Job, JobQueue, QueueError, QueueFullError
from .service import ServiceError, SynthesisService

__all__ = [
    "Client",
    "ClientError",
    "Job",
    "JobQueue",
    "QueueError",
    "QueueFullError",
    "ServerHandle",
    "ServiceError",
    "Submission",
    "SynthesisServer",
    "SynthesisService",
    "WorkerCrash",
    "parse_submission",
    "start_server",
]
