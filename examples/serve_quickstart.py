#!/usr/bin/env python3
"""Serving quickstart: boot the synthesis service and submit a batch.

Run with::

    python examples/serve_quickstart.py

This is the in-process version of the ``repro serve`` / ``repro submit``
walkthrough in the README:

1. start the HTTP synthesis server on an ephemeral port,
2. submit a small batch through the blocking :class:`repro.serve.Client`,
3. poll the jobs to completion and print the certified records,
4. resubmit the identical batch and watch every job come back as a warm
   cache hit (single-synthesis semantics),
5. read the ``/stats`` counters the server exposes.

The same server speaks plain HTTP — while it runs you could equally
``curl -X POST http://.../tasks -d '{"graph": "hal", "latency": 17}'``.
"""

from __future__ import annotations

from repro.serve import Client, start_server

#: One small Figure-2-style batch: hal at T=17 across four power budgets.
BATCH = [
    {"graph": "hal", "latency": 17, "power_budget": p, "label": f"hal-P{p:g}"}
    for p in (9.0, 10.0, 12.0, 16.0)
]


def main() -> None:
    # 1. Boot the full stack in-process: HTTP server -> worker pool ->
    #    persistent job queue -> shared result cache.  Port 0 binds an
    #    ephemeral port; a production deployment would use
    #    `repro serve --port 8642 --state-dir .serve` instead.
    with start_server(workers=2) as handle, Client(handle.url) as client:
        print(f"server listening on {handle.url}")
        print(f"healthz: {client.healthz()}")
        print()

        # 2./3. Submit the batch and block until every job finishes.
        #    Every feasible result has passed the independent certificate
        #    checker before it was stored (the run_task(verify=True) gate).
        records = client.submit_and_wait(BATCH)
        for record in records:
            outcome = (
                f"area={record.area:g} peak={record.peak_power:.2f}"
                if record.feasible
                else f"infeasible ({record.error})"
            )
            print(f"  {record.task.label}: {outcome}")
        print()

        # 4. The same batch again: content-identical tasks are answered
        #    from the shared cache without synthesizing anything.
        again = client.submit_and_wait(BATCH)
        hits = sum(1 for record in again if record.cached)
        print(f"identical resubmission: {hits}/{len(again)} served from cache")

        # 5. The server-side counters (queue depth, cache hit rate, and
        #    the same BatchSummary numbers `repro batch` prints).
        stats = client.stats()
        print(f"cache hit rate: {stats['cache']['hit_rate']:.0%}")
        print(f"summary: {stats['summary']}")


if __name__ == "__main__":
    main()
