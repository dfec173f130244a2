"""Traced launcher for ``repro serve``: the same CLI, with the tracer inside.

    python -m perfbench.serve_child REPORT_JSON SPANS_JSONL -- <repro serve args>

Installs the benchmark's tracer before the service, runtime and query bridge
exist, runs ``repro.cli.main(["serve", ...])`` unchanged, then writes the
spans and a report (span summary, counters, the service's own stats).
Untraced runs start ``python -m repro serve`` directly instead.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv=None) -> int:
    t_start = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    report_path, spans_path = argv[:split]
    serve_args = argv[split + 1 :]

    from .spans import COUNTERS, Tracer

    tracer = Tracer()

    def note_backlog(tracer, call_args, result):
        total = float(call_args[1])
        tracer.counters["serve.backlog_max"] = max(tracer.counters["serve.backlog_max"], total)

    tracer.install(extra=COUNTERS)
    from repro.serve import ingest, service

    tracer.wrap(ingest.IngestController, "note_buffered", "serve.note_buffered", note_backlog)
    captured = []
    original_build = service.ReproService.build

    def build(self):
        captured.append(self)
        return original_build(self)

    service.ReproService.build = build

    from repro.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    wall = time.perf_counter() - t_start
    report = tracer.report(wall)
    if captured:
        svc = captured[0]
        report["service_stats"] = svc.stats()
        report["events_published"] = svc.runtime.bus.published
    tracer.write_jsonl(spans_path)
    with open(report_path, "w") as fp:
        json.dump(report, fp, default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
