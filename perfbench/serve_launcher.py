"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py --spans SPANS.json serve [serve options]

The launcher installs the in-process engine wrappers plus the serving
layer's (``result_to_lines`` as ``service.encode``, ``Simulator.run`` as
``service.run``), runs the ordinary ``repro`` command line, and on exit
(SIGINT) writes every recorded span to ``SPANS.json``.  Spans carry the
request id they served as their op id, so the client can join them to its
own spans of the same request.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path = Path(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.layers import engine_points
    from perfbench.trace import Point, Tracer
    from repro.cli import main as cli_main

    tracer = Tracer()
    #: id(plan) of each flight's plan -> the request id that submitted it.
    plan_requests: Dict[int, str] = {}

    def remember(args, kwargs, request_id):
        plan_requests[id(args[1])] = request_id
        return {}

    tracer.install(
        engine_points()
        + [
            Point("repro.service.core:EnvelopeService", "submit", "service.accept", count=remember),
            Point(
                "repro.service.http:ServiceHTTPServer",
                "_handle_result",
                op=lambda args, kwargs: args[2],
                context_op=True,
            ),
            Point("repro.service.http", "result_to_lines", "service.encode"),
            Point(
                "repro.api:Simulator",
                "run",
                "service.run",
                op=lambda args, kwargs: plan_requests.get(id(args[1])),
            ),
        ]
    )
    try:
        return cli_main(sys.argv[3:])
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.to_records()))


if __name__ == "__main__":
    sys.exit(main())
