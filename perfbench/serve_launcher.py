"""Run ``repro-serve`` with the benchmark's spans and counters.

Usage::

    python perfbench/serve_launcher.py --counts-out C.json
        [--spans-out S.jsonl] <repro-serve arguments>

With ``--spans-out`` the wrappers of ``tracing.py`` go around the
``repro`` entry points inside the server process before
:func:`repro.service.cli.main` starts it, and the span log is written
when the server has drained.  The result-cache and kernel counters are
always written to ``--counts-out`` on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--counts-out", required=True)
    parser.add_argument("--spans-out", default=None)
    args, serve_args = parser.parse_known_args(argv)

    tracer = None
    if args.spans_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        asyncio.set_event_loop_policy(tracing.ContextLoopPolicy())

    from repro.experiments import resultcache
    from repro.service import cli

    from harness import kernel_counts

    try:
        return cli.main(serve_args)
    finally:
        if tracer is not None:
            tracer.dump(args.spans_out)
        with open(args.counts_out, "w") as out:
            json.dump({"result_cache": resultcache.counts(),
                       **kernel_counts()}, out)


if __name__ == "__main__":
    sys.exit(main())
