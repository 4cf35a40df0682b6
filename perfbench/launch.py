"""Entry points the benchmark runs in fresh processes, with ``src/`` on the path.

  launch.py cli --timing-out T [--trace-out S] -- <memlog arguments>
      Runs ``memlog.cli.main`` on the arguments and writes its wall time
      (and, traced, its spans) as JSON.
  launch.py serve --trace-out S --status-out C --embeddings E --model M [--audit A]
      Serves like ``memlog serve --bind 127.0.0.1:0`` with every layer
      traced; at SIGTERM writes the spans and the served-request counts.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from tracing import StatusCounter, Tracer


def run_cli(args: argparse.Namespace) -> int:
    from memlog import cli

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(args.rest)
    wall_s = time.perf_counter() - start
    with open(args.timing_out, "w") as fh:
        json.dump({"wall_s": wall_s}, fh)
    if tracer is not None:
        tracer.dump(args.trace_out)
    return code


def run_serve(args: argparse.Namespace) -> int:
    tracer = Tracer()
    tracer.install()
    statuses = StatusCounter()
    statuses.attach()
    from memlog.service import load_detector, make_server, serve_until_signal

    detector = load_detector(args.embeddings, args.model, 0.75, args.audit)
    server = make_server(detector, "127.0.0.1", 0)
    host, port = server.server_address[:2]

    def announce() -> None:
        print(f"listening on {host}:{port}", file=sys.stderr, flush=True)

    serve_until_signal(server, on_ready=announce)
    tracer.dump(args.trace_out)
    with open(args.status_out, "w") as fh:
        json.dump(dict(statuses.counts), fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    sub = parser.add_subparsers(dest="command", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--timing-out", required=True)
    cli.add_argument("--trace-out")
    cli.add_argument("rest", nargs=argparse.REMAINDER)
    cli.set_defaults(func=run_cli)
    serve = sub.add_parser("serve")
    serve.add_argument("--trace-out", required=True)
    serve.add_argument("--status-out", required=True)
    serve.add_argument("--embeddings", required=True)
    serve.add_argument("--model", required=True)
    serve.add_argument("--audit")
    serve.set_defaults(func=run_serve)
    args = parser.parse_args(argv)
    if getattr(args, "rest", None) and args.rest[0] == "--":
        args.rest = args.rest[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
