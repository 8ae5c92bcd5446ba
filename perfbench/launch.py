"""Child-process entry point for the http-mixed and cli-cold workloads.

    python3 perfbench/launch.py serve --home H --stats F [--trace]
    python3 perfbench/launch.py cli --stats F [--trace] -- <hrbac arguments>

``serve`` loads the home the way ``hrbac serve`` does, binds
``httpapi.make_server`` to a free loopback port, prints {"port": N},
and serves until its standard input closes.  ``cli`` runs ``cli.main``
once.  Either way, with --trace the same wrappers as the in-process
workloads are installed first, and on exit the process writes its
wchar, peak RSS, import time and span summary to the stats file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_stats(path: str, tracer, import_ms: float, **extra) -> None:
    from perfbench import common

    stats = {
        "wchar": common.wchar(),
        "peak_rss_mb": common.peak_rss_mb(),
        "import_ms": import_ms,
        "trace": tracer.summary() if tracer is not None else None,
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("serve", "cli"))
    parser.add_argument("--home")
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    rest = argv[split + 1:]

    sys.path.insert(0, ROOT)
    from perfbench import common

    common.use_source_tree()
    from hrbac import cli, httpapi

    import_ms = (time.perf_counter() - START) * 1e3
    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer().install()

    if args.mode == "cli":
        code = cli.main(rest)
        _write_stats(args.stats, tracer, import_ms)
        return code

    gateway = cli.App(args.home, "json").gateway()
    server = httpapi.make_server(gateway, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.read()  # the parent closes our stdin to stop the server
    server.shutdown()
    server.server_close()
    thread.join()
    gateway.audit_log.close()
    _write_stats(args.stats, tracer, import_ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())
