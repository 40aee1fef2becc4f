"""Benchmark worker: a fresh interpreter that imports shapecalc.cli from the
checkout's ``src`` and runs ``cli.main(argv)`` in-process, one call at a
time, as the driving process asks.

Protocol, one JSON object per line: the worker prints ``{"ready": true}``
once the import is done. Each ``{"op": "call", "argv": [...], "trace":
bool}`` is answered with ``{"code": exit code, "s": seconds in main}``;
``{"op": "quit", "spans": path or null}`` with the peak RSS and, if any
call was traced, the per-span self times. The worker then exits.

Usage: python3 bench/worker.py <checkout root>
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def main() -> int:
    src = (Path(sys.argv[1]) / "src").resolve()
    sys.path.insert(0, str(src))
    import shapecalc.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"worker: shapecalc imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    # The protocol keeps the original stdout; anything the program prints
    # goes to stderr instead.
    channel = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")

    send({"ready": True})
    tracer = None
    for line in sys.stdin:
        message = json.loads(line)
        if message["op"] == "quit":
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                reply.update(layers=tracer.summary(), instances=tracer.instances,
                             missing=tracer.missing)
                if message.get("spans"):
                    tracer.save(message["spans"])
            send(reply)
            return 0
        argv, trace = message["argv"], message["trace"]
        if trace:
            if tracer is None:
                from tracer import Tracer

                tracer = Tracer()
            tracer.install()
        started = perf_counter()
        try:
            code = tracer.root(cli.main, argv) if trace else cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception:  # the call's failure is the result, not the worker's
            traceback.print_exc()
            code = "exception"
        seconds = perf_counter() - started
        if trace:
            tracer.uninstall()
        send({"code": code, "s": seconds})
    return 1


if __name__ == "__main__":
    sys.exit(main())
