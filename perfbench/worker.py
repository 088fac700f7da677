"""Warm in-process loop over a workload's CLI commands.

run.py starts this in a fresh interpreter whose PYTHONPATH is the
checkout's src/, and drives it over stdin/stdout with one JSON object per
line, so that warm chunks can alternate with cold runs in other processes:

    -> {"tag": "u0", "seconds": 3.0, "min_iters": 2, "trace": false}
    <- {"runs": [{"dir": ..., "time": ..., "codes": [...], "stats": {...}}]}
    -> {"exit": true, "spans": "path or null"}
    <- {"peak_rss_kb": ..., "present": [...], "absent": [...]}

The first reply, sent after one warm-up iteration, is that iteration. A
chunk runs until both its time and its iteration count reach the given
minimums. Every command writes to its own directory so run.py can check
the outputs after this process has ended. With "trace" the chunk runs
under tracing.Tracer; the spans of the first traced iteration are kept.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, write_spans


def run_iteration(main, commands, outdir: Path) -> dict:
    codes = []
    t0 = time.perf_counter()
    for j, argv in enumerate(commands):
        try:
            code = main([*argv, "--out", str(outdir / f"c{j}")])
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = -1
        codes.append(code)
    return {"dir": str(outdir), "time": time.perf_counter() - t0, "codes": codes}


def run_chunk(main, commands, out: Path, request: dict, tracer: Tracer) -> list[dict]:
    runs = []
    if request.get("trace"):
        tracer.install()
    start = time.perf_counter()
    while len(runs) < request["min_iters"] or time.perf_counter() - start < request["seconds"]:
        if request.get("trace"):
            tracer.record_spans = not tracer.spans
            tracer.reset()
        run = run_iteration(main, commands, out / f"{request['tag']}-{len(runs)}")
        if request.get("trace"):
            run["stats"] = tracer.reset().as_dict()
            tracer.record_spans = False
        runs.append(run)
    tracer.uninstall()
    return runs


def main() -> int:
    commands, out = json.loads(sys.argv[1]), Path(sys.argv[2])
    reply = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol channel clean

    def send(obj):
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    from ptcoupler import cli

    tracer = Tracer()
    send(run_iteration(cli.main, commands, out / "warmup"))
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            if request.get("spans"):
                write_spans(request["spans"], tracer.spans)
            send({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "present": sorted(tracer.present), "absent": sorted(tracer.absent)})
            return 0
        send({"runs": run_chunk(cli.main, commands, out, request, tracer)})
    return 1


if __name__ == "__main__":
    sys.exit(main())
