"""Write pins.json: the outputs of every workload.

    python3 perfbench/pin.py

Simulation workloads pin the sha256 of the trace file of their run;
bounds-k8 pins (lambda, lambda_tilde) of every matrix.  Every output is checked as in a benchmark run before
it is pinned.  Re-pin only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads as wl  # noqa: E402


def pins_for(workload) -> list:
    ctx = run.Context(workload, os.path.join(run.WORK_ROOT, "pin-" + workload.name))
    ctx.setup()
    ctx.pin = lambda item: None
    out = []
    for item in range(workload.items()):
        call = run.run_call(ctx, item)
        if call.error is not None:
            raise SystemExit(f"{workload.name} call {item}: {call.error}")
        if workload.kind == "sim":
            out.append(wl.sha256_hex(call.output))
        else:
            out.append([json.loads(call.output)[key] for key in ("lambda", "lambda_tilde")])
    print(f"{workload.name}: {len(out)} outputs pinned", file=sys.stderr)
    return out


def main() -> int:
    pins = {}
    for name, workload in wl.WORKLOADS.items():
        pins[name] = pins_for(workload)
    with open(wl.pins_path(), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
