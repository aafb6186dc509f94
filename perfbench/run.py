#!/usr/bin/env python3
"""bandshape benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload link_sweep --seed 0 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src. Workloads
(see perfbench/README.md): link_sweep, codec_stream, codebook_design.

The workload runs in a fresh process (workload.py). Before an untraced run,
SETUP_PROBES more fresh processes only set up, so set-up time is the median
of several process starts; a traced run reports no set-up time and skips
them. stdout carries a record line (machine facts, the
workload's own timings, any failed checks) and then, as the last line, the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("link_sweep", "codec_stream", "codebook_design")
SETUP_PROBES = 2
TIME_LIMIT_S = 175.0


def load_average_1min() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run workload.py in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    # run() kills the child and waits for it if the timeout expires
    proc = subprocess.run(cmd + ["--t0", repr(time.time())], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bandshape" / "__init__.py").is_file():
        print(f"error: no bandshape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    load_1min = load_average_1min()
    try:
        setups = [spawn(args, ["--setup-only"], TIME_LIMIT_S)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        res = spawn(args, [], TIME_LIMIT_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    machine = dict(res["machine"], loadavg_1min_at_start=load_1min)
    record = {"record": "bandshape-bench", "workload": args.workload,
              "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "units": res["units"], "setup_samples_s": setups,
              "failed_frac": res["failed"] / res["attempted"],
              "detail": res.get("detail", {}), "problems": res["problems"][:20],
              "machine": machine}
    print(json.dumps(record))

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "work_s": {"value": res["work_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1 - res["failed"] / res["attempted"], "unit": "frac"},
        }
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_frac", "frac"),
                         ("_ratio", "frac"), ("_bytes_computed", "B"), ("_bytes", "B"),
                         ("_flop", "flop"), ("_len", "count")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
