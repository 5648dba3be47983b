#!/usr/bin/env python3
"""Scaling ladder (a report, not scored): where the CLI stops finishing.

Each rung is one CLI command on three dense quadrics with coefficients in
[-4, 4] (the same draws as the generic workload: q4, q5 and e5 are its
inputs), for poly n = 4..6 and ext n = 5..6.  A rung runs in its own
process under a timeout of TIMEOUT_S seconds; once a rung fails or times
out, the larger rungs of that command and ring kind are skipped.  The
report gives, per command and ring kind, the last rung that finished.

Usage (from the repository root):

    python3 perfbench/ladder.py

It prints one line per rung and writes perfbench/out/ladder.json.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
TIMEOUT_S = 60  # per rung

RUNGS = (("poly", (4, 5, 6)), ("ext", (5, 6)))
COMMANDS = (
    ("gin", ["gin"]),
    ("gin-lex", ["gin", "--order", "lex"]),
    ("betti", ["betti"]),
    ("alpha", ["alpha"]),
    ("check-all", ["check", "--all"]),
)


def write_inputs(workdir):
    sys.path.insert(0, str(SRC))
    import workloads
    from ginlab.parsing import render_ideal

    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, ns in RUNGS:
        for n in ns:
            tag = ("q" if kind == "poly" else "e") + str(n)
            ideal = workloads.dense_quadrics(kind, n, 3, tag)
            path = workdir / f"{tag}.txt"
            path.write_text(render_ideal(ideal))
            paths[(kind, n)] = str(path)
    return paths


def run_rung(argv, path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "ginlab.cli", argv[0], path] + argv[1:]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd + ["--json"], capture_output=True, env=env,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - t0
    status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
    return status, time.perf_counter() - t0


def main():
    paths = write_inputs(OUT / "ladder")
    rungs = []
    last = {}
    for name, argv in COMMANDS:
        for kind, ns in RUNGS:
            failed = False
            for n in ns:
                if failed:
                    status, seconds = "skipped", 0.0
                else:
                    status, seconds = run_rung(argv, paths[(kind, n)])
                    failed = status != "ok"
                    if not failed:
                        last[f"{name} {kind}"] = n
                rungs.append({"command": name, "kind": kind, "n": n,
                              "status": status, "seconds": round(seconds, 2)})
                print(f"{name:10s} {kind} n={n}: {status:8s} {seconds:7.1f} s",
                      flush=True)
    report = {
        "timeout_s": TIMEOUT_S,
        "last_finished": {f"{name} {kind}": last.get(f"{name} {kind}")
                          for name, _ in COMMANDS for kind, _ in RUNGS},
        "rungs": rungs,
    }
    (OUT / "ladder.json").write_text(json.dumps(report, indent=1) + "\n")
    for key, n in report["last_finished"].items():
        print(f"last finished: {key}: {'none' if n is None else f'n={n}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
