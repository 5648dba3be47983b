#!/usr/bin/env python3
"""The ginlab benchmark: seeded workloads timed end to end, or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload in turn

Each workload is a closed loop with one client in this one process: items
run one after another, and whole passes over the item list repeat while
less than --seconds have gone by (at least one pass), each pass on the
next relabeling of the inputs (see workloads.py).  With --trace 0 the
run prints the end-to-end metrics, from item times normalized to a
reference core speed (see speed.py); the loop goes on past --seconds until
every relabeling has had as many passes as the others.  With --trace 1 it
runs one plain pass over the first relabeling, then one more with every
ginlab entry point wrapped in a span (see layers.py), and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Every item's output is hashed and compared with perfbench/digests.json;
the outputs do not depend on the seed, which only relabels the inputs (see
workloads.py).  An item fails if it raises, runs past the item timeout,
ends with a nonzero exit or verdict, or gives another digest.  Any failure
makes the run exit with status 1.

    python3 perfbench/run.py --workload corpus --record-digests

rewrites the committed digests of one workload from a seed-0 pass.
"""

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("corpus", "generic", "homology")
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median
ITEM_TIMEOUT_S = 100


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout(f"item ran past {ITEM_TIMEOUT_S} s")


def set_up(name, seed, tag):
    """Import ginlab and build the workload's input variants."""
    sys.path.insert(0, str(SRC))
    import ginlab

    if Path(ginlab.__file__).resolve().parent != SRC / "ginlab":
        raise ImportError(f"ginlab imported from {ginlab.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[name]
    return wl, wl.build(seed, wl.variants, OUT / f"{name}-{tag}")


def timed_set_up(name, seed, tag):
    """set_up and its time on the reference core (see speed.py)."""
    (wl, variants), seconds, pace = speed.Speedometer().measure(
        set_up, name, seed, tag)
    return wl, variants, speed.normalize(seconds, pace)


def probe_setup(name, seed):
    """Set-up times measured in fresh processes, so the import is cold."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def _guarded(wl, item):
    try:
        return wl.run(item)
    except Exception:  # the loop must go on: the failure is counted and shown
        return False, traceback.format_exc()


def run_item(wl, item, meter=None):
    """(ok, output text, seconds, mean chunk seconds) under the item timeout.

    Without a speedometer the chunk mean is None and the seconds are raw.
    """
    signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
    try:
        if meter is None:
            t0 = time.perf_counter()
            ok, text = _guarded(wl, item)
            return ok, text, time.perf_counter() - t0, None
        (ok, text), seconds, pace = meter.measure(_guarded, wl, item)
        return ok, text, seconds, pace
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Pass:
    wall: float
    seconds: list = field(default_factory=list)  # per item
    paces: list = field(default_factory=list)  # per item: mean chunk seconds
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # messages


def run_pass(wl, items, expected=None, meter=None, tracer=None):
    """One pass over the items, checked against the expected digests."""
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    done = Pass(0.0)
    t0 = time.perf_counter()
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.trace_id = idx
            sid = tracer.open("item")
        ok, text, seconds, pace = run_item(wl, item, meter)
        if tracer is not None:
            tracer.close(sid)
        digest = workloads.digest(text)
        want = expected[idx] if expected else digest
        if not ok or digest != want:
            reason = ("nonzero exit, violated verdict or exception" if not ok
                      else f"digest {digest}, expected {want}")
            done.failures.append(f"{item.label}: {reason}\n{text[:2000]}")
        done.seconds.append(seconds)
        done.paces.append(pace)
        done.digests.append(digest)
    done.wall = time.perf_counter() - t0
    return done


def timed_loop(wl, variants, expected, seconds, meter=None):
    """Whole passes while less than `seconds` have gone by, and on until
    every input variant has run equally often; pass k runs variant k modulo
    their number."""
    passes = []
    t0 = time.perf_counter()
    while (not passes or time.perf_counter() - t0 < seconds
           or len(passes) % len(variants)):
        items = variants[len(passes) % len(variants)]
        passes.append(run_pass(wl, items, expected, meter))
    return passes


def load_digests(name):
    """The committed digests of a workload as [label, digest] pairs."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def normalized(done):
    """A pass's item times on the reference core (see speed.py)."""
    return list(map(speed.normalize, done.seconds, done.paces))


def end_to_end(passes, nvariants, setup_times):
    """The end-to-end metrics from speed-normalized item times.

    Pass k ran relabeling k modulo nvariants, and every relabeling ran
    equally often.  An item's time is the mean over the relabelings of its
    median time on the reference core over the passes that ran it, so each
    relabeling weighs the same whatever the number of passes; wall_s is
    their sum, the time of one pass on that core.
    """
    per_pass = [normalized(p) for p in passes]
    item_s = [statistics.fmean(statistics.median(times[v::nvariants])
                               for v in range(nvariants))
              for times in zip(*per_pass)]
    wall = sum(item_s)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (len(item_s) / wall, "1/s"),
        "item_p50_ms": (statistics.median(item_s) * 1000, "ms"),
        "item_p90_ms": (percentile(item_s, 90) * 1000, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_pass(name, seed, wl, items, expected, meter, plain_s):
    """One traced set-up and pass over items; (pass, per-layer metrics).

    plain_s is the time on the reference core of an untraced pass over the
    same items, measured with the same speedometer.  Spans are timed on the
    speedometer's clock, which leaves out its sampling.
    """
    import layers

    tracer = layers.Tracer(meter.clock)
    tracer.install()
    try:
        sid = tracer.open("setup")
        wl.build(seed, wl.variants, OUT / f"{name}-traced")
        tracer.close(sid)
        done = run_pass(wl, items, expected, meter, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.summary(len(items))
    metrics["trace.overhead_s"] = (sum(normalized(done)) - plain_s, "s")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(OUT / f"trace-{name}-{seed}.jsonl")
    return done, metrics


def record_digests(name, wl, items):
    done = run_pass(wl, items)
    if done.failures:
        print("not recording:\n" + "\n".join(done.failures), file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[name] = [[item.label, d] for item, d in zip(items, done.digests)]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(items)} digests for {name} ({done.wall:.1f} s)")
    return 0


def run_workload(args):
    name = args.workload
    wl, variants, own_setup = timed_set_up(name, args.seed, "run")
    items = variants[0]
    if args.record_digests:
        return record_digests(name, wl, items)
    committed = load_digests(name)
    if committed is None or [c[0] for c in committed] != [i.label for i in items]:
        print(f"no committed digests for {name} in {DIGESTS}", file=sys.stderr)
        return 2
    expected = [d for _, d in committed]

    meter = speed.Speedometer()
    if args.trace:
        passes = [run_pass(wl, items, expected, meter)]
        traced, metrics = traced_pass(name, args.seed, wl, items, expected,
                                      meter, sum(normalized(passes[0])))
        passes.append(traced)
    else:
        setup_times = [own_setup] + probe_setup(name, args.seed)
        passes = timed_loop(wl, variants, expected, args.seconds, meter)
        metrics = end_to_end(passes, len(variants), setup_times)
        raw = statistics.median(p.wall for p in passes)
        print(f"raw pass wall time (median, not normalized): {raw:.3f} s; "
              f"speed chunk: best {min(meter.samples) * 1e6:.1f} us, median "
              f"{statistics.median(meter.samples) * 1e6:.1f} us, reference "
              f"{speed.REFERENCE_S * 1e6:.0f} us")

    attempted = len(items) * len(passes)
    failures = [f for p in passes for f in p.failures]
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {name}: seed {args.seed}, {len(passes)} passes of "
          f"{len(items)} items, {attempted} item samples, "
          f"failed_frac {len(failures) / attempted:.4f}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


def run_all(args):
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        returncode = subprocess.run(cmd).returncode
        status = status or returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.record_digests and (args.workload == "all" or args.seed != 0):
        parser.error("--record-digests takes one workload and seed 0")
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            print(timed_set_up(args.workload, args.seed, "probe")[2])
            return 0
        return run_workload(args)
    except ImportError as exc:
        print(f"cannot import ginlab from {SRC}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
