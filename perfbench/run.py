"""Run one benchmark workload through the MIC paper stack and report it.

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats identical seeded trials until ``--seconds`` host
seconds have been measured (at least three), checks every trial's outputs
and prints the end-to-end metrics.  ``--trace 1`` runs one untraced trial and then one
trial with every layer's public entry points wrapped from outside
(see ``layers.py``), and prints the per-layer metrics.  ``--workload all``
runs each workload in its own process, one after the other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every correctness check passed, 1 when one failed and 2 when the
``repro`` sources are missing.  See README.md beside this file.
"""

from __future__ import annotations

# Measuring host time is this file's job.  # lint: file-allow(wall-clock)

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("sessions", "bulk", "hybrid")
#: trials per untraced run, at least; more run until --seconds is measured
MIN_TRIALS = 3
#: set-up samples and host seconds of set-up per untraced run, at least
#: (set-ups beyond the trials' own run alone)
MIN_SETUPS = 5
MIN_SETUP_S = 1.0
#: host seconds :func:`speed_probe` takes on the reference machine; a nominal
#: constant, so that scaled figures read close to raw ones there
PROBE_REF_S = 0.020

#: the end-to-end metrics of BENCHMARK.json, reported by every workload
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("payload_mb_per_s", "MB/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def git_rev(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(trace: bool) -> dict:
    """Where and how the numbers were taken."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(ROOT),
        "trace": trace,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p(samples: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two samples."""
    if q == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100)[q - 1]


def paper_metrics(name: str, trials: list, metrics: dict, n_setups: int):
    """The run's figures under the paper-facing names of README.md:
    ``(name, value, unit, samples)``.  Host figures repeat the end-to-end
    metrics; simulated ones come from the first trial, which is an exact
    function of the seed and size."""
    first = trials[0]
    n = len(trials)
    if name == "sessions":
        connect = first.sim["connect_s"]
        rows = [
            ("sessions_per_s", metrics["ops_per_s"], "1/s host", n),
            ("sim_setup_ms.p50", _p(connect, 50) * 1e3, "ms simulated", len(connect)),
            ("sim_setup_ms.p95", _p(connect, 95) * 1e3, "ms simulated", len(connect)),
        ]
    elif name == "bulk":
        rtt, goodput = first.sim["echo_rtt_s"], first.sim["goodput_bps"]
        rows = [
            ("payload_mb_per_s", metrics["payload_mb_per_s"], "MB/s host", n),
            ("echo_per_s", metrics["ops_per_s"], "1/s host", n),
            ("sim_echo_rtt_us.p50", _p(rtt, 50) * 1e6, "us simulated", len(rtt)),
            ("sim_echo_rtt_us.p95", _p(rtt, 95) * 1e6, "us simulated", len(rtt)),
            ("sim_goodput_mbps", statistics.fmean(goodput) / 1e6, "Mb/s simulated",
             len(goodput)),
        ]
    else:
        fluid = first.sim["fluid_goodput_bps"]
        rows = [
            ("channels_per_s", metrics["ops_per_s"], "1/s host", n),
            ("sim_fluid_goodput_mbps", statistics.fmean(fluid) / 1e6, "Mb/s simulated",
             len(fluid)),
        ]
    attempted = sum(t.attempted for t in trials)
    failed = sum(t.failed for t in trials)
    return rows + [
        ("setup_s", metrics["setup_s"], "s host", n_setups),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
        ("failed_frac", failed / attempted if attempted else 1.0, "ratio", attempted),
    ]


def speed_probe() -> float:
    """Host seconds of a fixed pure-Python loop.

    On a shared machine the speed at which this process runs Python drifts
    by tens of percent for minutes at a time.  Timing this probe beside the
    trials measures that drift, so host figures can be scaled to a fixed
    reference speed.  The probe is the benchmark's own code: a change to
    the program does not move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t0


def run_untraced(name: str, seed: int, seconds: float):
    """Trials until ``seconds`` host seconds are measured; returns
    ``(trials, setups, slowdown, end_to_end metrics)``."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    probes = []
    trials = []
    while True:
        probes.append(speed_probe())
        trials.append(wl.trial(seed, wl.size))
        gc.collect()
        measured = sum(sum(t.phase_s.values()) for t in trials)
        if len(trials) >= MIN_TRIALS and measured >= seconds:
            break
    setups = [t.setup_s for t in trials]
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_S:
        setups.append(wl.setup(seed, wl.size)[0])

    # Rates are the best trial's: trials repeat identical work, and other
    # processes on the host only ever add time, so the fastest trial is the
    # steadiest estimate of the program's own cost on a shared machine.
    # Host figures are then scaled to the reference speed by the run's
    # median probe, which removes the slow drift best-of cannot.
    slowdown = statistics.median(probes) / PROBE_REF_S
    ops, data = wl.ops_phase, wl.bytes_phase
    metrics = {
        "ops_per_s": slowdown * max(t.ops[ops] / t.phase_s[ops] for t in trials),
        "payload_mb_per_s": slowdown * max(
            t.payload_bytes[data] / 1e6 / t.phase_s[data] for t in trials),
        "setup_s": statistics.median(setups) / slowdown,
        "peak_rss_mb": peak_rss_mb(),
    }
    return trials, setups, slowdown, metrics


def run_traced(name: str, seed: int, spans_out: str | None):
    """One untraced and one traced trial; returns ``(trials, per-layer metrics)``."""
    from layers import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    plain = wl.trial(seed, wl.size)
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.trial(seed, wl.size, window=tracer)
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer, sum(plain.phase_s.values()))
    if spans_out:
        tracer.write_spans(spans_out)
    return [plain, traced], metrics


def run_one(args) -> int:
    trace = bool(args.trace)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(trace)}")
    print("env " + json.dumps(environment(trace), sort_keys=True))
    if trace:
        from layers import PER_LAYER

        trials, values = run_traced(args.workload, args.seed, args.spans_out)
        units = dict(PER_LAYER)
        print(f"{'per-layer metric':34} {'value':>16}  unit")
        for key, unit in PER_LAYER:
            print(f"{key:34} {values[key]:16.6g}  {unit}")
    else:
        trials, setups, slowdown, values = run_untraced(
            args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
        print(f"host speed: probe median {slowdown * PROBE_REF_S * 1e3:.2f} ms vs "
              f"reference {PROBE_REF_S * 1e3:.2f} ms; host figures below are "
              f"scaled by {slowdown:.4f} (set-up divided)")
        print(f"{'metric':24} {'value':>14}  {'unit':16} samples")
        for key, value, unit, n in paper_metrics(args.workload, trials, values,
                                                 len(setups)):
            print(f"{key:24} {value:14.6g}  {unit:16} {n}")
        for phase in trials[0].phase_s:
            secs = sorted(t.phase_s[phase] for t in trials)
            print(f"phase {phase}: {len(secs)} trials, host s min {secs[0]:.4f} "
                  f"median {statistics.median(secs):.4f} max {secs[-1]:.4f}")
    for reason, n in Counter(f for t in trials for f in t.failures).most_common():
        print(f"FAILED x{n}: {reason}")
    errors = [e for t in trials for e in t.errors]
    for err in errors:
        print(f"CORRECTNESS: {err}")
    attempted = sum(t.attempted for t in trials)
    result = {
        "correct": not errors and attempted > 0,
        "attempted": attempted,
        "failed": sum(t.failed for t in trials),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            last = None
        if proc.returncode not in (0, 1) or last is None:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, val in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="host seconds to measure (untraced run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", metavar="FILE",
                        help="traced run: write the measured window's spans as CSV")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
