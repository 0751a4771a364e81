"""Benchmark of the campaign pipeline: cold, warm-and-refine and served.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-cold --seed 1 \\
        --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``rep.py``) against a
fresh store directory; repetitions continue until ``--seconds`` have
passed, with a per-workload minimum.  The same seed gives every
repetition the same inputs, and the end-to-end metrics are medians
over the repetitions.  ``--trace 1`` makes one untraced and one traced
repetition instead and reports the per-layer metrics of ``layers.json``
plus the tracing overhead; the spans go to
``.perfbench-out/trace-<workload>-seed<seed>.json``.

stdout carries a human report (every metric by name, with unit and
sample count, plus the machine's load) and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an output check failed, 2 when the program's
source is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

#: Minimum repetitions per run: at least two set-ups, so setup_s is a
#: median too.
MIN_REPS = {"campaign-cold": 3, "campaign-warm": 2, "service-mixed": 3}
#: The whole run must end well inside the harness's 180 s limit.
BUDGET_S = 170.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, fraction):
    """The ``fraction`` quantile (exclusive method), or the median of
    a sample too small to cut."""
    if len(values) < 2:
        return _median(values)
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(fraction * 100) - 1]


def run_rep(workload, seed, work, index, deadline, trace_out=""):
    """One repetition in a fresh interpreter; (result, error).  The
    first repetition of a run also reruns its experiments serially to
    verify the served and parallel artifacts."""
    store = work / f"store-{index}"
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--store", str(store), "--trace-out", trace_out]
    if index == 0:
        command.append("--verify")
    command += ["--spawned", repr(time.monotonic())]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None, "repetition timed out"
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return None, f"repetition exited {process.returncode}: {tail}"
    return json.loads(lines[-1]), None


def end_to_end(reps):
    """Gated metrics: (name, value, unit, samples)."""
    rates = [sum(r["entries"].values()) / sum(r["phases"].values())
             for r in reps]
    n = len(reps)
    return [
        ("setup_s", _median([r["setup_s"] for r in reps]), "s", n),
        ("entries_per_s", _median(rates), "entries/s", n),
        ("peak_rss_mb", _median([r["peak_rss_mb"] for r in reps]), "MB", n),
    ]


def workload_figures(workload, reps):
    """The workload's own figures, reported but not gated (each is
    a component or a near-copy of a gated one)."""
    n = len(reps)
    out = []

    def rate(entries, phase):
        return _median([r["entries"][entries] / r["phases"][phase]
                        for r in reps])

    if workload == "campaign-cold":
        out.append(("cold_runs_per_s", rate("cold", "cold_s"), "runs/s",
                    f"{n} reps"))
    elif workload == "campaign-warm":
        out.append(("warm_entries_per_s", rate("replay", "replay_s"),
                    "entries/s", f"{n} reps"))
        out.append(("refine_entries_per_s", rate("refine", "refine_s"),
                    "entries/s", f"{n} reps"))
    else:
        warm = [x for r in reps for x in r["latencies"]["warm"]]
        extend = [x for r in reps for x in r["latencies"]["extend"]]
        out.append(("submit_warm_p50_s", _median(warm), "s",
                    f"{len(warm)} submissions"))
        out.append(("submit_warm_p90_s", _percentile(warm, 0.9), "s",
                    f"{len(warm)} submissions"))
        out.append(("submit_refine_p50_s", _median(extend), "s",
                    f"{len(extend)} submissions"))
        out.append(("goodput_per_s",
                    _median([r["completed"] / r["phases"]["loop_s"]
                             for r in reps]), "subs/s", f"{n} reps"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(MIN_REPS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    # Byte-compile once per checkout, so the first repetition's set-up
    # does not pay the compile that later ones skip.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    started = time.monotonic()
    deadline = started + BUDGET_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    trace_file = (str(OUT / f"trace-{args.workload}-seed{args.seed}.json")
                  if args.trace else "")

    def schedule():
        """Trace outputs of the repetitions to make, in order."""
        if args.trace:
            yield from ("", trace_file)
            return
        count = 0
        while (count < MIN_REPS[args.workload]
               or time.monotonic() - started < args.seconds):
            count += 1
            yield ""

    reps, errors = [], []
    try:
        for index, trace_out in enumerate(schedule()):
            result, error = run_rep(args.workload, args.seed, work, index,
                                    deadline, trace_out)
            if error is not None:
                errors.append(error)
                break
            reps.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failures = list(errors)
    for n, rep in enumerate(reps):
        failures += [f"rep {n}: {line}" for line in rep["failed"]]
    if len({tuple(rep["digests"]) for rep in reps}) > 1:
        failures.append("repetitions of one seed rendered different "
                        "artifacts")
    attempted = sum(rep["operations"] for rep in reps) + len(errors)
    failed = min(attempted, len(failures))

    load1 = os.getloadavg()[0]
    print(f"perfbench {args.workload} seed={args.seed} reps={len(reps)} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} loadavg1={load1:.2f}")
    metrics = {}
    if args.trace and len(reps) == 2:
        untraced, traced = reps
        layer = dict(traced["layer_metrics"])
        overhead = (sum(traced["phases"].values())
                    / sum(untraced["phases"].values()) - 1.0) * 100.0
        layer["trace.overhead_pct"] = overhead
        units = {m["name"]: m["unit"] for m in layer_metrics()}
        for name, value in layer.items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"  {name:<28} {value:>14.6g} {units[name]}")
        print("  self time by layer (traced repetition):")
        for name, value in sorted(traced["layer_self_s"].items(),
                                  key=lambda item: -item[1]):
            print(f"    {name:<36} {value:10.4f} s")
        print(f"  tracing overhead {overhead:+.1f}% of the untraced timed "
              f"phase; spans in {trace_file}")
    elif reps and not args.trace:
        for name, value, unit, samples in end_to_end(reps):
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<22} {value:>14.6g} {unit:<10} "
                  f"(median of {samples} reps, gated)")
        for name, value, unit, samples in workload_figures(args.workload,
                                                           reps):
            print(f"  {name:<22} {value:>14.6g} {unit:<10} ({samples})")
        for n, rep in enumerate(reps):
            phases = " ".join(f"{name}={value:.3f}"
                              for name, value in rep["phases"].items())
            print(f"  rep {n}: setup_s={rep['setup_s']:.3f} {phases}")
    print(f"  failed_share           {failed}/{attempted} operations")
    for line in failures:
        print(f"  FAILED {line}")
    correct = not failures and bool(reps)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
