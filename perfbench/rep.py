"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, each time with a
fresh store directory, so the program's process-wide wire, intern and
memo caches start empty in every repetition.  The script sets the
workload up, times it, checks its outputs outside the timed phase and
prints one JSON object on its last stdout line::

    python3 perfbench/rep.py --workload campaign-cold --seed 1 \\
        --store .perfbench-work/x/store-0 --spawned <time.monotonic()>

``--spawned`` is the parent's monotonic clock just before it started
this interpreter; set-up time runs from there to the first timed
operation.  ``--verify`` adds the checks that rerun an experiment
serially (served == direct, parallel == serial); ``run.py`` asks for
them in one repetition per run and checks that every other repetition
of the seed rendered the same bytes.  ``--trace-out FILE`` installs
the wrappers of ``spans.py`` for the timed phase and writes the spans
to FILE at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: The cold campaign: (experiment, knobs).  2,391 fresh runs.
COLD = (("figure2", {"step": 10}),
        ("population-latency", {}),
        ("conformance", {}))
#: The refine pass of campaign-warm: a step-5 grid over the step-10
#: entries, through the resilient pool dispatcher.
REFINE = ("figure2", {"step": 5})
REFINE_FLAGS = ("--workers", "2", "--retries", "1")

#: service-mixed: each caller starts from a primed population of
#: SERVICE_SAMPLES users and sends SERVICE_SUBMISSIONS submissions;
#: every SERVICE_EXTEND_EVERY-th extends its campaign by
#: SERVICE_EXTEND_BY users (three runs each), the rest re-request the
#: primed artifact.
SERVICE_SAMPLES = 100
SERVICE_SUBMISSIONS = 30
SERVICE_EXTEND_EVERY = 6
SERVICE_EXTEND_BY = 10


def _now() -> float:
    return time.monotonic()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _summary_counts(line: str) -> "dict[str, int]":
    """``key=int`` tokens of a ``[cache]`` / ``[faults]`` line."""
    out = {}
    for token in line.split()[1:]:
        key, _, value = token.partition("=")
        if value.isdigit():
            out[key] = int(value)
    return out


class Rep:
    """State of one repetition: timings, counts and failed checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.store = Path(args.store)
        self.spawned = args.spawned
        self.trace_out = args.trace_out
        self.verify = args.verify
        self.tracer = None
        self.out: "dict" = {"phases": {}, "digests": []}
        self.operations = 0
        self.failed_ops: "dict[str, str]" = {}

    # -- bookkeeping -------------------------------------------------------

    def fail(self, operation: str, why: str) -> None:
        self.failed_ops.setdefault(operation, why)

    def begin(self, stores=()) -> None:
        """End of set-up: install tracing (traced run) and stamp.
        ``stores`` are handles opened during set-up whose counters the
        trace should read from here on."""
        if self.trace_out:
            from spans import Tracer, install
            self.tracer = Tracer()
            install(self.tracer)
            for store in stores:
                self.tracer.track_store(store)
        self.out["setup_s"] = _now() - self.spawned
        if self.tracer is not None:
            self.tracer.start()

    def end(self) -> None:
        """End of the timed phase."""
        if self.tracer is not None:
            self.tracer.stop()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.out["peak_rss_mb"] = usage.ru_maxrss / 1024.0

    def request(self, label: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(label)

    # -- program calls -----------------------------------------------------

    def argv(self, name: str, knobs: dict) -> "list[str]":
        from repro.experiments import get_experiment

        argv = ["run", name]
        for knob in get_experiment(name).knobs:
            if knob.name in knobs:
                argv += [knob.option, str(knobs[knob.name])]
        return argv

    def cli(self, label: str, name: str, knobs: dict, flags=(),
            store: bool = True) -> "tuple[str, dict]":
        """``repro.cli.main`` in-process; the artifact text (summary
        lines removed) and the ``[cache]`` / ``[faults]`` counts."""
        from repro.cli import main

        argv = ["--seed", str(self.seed)]
        argv += ["--cache-dir", str(self.store)] if store else ["--no-cache"]
        argv += list(flags) + self.argv(name, knobs)
        self.operations += 1
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer), self.request(label):
                if self.tracer is not None:
                    self.tracer.call("request", main, argv)
                else:
                    main(argv)
        except (Exception, SystemExit) as exc:
            self.fail(label, f"raised {exc!r}")
        artifact, counts = [], {}
        for line in buffer.getvalue().splitlines():
            if line.startswith(("[cache] ", "[faults] ")):
                counts[line[1:line.index("]")]] = _summary_counts(line)
            else:
                artifact.append(line)
        return "\n".join(artifact), counts

    def plan(self, name: str, knobs: dict, with_store: bool) -> "set[str]":
        from repro.experiments import Session, get_experiment, knob_mapping
        from repro.testbed.store import open_store

        experiment = get_experiment(name)
        store = open_store(self.store) if with_store else None
        session = Session(seed=self.seed, store=store,
                          knobs=knob_mapping(experiment, knobs))
        return set(experiment.plan(session))

    def direct(self, name: str, knobs: dict) -> str:
        """The experiment run serially in this process, storeless."""
        from repro.experiments import Session, get_experiment, knob_mapping

        experiment = get_experiment(name)
        session = Session(seed=self.seed,
                          knobs=knob_mapping(experiment, knobs))
        return experiment.run(session).text

    # -- shared checks -----------------------------------------------------

    def check_cold(self, label: str, name: str, knobs: dict,
                   counts: dict) -> int:
        """A cold invocation stored exactly its planned keys."""
        cache = counts.get("cache", {})
        planned = len(self.plan(name, knobs, with_store=True))
        if not cache.get("misses") == cache.get("stores") == planned:
            self.fail(label, f"[cache] {cache} does not match plan() "
                             f"of {planned} keys")
        return planned

    def result(self) -> dict:
        self.out["operations"] = self.operations
        self.out["failed"] = sorted(f"{op}: {why}" for op, why in
                                    self.failed_ops.items())
        if self.tracer is not None:
            self._finish_trace()
        return self.out

    def _finish_trace(self) -> None:
        from repro.fanout import shutdown_shared_pool

        tracer = self.tracer
        shutdown_shared_pool()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        tracer.counts["dispatch.worker_peak_rss_mb"] = \
            children.ru_maxrss / 1024.0
        files = size = 0
        for path in self.store.rglob("*"):
            if path.is_file():
                files += 1
                size += path.stat().st_size
        tracer.counts["store.files"] = files
        tracer.counts["store.bytes"] = size
        self.out["layer_metrics"] = tracer.metrics()
        self.out["layer_self_s"] = tracer.layer_self_times()
        tracer.write(Path(self.trace_out), {
            "seed": self.seed, "phases": self.out["phases"],
            "setup_s": self.out["setup_s"]})


# -- workloads ---------------------------------------------------------------


def _cold_campaign(rep: Rep) -> "list[tuple[str, dict]]":
    return [rep.cli(f"cold:{name}", name, knobs) for name, knobs in COLD]


def campaign_cold(rep: Rep) -> None:
    import repro.cli  # noqa: F401  (import is part of set-up)

    rep.begin()
    start = _now()
    results = _cold_campaign(rep)
    rep.out["phases"]["cold_s"] = _now() - start
    rep.end()
    entries = 0
    for (name, knobs), (text, counts) in zip(COLD, results):
        entries += rep.check_cold(f"cold:{name}", name, knobs, counts)
        rep.out["digests"].append(_digest(text))
    rep.out["entries"] = {"cold": entries}


def campaign_warm(rep: Rep) -> None:
    primed = _cold_campaign(rep)
    rep.begin()
    start = _now()
    replays = [rep.cli(f"replay:{name}", name, knobs)
               for name, knobs in COLD]
    middle = _now()
    refined = rep.cli("refine:figure2", *REFINE, flags=REFINE_FLAGS)
    rep.out["phases"]["replay_s"] = middle - start
    rep.out["phases"]["refine_s"] = _now() - middle
    rep.end()

    replay_entries = 0
    for (name, knobs), (cold_text, cold_counts), (text, counts) in zip(
            COLD, primed, replays):
        label = f"replay:{name}"
        replay_entries += rep.check_cold(f"prime:{name}", name, knobs,
                                         cold_counts)
        cold_cache, cache = cold_counts.get("cache", {}), counts.get(
            "cache", {})
        lookups = cold_cache.get("hits", 0) + cold_cache.get("misses", 0)
        if (cache.get("misses") != 0 or cache.get("stores") != 0
                or cache.get("hits") != lookups):
            rep.fail(label, f"[cache] {cache}: expected {lookups} hits "
                            "and no misses or stores")
        if text != cold_text:
            rep.fail(label, "replayed artifact differs from the cold one")
        rep.out["digests"].append(_digest(text))

    name, knobs = REFINE
    text, counts = refined
    fine = rep.plan(name, knobs, with_store=False)
    coarse = rep.plan(*COLD[0], with_store=False)
    cache, faults = counts.get("cache", {}), counts.get("faults", {})
    fresh = len(fine - coarse)
    if (cache.get("hits") != len(fine & coarse)
            or not cache.get("misses") == cache.get("stores") == fresh):
        rep.fail("refine:figure2", f"[cache] {cache} does not match plan(): "
                 f"{len(fine & coarse)} hits, {fresh} fresh")
    if faults.get("failures") != 0 or faults.get("journaled") != fresh:
        rep.fail("refine:figure2", f"[faults] {faults}: expected no "
                                   f"failures and {fresh} journaled")
    if rep.verify and text != rep.direct(name, knobs):
        rep.fail("refine:figure2", "parallel refined artifact differs "
                                   "from a serial run")
    rep.out["digests"].append(_digest(text))
    rep.out["entries"] = {"replay": replay_entries, "refine": len(fine)}


def _service_streams() -> "list[tuple[str, str, dict]]":
    """Two callers' population specs, as (caller, experiment, knobs).

    The second caller's population draws only the ``jittery``
    impairment, which the default preset never draws, so every one of
    its users' cases differs from the first caller's: the two streams
    share no digest and no store key (checked after the run).
    """
    from repro.population.distributions import PRESETS

    jittery = dict(PRESETS["default"], impairments={"jittery": 1.0})
    return [("a", "population-latency", {"spec": "default"}),
            ("b", "population-latency",
             {"spec": json.dumps(jittery, sort_keys=True)})]


def _submissions(knobs: dict) -> "list[tuple[str, dict]]":
    """One caller's stream: ("warm" | "extend", knobs) in order."""
    out, samples = [], SERVICE_SAMPLES
    for index in range(SERVICE_SUBMISSIONS):
        if index % SERVICE_EXTEND_EVERY == SERVICE_EXTEND_EVERY - 1:
            samples += SERVICE_EXTEND_BY
            out.append(("extend", dict(knobs, samples=samples)))
        else:
            out.append(("warm", dict(knobs, samples=SERVICE_SAMPLES)))
    return out


def service_mixed(rep: Rep) -> None:
    from repro.experiments import get_experiment, knob_mapping
    from repro.service import CampaignService
    from repro.testbed.store import config_digest

    service = CampaignService(rep.store, seed=rep.seed)
    callers = _service_streams()
    primed = {}
    for caller, name, knobs in callers:
        primed[caller] = service.submit(
            name, dict(knobs, samples=SERVICE_SAMPLES))
    stats = service.stats
    base = {"coalesced": stats.coalesced,
            "keys_executed": stats.keys_executed,
            "keys_waited": stats.keys_waited,
            "lru_hits": service.store.lru.hits,
            "lru_misses": service.store.lru.misses,
            "lru_evictions": service.store.lru.evictions}
    streams = {caller: _submissions(knobs) for caller, _n, knobs in callers}
    served: "dict[str, list]" = {caller: [] for caller in streams}
    barrier = threading.Barrier(len(callers) + 1)

    def call(caller: str, name: str) -> None:
        experiment = get_experiment(name)
        barrier.wait()
        tracer = rep.tracer
        for index, (kind, knobs) in enumerate(streams[caller]):
            label = f"{caller}{index}:{kind}"
            if tracer is not None:
                digest = config_digest(
                    name, sorted(knob_mapping(experiment, knobs).items()),
                    rep.seed)
                tracer.digest_requests[digest] = label
            start = _now()
            try:
                with rep.request(label):
                    if tracer is not None:
                        future = tracer.call("service.admit",
                                             service.submit_async,
                                             name, knobs)
                        result = tracer.call("service.wait", future.result)
                    else:
                        result = service.submit_async(name, knobs).result()
            except Exception as exc:  # a failed or rejected submission
                served[caller].append((kind, knobs, None, 0.0, exc))
                continue
            served[caller].append((kind, knobs, result, _now() - start,
                                   None))

    threads = [threading.Thread(target=call, args=(caller, name))
               for caller, name, _knobs in callers]
    for thread in threads:
        thread.start()
    rep.begin(stores=[service.store.backing])
    barrier.wait()
    start = _now()
    for thread in threads:
        thread.join()
    rep.out["phases"]["loop_s"] = _now() - start
    if rep.tracer is not None:
        tracer = rep.tracer
        for key in ("coalesced", "keys_executed", "keys_waited"):
            tracer.counts[f"service.{key}"] = getattr(stats, key) - base[key]
        for key in ("hits", "misses", "evictions"):
            tracer.counts[f"service.lru_{key}"] = \
                getattr(service.store.lru, key) - base[f"lru_{key}"]
    rep.end()
    service.close()

    latencies = {"warm": [], "extend": []}
    entries = completed = 0
    finals = []
    for caller, name, _knobs in callers:
        previous = primed[caller].planned
        for index, (kind, _knobs, result, latency, error) in enumerate(
                served[caller]):
            label = f"{caller}{index}:{kind}"
            rep.operations += 1
            if error is not None:
                rep.fail(label, f"raised {error!r}")
                continue
            expected = 0 if kind == "warm" else result.planned - previous
            if kind == "extend":
                previous = result.planned
            problems = []
            if result.executed != expected:
                problems.append(f"executed {result.executed} != {expected}")
            if result.waited or result.coalesced:
                problems.append("waited on or coalesced with another "
                                "submission")
            if result.hits != result.planned - result.executed:
                problems.append("hits + executed != planned")
            if kind == "warm" and result.text != primed[caller].text:
                problems.append("served artifact differs from the primed "
                                "one")
            if problems:
                rep.fail(label, "; ".join(problems))
                continue
            completed += 1
            entries += result.planned
            latencies[kind].append(latency)
        _kind, knobs, last, _latency, _error = served[caller][-1]
        finals.append(rep.plan(name, knobs, with_store=False))
        if last is not None:
            if len(finals[-1]) != last.planned:
                rep.fail(f"{caller}:plan", f"served planned={last.planned} "
                                           f"but plan() has {len(finals[-1])}")
            if rep.verify and last.text != rep.direct(name, knobs):
                rep.fail(f"{caller}:direct", "served artifact differs from "
                                             "a direct serial run")
            rep.out["digests"].append(_digest(last.text))
        rep.out["digests"].append(_digest(primed[caller].text))
    if finals[0] & finals[1]:
        rep.fail("streams", "the two callers' streams share store keys")
    rep.out["entries"] = {"served": entries}
    rep.out["completed"] = completed
    rep.out["latencies"] = latencies


WORKLOADS = {
    "campaign-cold": campaign_cold,
    "campaign-warm": campaign_warm,
    "service-mixed": service_mixed,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args()
    rep = Rep(args)
    WORKLOADS[args.workload](rep)
    print(json.dumps(rep.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
