"""Span and count recorder for the traced benchmark run.

Everything here is installed from outside the program: wrappers are
patched onto the public functions of each layer's module (and onto the
module-level names other modules call them through), so the program
itself carries no tracing code.  A span records its name, start, end,
parent span and request id; counts are taken at the same boundaries.
Spans stay in memory and are written out once, when the run ends.

Only the recording process records: pool workers forked from a traced
process inherit the wrappers, but see another pid and pass straight
through, so dispatch is measured parent-side.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

LAYERS_FILE = Path(__file__).with_name("layers.json")

#: Span name -> layer, for the per-layer self-time split.
SPAN_LAYER = {
    "request": "request (unwrapped)",
    "experiments.plan": "experiments",
    "experiments.execute": "experiments",
    "experiments.render": "experiments",
    "runner.run_single": "testbed.runner",
    "runner.observe": "testbed.runner",
    "simnet.run": "simnet",
    "dns.decode": "dns",
    "dns.decode_interned": "dns",
    "dns.encode": "dns",
    "store.get_many": "testbed.store",
    "store.put": "testbed.store",
    "journal.record": "testbed.resilience (journal)",
    "dispatch.wait": "dispatch",
    "service.admit": "service",
    "service.wait": "service (caller waiting on execution threads)",
}


def layer_metrics() -> "List[Dict[str, str]]":
    """Every per-layer metric with its unit and predictions."""
    with open(LAYERS_FILE, encoding="utf-8") as handle:
        return json.load(handle)["metrics"]


class Tracer:
    """In-memory spans plus counters for one traced repetition."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.spans: "List[tuple]" = []
        self.counts: "Counter[str]" = Counter()
        self.digest_requests: "Dict[str, str]" = {}
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._stores: "List[Any]" = []
        self._store_base: "Dict[int, tuple]" = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.active():
            return fn(*args, **kwargs)
        with self._id_lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [span_id, name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.spans.append((span_id, parent[0] if parent else 0,
                               getattr(self._local, "request", None),
                               name, start, end, duration - frame[2]))

    @contextmanager
    def request(self, request_id: str):
        """Spans opened inside belong to ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    def adopt_request(self, request_id: Optional[str]) -> None:
        """Tag this (service worker) thread's next spans."""
        if request_id is not None:
            self._local.request = request_id

    def count(self, name: str, value: float = 1) -> None:
        if self.active():
            self.counts[name] += value

    # -- store handles -----------------------------------------------------

    def track_store(self, store: Any) -> None:
        self._stores.append(store)

    def start(self) -> None:
        """Open the timed phase: counters of store handles opened
        during set-up count from here."""
        self._store_base = {id(s): _cache_counts(s) for s in self._stores}
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        for store in self._stores:
            base = self._store_base.get(id(store), (0, 0))
            hits, misses = _cache_counts(store)
            self.counts["store.hits"] += hits - base[0]
            self.counts["store.misses"] += misses - base[1]

    # -- report ------------------------------------------------------------

    def totals(self) -> "Dict[str, Dict[str, float]]":
        """Per span name: calls, inclusive and self seconds."""
        out: "Dict[str, Dict[str, float]]" = {}
        for _sid, _parent, _req, name, start, end, self_s in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        return out

    def metrics(self) -> "Dict[str, float]":
        """Every per-layer metric named in ``layers.json``."""
        totals = self.totals()

        def total(name: str) -> float:
            return totals.get(name, {}).get("total_s", 0.0)

        def own(*names: str) -> float:
            return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

        timed = {
            "runner.build_s": own("runner.run_single"),
            "runner.observe_s": total("runner.observe"),
            "simnet.run_s": total("simnet.run"),
            "dns.decode_s": own("dns.decode", "dns.decode_interned"),
            "store.get_many_s": own("store.get_many"),
            "store.put_s": own("store.put"),
            "journal.record_s": total("journal.record"),
            "dispatch.wait_s": total("dispatch.wait"),
            "experiments.plan_s": total("experiments.plan"),
            "experiments.execute_s": total("experiments.execute"),
            "experiments.render_s": total("experiments.render"),
            "service.admit_s": total("service.admit"),
            "service.wait_s": total("service.wait"),
        }
        out: "Dict[str, float]" = {}
        for metric in layer_metrics():
            name = metric["name"]
            out[name] = timed[name] if name in timed else \
                self.counts.get(name, 0)
        return out

    def layer_self_times(self) -> "Dict[str, float]":
        split: "Dict[str, float]" = {}
        for name, entry in self.totals().items():
            layer = SPAN_LAYER.get(name, name)
            split[layer] = split.get(layer, 0.0) + entry["self_s"]
        return split

    def write(self, path: Path, extra: "Dict[str, Any]") -> None:
        document = dict(extra)
        document["layer_self_s"] = self.layer_self_times()
        document["spans_by_name"] = self.totals()
        document["metrics"] = self.metrics()
        document["span_fields"] = ["id", "parent", "request", "name",
                                   "start_s", "end_s", "self_s"]
        document["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _cache_counts(store: Any) -> tuple:
    stats = store.stats
    return stats.hits, stats.misses


# -- wrappers ---------------------------------------------------------------


def _wrap_function(tracer: Tracer, name: str, fn: Callable,
                   after: "Optional[Callable]" = None) -> Callable:
    @functools.wraps(fn, updated=())
    def traced(*args: Any, **kwargs: Any):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None and tracer.active():
            after(result, args)
        return result
    return traced


def _wrap_attr(tracer: Tracer, owner: Any, attr: str, name: str,
               after: "Optional[Callable]" = None) -> None:
    """Patch the class attribute ``owner.attr`` (a method or a
    classmethod)."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(
            _wrap_function(tracer, name, raw.__func__, after)))
    else:
        setattr(owner, attr, _wrap_function(tracer, name, raw, after))


def _wrap_dispatch(tracer: Tracer, module: Any, attr: str,
                   resilient: bool) -> None:
    """Parent-side time blocked on the pool, per result pulled."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def traced(fn, payloads, workers, *rest, **kwargs):
        if not tracer.active():
            yield from original(fn, payloads, workers, *rest, **kwargs)
            return
        payloads = list(payloads)
        if resilient:
            entries = len(payloads)
            manifest = rest[0].manifest
            retries_before = manifest.retries
        else:  # chunked fast path: (runner, chunk) payloads
            entries = sum(len(chunk) for _runner, chunk in payloads)
        tracer.count("dispatch.entries", entries)
        tracer.count("dispatch.payload_bytes",
                     sum(len(pickle.dumps(p)) for p in payloads))
        results = original(fn, payloads, workers, *rest, **kwargs)
        try:
            while True:
                try:
                    item = tracer.call("dispatch.wait", next, results)
                except StopIteration:
                    break
                yield item
        finally:
            # Callers stop pulling after the last result they need, so
            # this runs when the generator is closed, not exhausted.
            retries = manifest.retries - retries_before if resilient else 0
            tracer.counts["dispatch.retries"] += retries
            tracer.counts["dispatch.attempts"] += len(payloads) + retries

    setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Patch every traced boundary; call once, after set-up imports."""
    from repro.dns.message import DNSMessage
    from repro.experiments import all_experiments
    from repro.experiments.base import Experiment
    from repro.simnet.scheduler import Simulator
    from repro.testbed import parallel, runner
    from repro.testbed.resilience import CampaignJournal
    from repro.testbed.store import (CampaignStore, PackedCampaignStore,
                                     config_digest)

    def after_run(record, _args):
        tracer.count("runner.runs")
        tracer.count("core.attempts", len(record.attempts))

    _wrap_attr(tracer, runner.TestRunner, "run_single",
               "runner.run_single", after_run)

    def after_observe(observation, args):
        tracer.count("simnet.packets", len(args[0]))
        tracer.count("observe.dns_decoded",
                     observation.dns_payloads_decoded)
        tracer.count("observe.dns_interned",
                     observation.dns_payloads_interned)

    runner.CaptureObservation = _wrap_function(
        tracer, "runner.observe", runner.CaptureObservation, after_observe)
    _wrap_attr(tracer, Simulator, "run", "simnet.run")

    def counted(metric):
        return lambda _result, _args: tracer.count(metric)

    _wrap_attr(tracer, DNSMessage, "decode", "dns.decode",
               counted("dns.decode_calls"))
    _wrap_attr(tracer, DNSMessage, "decode_interned",
               "dns.decode_interned", counted("dns.decode_calls"))
    _wrap_attr(tracer, DNSMessage, "encode", "dns.encode",
               counted("dns.encode_calls"))

    for cls in (CampaignStore, PackedCampaignStore):
        get_many = cls.__dict__["get_many"]

        def traced_get_many(self, keys, *args, _orig=get_many, **kwargs):
            outermost = tracer.current() != "store.get_many"
            if outermost:
                keys = list(keys)
                tracer.count("store.keys_requested", len(keys))
            return tracer.call("store.get_many", _orig, self, keys,
                               *args, **kwargs)

        cls.get_many = functools.wraps(get_many)(traced_get_many)
        _wrap_attr(tracer, cls, "put", "store.put", counted("store.puts"))

    base_init = CampaignStore.__init__

    @functools.wraps(base_init)
    def tracked_init(self, *args, **kwargs):
        base_init(self, *args, **kwargs)
        tracer.track_store(self)

    CampaignStore.__init__ = tracked_init

    _wrap_attr(tracer, CampaignJournal, "record", "journal.record",
               counted("journal.records"))
    _wrap_dispatch(tracer, parallel, "shared_map", resilient=False)
    _wrap_dispatch(tracer, parallel, "resilient_map", resilient=True)

    def traced_plan(fn):
        @functools.wraps(fn)
        def plan(self, session):
            keys = tracer.call("experiments.plan",
                               lambda: list(fn(self, session)))
            tracer.count("experiments.planned_keys", len(set(keys)))
            return iter(keys)
        return plan

    def traced_execute(fn):
        @functools.wraps(fn)
        def execute(self, session):
            digest = config_digest(self.name, sorted(session.knobs.items()),
                                   session.seed)
            tracer.adopt_request(tracer.digest_requests.get(digest))
            return tracer.call("experiments.execute", fn, self, session)
        return execute

    classes = {base for e in all_experiments() for base in type(e).__mro__
               if issubclass(base, Experiment)}
    for cls in classes:
        if "plan" in cls.__dict__:
            cls.plan = traced_plan(cls.__dict__["plan"])
        if "execute" in cls.__dict__:
            cls.execute = traced_execute(cls.__dict__["execute"])
        if "render" in cls.__dict__:
            _wrap_attr(tracer, cls, "render", "experiments.render")
