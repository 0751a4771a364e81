"""Parallel campaign execution — fan runs out over worker processes.

The paper's methodology is brute-force scale: thousands of isolated
testbed runs per figure (a 5 ms-step CAD sweep over 17 client versions
alone is ~1400 runs).  Runs are perfectly independent — each gets a
fresh :class:`~repro.testbed.topology.LocalTestbed` seeded by a stable
digest of its coordinates — so the campaign is embarrassingly
parallel.  :class:`CampaignExecutor` enumerates the
``(case, client, value_ms, repetition)`` run specs in the exact order
of the serial loop, fans contiguous chunks of them out over the
process-global pool from :mod:`repro.fanout` (each worker builds its
own testbeds, so runs stay perfectly isolated), and merges the
:class:`RunRecord`s back in deterministic spec order.  The result is
record-for-record identical to ``TestRunner.run()`` serial output.

The campaign's configuration reaches each worker **once**: a
:class:`WorkerContext` — a storeless copy of the runner plus the fault
plan — is pickled per campaign and installed by the pool's
initializer, so a chunk payload is just ``(specs, attempts)``.  Plain
and resilient dispatch share that worker entry point; the plain path
fails fast through :func:`~repro.fanout.shared_map`, the resilient
path retries, bisects and watchdogs chunks through
:func:`~repro.testbed.resilience.resilient_map`.

With a :class:`~repro.testbed.store.CampaignStore` attached to the
runner, the executor resolves cache hits in the *parent* process —
only the misses travel to the pool, and a fully warm campaign never
touches the pool at all.
"""

from __future__ import annotations

import pickle
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from dataclasses import dataclass

from ..faults import FaultPlan, inject_entry_fault
from ..fanout import shared_map
from .resilience import failure_record, resilient_map
from .store import decode_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import ResultSet, RunRecord, TestRunner

#: Chunks per worker: small enough to load-balance uneven run costs
#: (address-selection runs take far longer than CAD runs), large
#: enough to amortize the per-future dispatch round trip.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class RunSpec:
    """Coordinates of one isolated run, by index into the runner config."""

    case_index: int
    client_index: int
    value_ms: int
    repetition: int


def enumerate_specs(runner: "TestRunner") -> List[RunSpec]:
    """All run specs, in the exact order of the serial campaign loop.

    Delegates to :meth:`~repro.testbed.runner.TestRunner
    .enumerate_specs` — the runner owns its campaign shape (cross
    product by default; the population sampler pairs case *i* with
    client *i*), and executor, serial stream, and key planning all
    read the same enumeration.  Duck-typed runners without the method
    get the historical cross product.
    """
    method = getattr(runner, "enumerate_specs", None)
    if method is not None:
        return method()
    specs: List[RunSpec] = []
    for case_index, case in enumerate(runner.cases):
        for client_index in range(len(runner.clients)):
            for value_ms in case.sweep:
                for repetition in range(case.repetitions):
                    specs.append(RunSpec(case_index, client_index,
                                         value_ms, repetition))
    return specs


def spec_keys(runner: "TestRunner",
              specs: "Sequence[RunSpec]") -> "List[str]":
    """The store key of each spec, memoizing the per-(case, client)
    configuration digest — shared by the executor's hit planning and
    by anything that needs a campaign's addresses without running it."""
    digests: "Dict[Tuple[int, int], str]" = {}
    keys: "List[str]" = []
    for spec in specs:
        pair = (spec.case_index, spec.client_index)
        digest = digests.get(pair)
        if digest is None:
            digest = runner.config_digest_for(
                runner.cases[spec.case_index],
                runner.clients[spec.client_index])
            digests[pair] = digest
        keys.append(runner.store_key_for(
            runner.cases[spec.case_index],
            runner.clients[spec.client_index],
            spec.value_ms, spec.repetition, config_digest=digest))
    return keys


class WorkerContext:
    """What a pool worker needs to execute chunks of a campaign.

    Holds a storeless, resilience-free copy of the runner (cases,
    clients, seed and knobs — everything :meth:`~repro.testbed.runner
    .TestRunner.run_single` reads) and the fault plan; never a store,
    journal or fault manifest, which stay parent-side.  ``contain``
    selects the resilient protocol: an entry's exception ends the
    chunk and is reported with the completed prefix instead of being
    raised.
    """

    def __init__(self, runner: "TestRunner",
                 fault_plan: "Optional[FaultPlan]" = None,
                 contain: bool = False) -> None:
        self.runner = runner
        self.fault_plan = fault_plan
        self.contain = contain

    def run_chunk(self, specs: "Sequence[RunSpec]",
                  attempts: "Sequence[int]"
                  ) -> "Tuple[List[RunRecord], Optional[str]]":
        """Run ``specs`` in order: ``(records, None)``, or — when
        containing — the records before the first failing spec and
        its error message.  Each spec's attempt number gates the fault
        plan, so a crash targeted at attempt 0 kills this worker once
        and runs clean on the retry, which is what makes chaos
        campaigns heal into byte-identical results."""
        runner = self.runner
        plan = self.fault_plan
        records: "List[RunRecord]" = []
        for spec, attempt in zip(specs, attempts):
            case = runner.cases[spec.case_index]
            profile = runner.clients[spec.client_index]
            try:
                if plan is not None:
                    fault = plan.entry_fault(
                        (case.name, profile.full_name, spec.value_ms,
                         spec.repetition), attempt)
                    if fault is not None:
                        inject_entry_fault(fault, in_worker=True)
                records.append(runner.run_single(
                    case, profile, spec.value_ms, spec.repetition))
            except Exception as exc:
                if not self.contain:
                    raise
                return records, str(exc) or type(exc).__name__
        return records, None


#: This worker's campaign context, set by :func:`install_context`
#: when the pool starts the worker (None in the parent).
_worker_context: "Optional[WorkerContext]" = None


def install_context(blob: bytes) -> None:
    """Pool initializer: unpickle the campaign's worker context."""
    global _worker_context
    _worker_context = pickle.loads(blob)


def _run_chunk(payload: "Tuple[Sequence[RunSpec], Sequence[int]]"
               ) -> "Tuple[List[RunRecord], Optional[str]]":
    """Worker entry point, plain and resilient: one chunk of specs
    with their fault-targeting attempts.  Every run builds its own
    testbed, so nothing is shared between runs, let alone between
    workers; cache lookups happen in the parent."""
    specs, attempts = payload
    return _worker_context.run_chunk(specs, attempts)


class CampaignExecutor:
    """Fans a :class:`TestRunner` campaign out over worker processes."""

    def __init__(self, runner: "TestRunner", workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.runner = runner
        self.workers = workers

    def chunks(self) -> "List[List[RunSpec]]":
        """Contiguous spec chunks, preserving enumeration order."""
        return self._chunked(enumerate_specs(self.runner))

    def _chunk_size(self, count: int) -> int:
        target = max(1, self.workers * _CHUNKS_PER_WORKER)
        return max(1, -(-count // target))  # ceil division

    def _chunked(self, specs: "List[RunSpec]") -> "List[List[RunSpec]]":
        size = self._chunk_size(len(specs))
        return [specs[i:i + size] for i in range(0, len(specs), size)]

    def _context(self, resilient: bool) -> bytes:
        """This campaign's pickled :class:`WorkerContext` — the
        pool's ``initargs``, so workers unpickle it once per start."""
        plan = None
        if resilient:
            plan = self.runner.resilience.fault_plan
            if plan is not None:
                # Store-fault counters are parent-side state.
                plan = FaultPlan(seed=plan.seed, specs=plan.specs)
        return pickle.dumps(WorkerContext(self.runner.worker_copy(), plan,
                                          contain=resilient))

    def execute(self) -> "ResultSet":
        from .runner import ResultSet

        results = ResultSet()
        for record in self.stream():
            results.add(record)
        return results

    def stream(self) -> "Iterator[RunRecord]":
        """Records in enumeration order; hits resolved parent-side.

        With a store on the runner, the parent resolves every cache
        hit up front through :meth:`~repro.testbed.store.CampaignStore
        .get_many` — one sidecar-index read per touched shard instead
        of one stat + JSON read per spec — and chunks only the misses
        onto the pool.  A corrupted or torn entry simply fails the
        batch lookup for its key and re-executes (and re-stores) like
        any other miss.  Resolved hits are popped as they are merged,
        so memory decays as the stream drains; fresh records are
        written back by the parent — a single writer, so worker
        processes never touch the cache.
        """
        runner = self.runner
        specs = enumerate_specs(runner)
        store = runner.store
        res = getattr(runner, "resilience", None)
        if store is None:
            yield from self._execute_pending(specs)
            return
        keys = spec_keys(runner, specs)
        prefetched = store.get_many(keys, decode_record)
        pending = [spec for spec, key in zip(specs, keys)
                   if key not in prefetched]
        fresh = self._execute_pending(pending)
        for spec, key in zip(specs, keys):
            record = prefetched.pop(key, None)
            if res is not None:
                res.note_lookup(key, hit=record is not None)
            if record is None:
                record = next(fresh)
                if res is not None:
                    res.store_fresh(store, key, record)
                else:
                    store.put_record(key, record)
            yield record

    def _execute_pending(self, specs: "List[RunSpec]"
                         ) -> "Iterator[RunRecord]":
        """Execute specs in order — over the shared pool when there is
        enough work to split, in-process otherwise (a fully warm
        campaign has no pending specs and never touches the pool).

        A resilient runner routes through :func:`resilient_map`
        instead of the fail-fast :func:`shared_map`: same chunks, same
        worker entry point, plus retries, crash bisection and the
        per-chunk watchdog.
        """
        res = getattr(self.runner, "resilience", None)
        if res is not None and res.wants_resilient_dispatch and specs:
            yield from self._execute_resilient(specs)
            return
        chunks = self._chunked(specs) if specs else []
        if len(chunks) <= 1 or self.workers == 1:
            local = WorkerContext(self.runner)
            for chunk in chunks:
                yield from local.run_chunk(chunk, [0] * len(chunk))[0]
            return
        payloads = [(tuple(chunk), (0,) * len(chunk)) for chunk in chunks]
        # shared_map yields chunk results in submission order, which is
        # enumeration order — the merge is deterministic by design.
        for records, _ in shared_map(_run_chunk, payloads, self.workers,
                                     initializer=install_context,
                                     initargs=(self._context(False),)):
            yield from records

    def _execute_resilient(self, specs: "List[RunSpec]"
                           ) -> "Iterator[RunRecord]":
        runner = self.runner
        res = runner.resilience
        assert res is not None
        res.manifest.dispatched += len(specs)

        def describe(spec: RunSpec) -> str:
            case = runner.cases[spec.case_index]
            profile = runner.clients[spec.client_index]
            return (f"{case.name}/{profile.full_name}"
                    f"/v{spec.value_ms}/r{spec.repetition}")

        def fallback(spec: RunSpec, failure) -> "RunRecord":
            return failure_record(runner.cases[spec.case_index],
                                  runner.clients[spec.client_index],
                                  spec.value_ms, spec.repetition, failure)

        yield from resilient_map(_run_chunk, specs, self.workers, res,
                                 describe, fallback,
                                 chunk_size=self._chunk_size(len(specs)),
                                 initializer=install_context,
                                 initargs=(self._context(True),))
