"""Fault-tolerant campaign runtime: retries, journal, failure manifest.

Blackbox measurement pipelines are only trustworthy when the harness
itself tolerates and reports faults.  Before this module, one crashed
worker broke the shared ``ProcessPoolExecutor`` and aborted the whole
campaign — discarding every completed result — a killed CLI invocation
could not resume, and a hung run wedged the campaign forever.  The
pieces here defend each of those seams:

* :class:`RetryPolicy` — bounded retries with seeded exponential
  backoff + jitter (:func:`repro.seeding.backoff_jitter`), so retry
  schedules are deterministic and replayable.
* :func:`resilient_map` — chunked dispatch over the shared pool: a
  ``BrokenProcessPool`` respawns the pool and re-dispatches only the
  unfinished work; a per-chunk watchdog (``entry_timeout`` per entry
  in the chunk) converts hung chunks into bisected retries and, at a
  single entry, into recorded failures instead of wedged campaigns.
* :class:`CampaignJournal` — an append-only log of completed store
  keys, flushed per append, so a SIGKILLed campaign resumes
  (``--resume``) with zero re-executions of journaled work.
* :class:`FaultManifest` — graceful degradation: a campaign that
  exhausts an entry's retry budget completes anyway, with the failure
  (payload, attempts, last error, elapsed) recorded and surfaced in a
  ``[faults]`` summary line next to ``[cache]``.

The crash-attribution problem: when a pool breaks, *every* in-flight
future fails with ``BrokenProcessPool`` — the culprit is
indistinguishable from its innocent pool-mates, and, inside a chunk,
from its chunk-mates.  Charging everyone an attempt would let one
persistent crasher exhaust its neighbours' retry budgets; charging no
one would let it crash-loop forever.  The dispatcher therefore
*bisects*: every chunk caught in a break re-dispatches as two halves,
uncharged, with its fault-targeting attempt advanced (so an entry
that crashes once heals on the way down).  A single entry caught in a
break is next dispatched *alone*, and only a break with that entry
alone in the pool charges it.  A watchdog timeout belongs to the
chunk that overran its budget and is bisected the same way, down to
the one entry it charges.  Persistent crashers stay bounded by the
retry budget, and an innocent entry is never charged.  An exception,
by contrast, is attributable inside the worker: it charges its own
entry only.
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Set, TYPE_CHECKING, Tuple, Union)

from ..faults import FaultPlan
from ..seeding import backoff_jitter, stable_run_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clients.profile import ClientProfile
    from .config import TestCaseConfig
    from .runner import RunRecord

#: Error prefix marking a record synthesized by the harness for an
#: entry whose retry budget ran out — such records are *yielded* (the
#: campaign degrades gracefully) but never stored or journaled, so a
#: later run retries the entry instead of caching the failure.
HARNESS_ERROR_PREFIX = "harness:"

_KEY_LINE = re.compile(r"^[0-9a-f]{64}$")


# -- policy & manifest ---------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runtime fights for each entry."""

    #: Re-executions allowed per entry beyond the first attempt.
    retries: int = 0
    #: Watchdog budget in seconds per entry: a dispatched chunk that
    #: has not completed within ``entry_timeout × len(chunk)`` is
    #: treated as hung — the pool is abandoned (hung workers are
    #: terminated best-effort) and the chunk bisected down to the
    #: single entry that is charged a failed attempt.  None disables
    #: the watchdog.
    #: Serial execution cannot preempt itself, so the watchdog needs
    #: ``workers >= 2``; serially, injected hangs degrade to slow
    #: transient failures.
    entry_timeout: Optional[float] = None
    #: Backoff window parameters (see :func:`~repro.seeding
    #: .backoff_jitter`): the window doubles from ``backoff_base`` per
    #: attempt, capped at ``backoff_cap`` seconds.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Folded with the entry label into the jitter draw, so two
    #: campaigns with the same seed back off identically.
    backoff_seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.entry_timeout is not None and self.entry_timeout <= 0:
            raise ValueError(
                f"entry_timeout must be > 0: {self.entry_timeout}")

    def backoff_for(self, label: str, attempt: int) -> float:
        """The deterministic sleep before retry ``attempt`` of the
        entry called ``label`` (0-based: first retry sleeps ~base)."""
        return backoff_jitter(stable_run_seed(self.backoff_seed, label),
                              attempt, base=self.backoff_base,
                              cap=self.backoff_cap)


@dataclass
class FailureEntry:
    """One entry that exhausted its retry budget."""

    label: str
    attempts: int
    error: str
    elapsed_s: float

    def line(self) -> str:
        return (f"[faults] failed {self.label} attempts={self.attempts} "
                f"elapsed={self.elapsed_s:.3f}s error={self.error}")


@dataclass
class FaultManifest:
    """Everything the resilient runtime observed in one invocation.

    Parent-side only (workers never mutate it), so unlike
    :class:`~repro.testbed.store.CacheStats` it needs no merge step.
    """

    failures: List[FailureEntry] = field(default_factory=list)
    #: Entries executed under the resilient runtime (fresh work only).
    dispatched: int = 0
    #: Re-dispatches charged against entry retry budgets.
    retries: int = 0
    #: ``BrokenProcessPool`` events survived.
    pool_breaks: int = 0
    #: Pools replaced (breaks + watchdog abandonments).
    respawns: int = 0
    #: Entries converted to failed attempts by the watchdog.
    hang_timeouts: int = 0
    #: Store writes that errored and were skipped (degraded caching).
    store_write_errors: int = 0
    #: Keys appended to the campaign journal this invocation.
    journaled: int = 0
    #: Journaled keys served from the store under ``--resume``.
    resumed: int = 0
    #: Journaled keys the store could no longer serve (re-executed).
    journal_stale: int = 0

    @property
    def touched(self) -> bool:
        return bool(self.failures or self.dispatched or self.retries
                    or self.pool_breaks or self.respawns
                    or self.hang_timeouts or self.store_write_errors
                    or self.journaled or self.resumed
                    or self.journal_stale)

    def summary(self) -> str:
        return (f"failures={len(self.failures)} retries={self.retries} "
                f"pool-breaks={self.pool_breaks} respawns={self.respawns} "
                f"hangs={self.hang_timeouts} "
                f"store-write-errors={self.store_write_errors} "
                f"journaled={self.journaled} resumed={self.resumed} "
                f"stale={self.journal_stale}")

    def failure_lines(self, limit: int = 20) -> List[str]:
        lines = [entry.line() for entry in self.failures[:limit]]
        if len(self.failures) > limit:
            lines.append(f"[faults] ... and "
                         f"{len(self.failures) - limit} more failures")
        return lines


# -- campaign journal ----------------------------------------------------------


class CampaignJournal:
    """Append-only log of completed (durably stored) campaign keys.

    One key per line, flushed per append, so every journaled key
    survives a SIGKILL of the campaign process.  Appends happen only
    *after* the store write succeeds, which gives the resume
    invariant: journaled ⊆ durable, so ``--resume`` re-executes
    nothing it journaled.  A torn final line (the kill landed mid
    write) is simply ignored on load — as is any line that does not
    look like a store key, so a corrupted journal degrades to a
    smaller resume set, never to wrong results.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        #: Keys appended through this handle (not the on-disk total).
        self.appended = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignJournal({str(self.path)!r})"

    def load(self) -> Set[str]:
        """Every complete, well-formed key line currently on disk."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return set()
        complete, newline, _torn_tail = text.rpartition("\n")
        if not newline:
            return set()
        return {line for line in complete.split("\n")
                if _KEY_LINE.match(line)}

    def record(self, key: str) -> None:
        """Append one completed key; the line is flushed to the OS
        before returning, so a process kill cannot lose it."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(key + "\n")
        self._handle.flush()
        self.appended += 1

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                pass
            self._handle.close()
            self._handle = None

    # A pickled copy (say, of a runner's resilience bundle) never
    # carries the open handle, which stays with its process.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_handle"] = None
        return state


# -- the bundle ----------------------------------------------------------------


@dataclass
class Resilience:
    """Everything the fault-tolerant runtime threads through a
    campaign: policy, fault plan, journal, and the manifest that
    accumulates what actually happened."""

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: Optional[FaultPlan] = None
    journal: Optional[CampaignJournal] = None
    #: ``--resume``: count journaled keys served from the store and
    #: flag journaled keys the store lost.
    resume: bool = False
    #: Whether the user asked for resilience (controls the ``[faults]``
    #: line); a store-only session journals silently.
    explicit: bool = True
    manifest: FaultManifest = field(default_factory=FaultManifest)
    _resumable: Optional[frozenset] = field(default=None, repr=False)

    @property
    def wants_resilient_dispatch(self) -> bool:
        """Whether execution must route through the retrying
        dispatcher; journaling alone keeps the legacy fast path."""
        return (self.policy.retries > 0
                or self.policy.entry_timeout is not None
                or self.fault_plan is not None)

    def resumable_keys(self) -> frozenset:
        """The journal's key set, loaded once before this campaign's
        own appends so resume accounting reflects prior invocations."""
        if self._resumable is None:
            if self.resume and self.journal is not None:
                self._resumable = frozenset(self.journal.load())
            else:
                self._resumable = frozenset()
        return self._resumable

    # -- store-merge hooks (shared by the serial and parallel loops) -----------

    def note_lookup(self, key: str, hit: bool) -> None:
        """Resume accounting for one planned key."""
        if not self.resume or key not in self.resumable_keys():
            return
        if hit:
            self.manifest.resumed += 1
        else:
            self.manifest.journal_stale += 1

    def store_fresh(self, store, key: str, record: "RunRecord") -> None:
        """Persist + journal one freshly executed record.

        Harness-failure records are never stored (a later run must
        retry, not replay the failure); store write errors degrade to
        an uncached record instead of aborting the campaign.
        """
        if is_harness_failure(record):
            return
        try:
            store.put_record(key, record)
        except OSError:
            self.manifest.store_write_errors += 1
            return
        if self.journal is not None:
            self.journal.record(key)
            self.manifest.journaled += 1

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()


# -- failure records -----------------------------------------------------------


def failure_record(case: "TestCaseConfig", profile: "ClientProfile",
                   value_ms: int, repetition: int,
                   failure: FailureEntry) -> "RunRecord":
    """The degraded-mode record for an entry the harness gave up on —
    shaped like any incomplete run so aggregation handles it, marked
    with :data:`HARNESS_ERROR_PREFIX` so it is never cached."""
    from .runner import RunRecord

    return RunRecord(
        case=case.name, kind=case.kind, client=profile.full_name,
        value_ms=value_ms, repetition=repetition, completed=False,
        error=(f"{HARNESS_ERROR_PREFIX} {failure.error} "
               f"(attempts={failure.attempts})"))


def is_harness_failure(record: "RunRecord") -> bool:
    return (record.error is not None
            and record.error.startswith(HARNESS_ERROR_PREFIX))


# -- serial retry loop ---------------------------------------------------------


def execute_with_retries(execute: "Callable[[int], Any]", label: str,
                         resilience: Resilience
                         ) -> "Tuple[Any, Optional[FailureEntry]]":
    """Run ``execute(attempt)`` under the retry policy, in-process.

    Returns ``(value, None)`` on success or ``(None, failure)`` once
    the budget is exhausted.  ``KeyboardInterrupt``/``SystemExit``
    always propagate — resilience is for the harness's faults, not
    for overriding the operator.
    """
    policy = resilience.policy
    manifest = resilience.manifest
    start = time.monotonic()
    attempt = 0
    while True:
        try:
            return execute(attempt), None
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            attempt += 1
            error = str(exc) or type(exc).__name__
            if attempt > policy.retries:
                failure = FailureEntry(
                    label=label, attempts=attempt, error=error,
                    elapsed_s=time.monotonic() - start)
                manifest.failures.append(failure)
                return None, failure
            manifest.retries += 1
            delay = policy.backoff_for(label, attempt - 1)
            if delay > 0:
                time.sleep(delay)


# -- parallel resilient dispatch -----------------------------------------------


@dataclass(eq=False)
class _Chunk:
    """Contiguous payload indices dispatched as one future."""

    indices: Tuple[int, ...]
    #: Not dispatched before this monotonic time (retry backoff).
    ready_at: float = 0.0
    #: Dispatch with nothing else in flight: a single entry caught in a
    #: pool break, so a second break can only be its own doing.
    isolate: bool = False


def resilient_map(fn: "Callable[[Any], Tuple[List[Any], Optional[str]]]",
                  payloads: "Sequence[Any]", workers: int,
                  resilience: Resilience,
                  describe: "Callable[[Any], str]",
                  fallback: "Callable[[Any, FailureEntry], Any]",
                  chunk_size: int = 1,
                  initializer: "Optional[Callable[..., None]]" = None,
                  initargs: tuple = ()) -> "Iterator[Any]":
    """Chunked map over the shared pool, yielding one result per
    payload in payload order, surviving crashes and hangs.

    Payloads travel in contiguous chunks of ``chunk_size``:
    ``fn((chunk_payloads, attempts))`` runs in a pool worker, where
    ``attempts`` holds each payload's fault-targeting attempt (so
    seeded fault plans target deterministically), and returns
    ``(results, error)`` — the results of the chunk's leading payloads
    and, if the payload after them raised, its error message (``None``
    when the whole chunk completed).  ``initializer(*initargs)``
    installs the campaign context in each worker once per pool start
    (see :func:`~repro.fanout.shared_pool`).  At most ``workers``
    chunks are in flight (a sliding window), so the watchdog —
    ``entry_timeout`` per payload in the chunk — measures execution
    time, not queue time.  Recovery behavior:

    * **entry exception**: attributable, so charged against that
      payload alone; the chunk's completed prefix resolves, its
      untouched rest re-dispatches, and the pool keeps running.
    * **worker crash** (``BrokenProcessPool``): the pool is respawned
      and every chunk that was on it re-dispatches bisected, uncharged
      (see module docstring).  A lone entry that breaks the pool while
      dispatched alone is charged.
    * **chunk hang** (watchdog): the pool is abandoned without waiting
      (:func:`~repro.fanout.abandon_shared_pool`); the overdue chunk
      is bisected, or charged when it is a single entry, and the
      chunks that were merely in flight beside it re-dispatch as they
      were.

    A payload that exhausts ``policy.retries`` resolves to
    ``fallback(payload, failure)`` — the campaign completes with a
    failure manifest instead of aborting.
    """
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    from ..fanout import (abandon_shared_pool, shared_submit,
                          shutdown_shared_pool)

    policy = resilience.policy
    manifest = resilience.manifest
    n = len(payloads)
    size = max(1, chunk_size)
    results: "Dict[int, Any]" = {}
    next_yield = 0
    charged = [0] * n
    fault_attempt = [0] * n
    first_dispatch: "List[Optional[float]]" = [None] * n
    pending = [_Chunk(tuple(range(start, min(start + size, n))))
               for start in range(0, n, size)]
    #: future -> (chunk, the pool it runs on, watchdog deadline)
    inflight: "Dict[Any, Tuple[_Chunk, Any, float]]" = {}
    #: Pools whose break has been counted and handled (held, so no
    #: later pool can reuse one's identity).
    broken: "List[Any]" = []

    def charge(index: int, error: str, isolate: bool = False) -> None:
        """One failed attempt attributed to ``index`` itself."""
        charged[index] += 1
        fault_attempt[index] += 1
        if charged[index] > policy.retries:
            started = first_dispatch[index]
            failure = FailureEntry(
                label=describe(payloads[index]), attempts=charged[index],
                error=error,
                elapsed_s=(time.monotonic() - started
                           if started is not None else 0.0))
            manifest.failures.append(failure)
            results[index] = fallback(payloads[index], failure)
        else:
            manifest.retries += 1
            pending.append(_Chunk((index,), time.monotonic()
                                  + policy.backoff_for(
                                      describe(payloads[index]),
                                      charged[index] - 1), isolate))

    def bisect(chunk: _Chunk) -> None:
        """Re-dispatch an unattributed failure uncharged, with the
        fault-targeting attempt advanced: as two halves, or — a single
        entry — alone."""
        indices = chunk.indices
        for index in indices:
            fault_attempt[index] += 1
        if len(indices) == 1:
            pending.append(_Chunk(indices, isolate=True))
        else:
            middle = len(indices) // 2
            pending.append(_Chunk(indices[:middle]))
            pending.append(_Chunk(indices[middle:]))

    def settle(chunk: _Chunk, value: "Tuple[List[Any], Optional[str]]"
               ) -> None:
        done, error = value
        for index, result in zip(chunk.indices, done):
            results[index] = result
        rest = chunk.indices[len(done):]
        if error is not None and rest:
            charge(rest[0], error)
            rest = rest[1:]
        if rest:
            pending.append(_Chunk(rest))

    def dispatch() -> None:
        """Fill the window with ready chunks, lowest index first."""
        now = time.monotonic()
        pending.sort(key=lambda chunk: chunk.indices[0])
        for chunk in list(pending):
            if len(inflight) >= max(1, workers) or any(
                    c.isolate for c, _, _ in inflight.values()):
                return
            if chunk.ready_at > now:
                continue
            if chunk.isolate and inflight:
                return  # let the window drain so it runs alone
            specs = tuple(payloads[i] for i in chunk.indices)
            attempts = tuple(fault_attempt[i] for i in chunk.indices)
            try:
                pool, future = shared_submit(fn, (specs, attempts), workers,
                                             initializer, initargs)
            except BrokenProcessPool:
                return  # never ran; the in-flight chunks report the break
            pending.remove(chunk)
            for index in chunk.indices:
                if first_dispatch[index] is None:
                    first_dispatch[index] = now
            budget = (policy.entry_timeout * len(chunk.indices)
                      if policy.entry_timeout is not None else math.inf)
            inflight[future] = (chunk, pool, time.monotonic() + budget)

    while next_yield < n:
        # Refill the window before handing results over, so workers
        # keep running while the caller stores and journals them.
        dispatch()
        while next_yield in results:
            yield results.pop(next_yield)
            next_yield += 1
        if next_yield >= n:
            break
        if not inflight:
            # Everyone is backing off: sleep toward the earliest ready
            # time instead of spinning.
            pause = min(chunk.ready_at for chunk in pending) \
                - time.monotonic()
            if pause > 0:
                time.sleep(min(pause, 0.05))
            continue
        deadline = min(entry[2] for entry in inflight.values())
        timeout = (None if deadline == math.inf
                   else max(0.0, deadline - time.monotonic()))
        done, _ = wait(set(inflight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        for future in done:
            chunk, pool, _ = inflight.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool:
                if not any(pool is seen for seen in broken):
                    broken.append(pool)
                    manifest.pool_breaks += 1
                    manifest.respawns += 1
                    shutdown_shared_pool(pool)
                if chunk.isolate:
                    # Dispatched alone: the break is its own doing.
                    charge(chunk.indices[0], "worker crashed (pool broke "
                                             "with this entry alone)",
                           isolate=True)
                else:
                    bisect(chunk)
            except Exception as exc:
                # Raised outside any entry (the worker could not run the
                # chunk at all): unattributed below a single entry.
                if len(chunk.indices) == 1:
                    charge(chunk.indices[0], str(exc) or type(exc).__name__)
                else:
                    bisect(chunk)
            else:
                settle(chunk, value)
        if done:
            continue
        # Watchdog: the wait timed out — bisect or charge each overdue
        # chunk, abandon its wedged pool, and re-dispatch the chunks
        # that were merely in flight on it.
        now = time.monotonic()
        wedged = {id(pool): pool for _, pool, deadline in inflight.values()
                  if now >= deadline}
        if not wedged:
            continue  # spurious wake (e.g. clamped timeout)
        for future, (chunk, pool, deadline) in list(inflight.items()):
            if id(pool) not in wedged:
                continue
            del inflight[future]
            if now < deadline:
                pending.append(chunk)  # healthy: uncharged, same attempt
                continue
            manifest.hang_timeouts += 1
            if len(chunk.indices) == 1:
                charge(chunk.indices[0], f"entry exceeded the "
                                         f"{policy.entry_timeout:.3f}s "
                                         f"watchdog")
            else:
                bisect(chunk)
        for pool in wedged.values():
            manifest.respawns += 1
            abandon_shared_pool(pool)
