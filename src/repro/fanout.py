"""Shared process-pool fan-out for embarrassingly parallel campaigns.

All campaign entry points (Table 2 client evaluation, Table 3 resolver
subjects, web campaign entries, the figure 2 testbed executor) share
the same shape: a list of picklable payloads, a top-level worker
function, and the guarantee that results are a pure function of each
payload — so parallel execution returns exactly the serial result, in
payload order.

They also share one **process-global worker pool**.  Spinning up a
``ProcessPoolExecutor`` costs fork/spawn plus module imports per
worker; short campaigns used to pay that per entry point (the web
campaign, then Table 2 features, then a figure sweep — three pools in
one CLI invocation).  :func:`shared_pool` keeps a single executor
alive for the process and hands it to every campaign, so pool start-up
amortizes across entry points and repeated campaigns.

A campaign may install a **worker context** in that pool: an
``initializer`` (with its ``initargs``) that runs once in each worker
as it starts.  The testbed executor installs its storeless runner this
way, so its chunk payloads carry run coordinates only.  The pool is
replaced only when a campaign asks for a context its workers were not
started with; callers that need none reuse whatever pool is alive, and
a respawn after a crash or a watchdog abandonment starts the new
workers with the context of the campaign that asks next.

Callers chunk their own work and submit one future per chunk
(:func:`shared_map` and :func:`shared_submit`, never ``pool.map``),
which is what lets the resilient campaign runtime
(:mod:`repro.testbed.resilience`) bisect a failed chunk, watchdog a
hung one, and — via :func:`abandon_shared_pool` — walk away from a
wedged pool without waiting on its corpse.  Pool replacement and
submission share one lock, so a future always lands on a pool whose
workers hold the context it was submitted with, even when several
threads (the campaign service) dispatch at once.
"""

from __future__ import annotations

import atexit
import threading

from typing import (Any, Callable, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

Payload = TypeVar("Payload")
Result = TypeVar("Result")

#: Guards pool replacement and submission (re-entrant: the submit
#: helpers call :func:`shared_pool` while holding it).
_lock = threading.RLock()
_shared_pool = None
_shared_pool_workers = 0
#: ``(initializer, initargs)`` the current pool's workers started with.
_shared_pool_context: "Optional[Tuple[Callable[..., None], tuple]]" = None
#: The atexit teardown is registered at most once per process:
#: ``atexit.register`` does not deduplicate, so a shutdown + recreate
#: cycle (tests, pool-respawn recovery) must not stack a second hook.
_atexit_registered = False


def shared_pool(workers: int,
                initializer: "Optional[Callable[..., None]]" = None,
                initargs: tuple = ()):
    """The process-global ``ProcessPoolExecutor``, sized for at least
    ``workers``, whose workers ran ``initializer(*initargs)``.

    A campaign asking for more workers than the current pool replaces
    it with a bigger one; a campaign asking for fewer reuses the
    existing pool and simply leaves the extra workers idle — idle
    workers cost nothing, while pool start-up does not.  Likewise a
    campaign asking for a context the current workers were not started
    with replaces the pool (once its queued work has drained), while
    ``initializer=None`` accepts any pool.
    """
    global _shared_pool, _shared_pool_workers, _shared_pool_context
    global _atexit_registered
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    context = ((initializer, tuple(initargs))
               if initializer is not None else None)
    with _lock:
        if (_shared_pool is None or _shared_pool_workers < workers
                or (context is not None
                    and context != _shared_pool_context)):
            from concurrent.futures import ProcessPoolExecutor

            if _shared_pool is not None:
                _shared_pool.shutdown(wait=True)
            if not _atexit_registered:
                # Tear the pool down cleanly at exit instead of by
                # garbage collection during interpreter shutdown —
                # once, however many shutdown/recreate cycles the
                # process goes through.
                atexit.register(shutdown_shared_pool)
                _atexit_registered = True
            _shared_pool = ProcessPoolExecutor(
                max_workers=workers, initializer=initializer,
                initargs=tuple(initargs))
            _shared_pool_workers = workers
            _shared_pool_context = context
        return _shared_pool


def _detach(pool):
    """Forget ``pool`` (default: the shared one) as the shared pool and
    return it; a pool another campaign already replaced stays
    replaced."""
    global _shared_pool, _shared_pool_workers, _shared_pool_context
    with _lock:
        if pool is None:
            pool = _shared_pool
        if pool is not None and pool is _shared_pool:
            _shared_pool = None
            _shared_pool_workers = 0
            _shared_pool_context = None
    return pool


def shutdown_shared_pool(pool: Any = None) -> None:
    """Tear down the shared pool (tests; or to reclaim the workers) —
    or, given ``pool``, that executor, which the next
    :func:`shared_pool` call no longer returns."""
    pool = _detach(pool)
    if pool is not None:
        pool.shutdown(wait=True)


def abandon_shared_pool(pool: Any = None) -> None:
    """Discard the shared pool (or ``pool``) *without waiting for its
    workers*.

    The recovery path for a wedged pool: a hung worker would make
    :func:`shutdown_shared_pool`'s ``wait=True`` block forever, so the
    resilient runtime cancels the queue, terminates the worker
    processes best-effort, and leaves the executor for the collector.
    The next :func:`shared_pool` call starts fresh.
    """
    pool = _detach(pool)
    if pool is None:
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # racing its own exit is fine
            pass


def shared_submit(fn: "Callable[[Payload], Result]", payload: Payload,
                  workers: int,
                  initializer: "Optional[Callable[..., None]]" = None,
                  initargs: tuple = ()):
    """Submit ``fn(payload)`` to the shared pool with this context;
    returns ``(pool, future)`` so the caller can retire exactly the
    pool its future ran on.  A pool found broken at submission is
    retired here and ``BrokenProcessPool`` re-raised."""
    from concurrent.futures.process import BrokenProcessPool

    with _lock:
        pool = shared_pool(workers, initializer, initargs)
        try:
            return pool, pool.submit(fn, payload)
        except BrokenProcessPool:
            shutdown_shared_pool(pool)
            raise


def shared_map(fn: "Callable[[Payload], Result]",
               payloads: "Sequence[Payload]", workers: int,
               initializer: "Optional[Callable[..., None]]" = None,
               initargs: tuple = ()) -> "Iterator[Result]":
    """Map over the shared pool, yielding results in payload order.

    One future per payload (not ``pool.map``), so failures stay
    attributable to individual payloads.  A crashed worker breaks a
    ``ProcessPoolExecutor`` permanently; the broken pool is discarded
    here so the *next* campaign starts fresh instead of inheriting the
    wreck — retrying within the campaign is the resilient runtime's
    job (:mod:`repro.testbed.resilience`), not this primitive's.
    """
    from concurrent.futures.process import BrokenProcessPool

    pool = None
    try:
        with _lock:
            pool = shared_pool(workers, initializer, initargs)
            futures = [pool.submit(fn, payload) for payload in payloads]
        for future in futures:
            yield future.result()
    except BrokenProcessPool:
        shutdown_shared_pool(pool)
        raise


def map_maybe_parallel(fn: "Callable[[Payload], Result]",
                       payloads: "Sequence[Payload]",
                       workers: Optional[int]) -> "List[Result]":
    """``[fn(p) for p in payloads]``, optionally over worker processes.

    ``workers=None`` or ``1`` runs serially; ``workers=N`` maps over
    the shared process pool (``fn`` must be a top-level function and
    payloads picklable).  Results always come back in payload order,
    so both paths are interchangeable.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if workers is not None and workers > 1 and len(payloads) > 1:
        return list(shared_map(fn, payloads, workers))
    return [fn(payload) for payload in payloads]
