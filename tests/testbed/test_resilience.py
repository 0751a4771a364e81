"""The fault-tolerant campaign runtime.

The headline invariant, asserted for every fault kind: under any
seeded fault plan, a campaign with retries enabled produces records
**byte-identical** to the fault-free run — chaos may cost time, never
correctness.  Around it: the crash-safe journal and ``--resume``,
graceful degradation past the retry budget, the per-entry watchdog,
and the shared-pool recovery seams.
"""

import dataclasses
import pickle

import pytest

from repro.clients import get_profile
from repro.faults import FaultPlan
from repro.fanout import shared_pool, shutdown_shared_pool
from repro.seeding import backoff_jitter
from repro.testbed import (CampaignJournal, CampaignStore, Resilience,
                           RetryPolicy, SweepSpec, TestCaseConfig,
                           TestCaseKind, TestRunner, cad_case,
                           is_harness_failure)

#: Backoff tuned for tests: correctness is identical, sleeps are not.
FAST = dict(backoff_base=0.001, backoff_cap=0.01)


def chaos_runner(seed=5, resilience=None, store=None, values=(0, 80, 160,
                                                             240, 320)):
    return TestRunner(
        clients=[get_profile("Chrome", "130.0"),
                 get_profile("curl", "7.88.1")],
        cases=[dataclasses.replace(cad_case(),
                                   sweep=SweepSpec.fixed(*values))],
        seed=seed, store=store, resilience=resilience)


def campaign_coords(runner):
    return [(case.name, profile.full_name, value_ms, repetition)
            for case in runner.cases
            for profile in runner.clients
            for value_ms in case.sweep
            for repetition in range(case.repetitions)]


@pytest.fixture(scope="module")
def clean_records():
    return list(chaos_runner().stream())


class TestBackoffJitter:
    def test_deterministic(self):
        assert backoff_jitter(7, 3) == backoff_jitter(7, 3)

    def test_within_half_open_window(self):
        for attempt in range(6):
            window = min(2.0, 0.05 * (2 ** attempt))
            delay = backoff_jitter(1, attempt)
            assert window / 2 <= delay < window

    def test_exponential_until_cap(self):
        # Window doubles per attempt, so the lower bound of attempt
        # n+1 equals the upper bound of attempt n: monotone growth.
        assert backoff_jitter(1, 0) < backoff_jitter(1, 2)
        assert backoff_jitter(1, 20) < 2.0  # capped

    def test_seed_varies_jitter(self):
        draws = {backoff_jitter(seed, 2) for seed in range(16)}
        assert len(draws) > 8

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff_jitter(1, -1)


class TestCampaignJournal:
    def test_roundtrip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j" / "campaign.log")
        keys = {"ab" * 32, "cd" * 32, "ef" * 32}
        for key in sorted(keys):
            journal.record(key)
        journal.close()
        assert CampaignJournal(journal.path).load() == keys

    def test_torn_last_line_is_ignored(self, tmp_path):
        path = tmp_path / "campaign.log"
        path.write_text(("ab" * 32) + "\n" + ("cd" * 16))  # kill mid-write
        assert CampaignJournal(path).load() == {"ab" * 32}

    def test_garbage_lines_are_ignored(self, tmp_path):
        path = tmp_path / "campaign.log"
        path.write_text("not-a-key\n" + ("ab" * 32) + "\n\nxyz\n")
        assert CampaignJournal(path).load() == {"ab" * 32}

    def test_missing_file_loads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "absent.log").load() == set()

    def test_picklable_with_open_handle(self, tmp_path):
        journal = CampaignJournal(tmp_path / "campaign.log")
        journal.record("ab" * 32)
        clone = pickle.loads(pickle.dumps(journal))
        assert clone.path == journal.path
        assert clone._handle is None
        journal.close()


class TestChaosInvariant:
    """Faulted campaigns with retries heal into byte-identical output."""

    @pytest.mark.parametrize("plan_text", [
        "crash:0.4", "hang:0.4:1:0.05", "crash:0.3,hang:0.3:1:0.05"])
    def test_serial_entry_faults(self, clean_records, plan_text):
        plan = FaultPlan.parse(plan_text, seed=5)
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        runner = chaos_runner(resilience=res)
        targeted = [c for c in campaign_coords(runner)
                    if plan.entry_fault(c, 0)]
        assert targeted, "plan must actually fire for the test to bite"
        assert list(runner.stream()) == clean_records
        assert res.manifest.retries >= len(targeted)
        assert not res.manifest.failures

    @pytest.mark.parametrize("plan_text", ["crash:0.4",
                                           "crash:0.3,hang:0.3:1:0.05"])
    def test_parallel_worker_crashes(self, clean_records, plan_text):
        """Satellite: a worker crash mid-campaign breaks the shared
        ``ProcessPoolExecutor``; the runtime respawns it, re-dispatches
        only unfinished entries, and the output stays byte-identical
        to the serial fault-free run."""
        plan = FaultPlan.parse(plan_text, seed=5)
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        runner = chaos_runner(resilience=res)
        assert list(runner.stream(workers=2)) == clean_records
        if "crash" in plan_text:
            assert res.manifest.pool_breaks > 0
            assert res.manifest.respawns >= res.manifest.pool_breaks
        assert not res.manifest.failures
        # The shared pool is healthy again after the breaks.
        assert shared_pool(2).submit(len, ()).result() == 0

    def test_parallel_hang_watchdog(self, clean_records):
        """Injected hangs (0.25 s) exceed the watchdog (0.08 s): the
        pool is abandoned, hung entries are charged and retried, and
        the campaign still heals byte-identically."""
        plan = FaultPlan.parse("hang:0.4:1:0.25", seed=5)
        res = Resilience(policy=RetryPolicy(retries=2, entry_timeout=0.08,
                                            **FAST), fault_plan=plan)
        runner = chaos_runner(resilience=res)
        assert list(runner.stream(workers=2)) == clean_records
        assert res.manifest.hang_timeouts > 0
        assert res.manifest.respawns > 0
        assert not res.manifest.failures
        assert shared_pool(2).submit(len, ()).result() == 0

    def test_corrupt_store_writes_heal_on_rerun(self, tmp_path,
                                                clean_records):
        """Torn writes poison the cold run's cache without touching its
        output; the warm rerun quarantines the torn entries,
        re-executes them, and is byte-identical too."""
        plan = FaultPlan.parse("corrupt:0.5,partial:0.3", seed=5)
        store = CampaignStore(tmp_path / "cache")
        store.fault_plan = plan
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        cold = list(chaos_runner(resilience=res, store=store).stream())
        assert cold == clean_records
        torn = sum(1 for key in store.fault_plan._occurrences)
        assert torn > 0, "plan must actually tear writes"

        warm_store = CampaignStore(tmp_path / "cache")  # fault-free handle
        res2 = Resilience(policy=RetryPolicy(retries=2, **FAST))
        warm = list(chaos_runner(resilience=res2,
                                 store=warm_store).stream())
        assert warm == clean_records
        assert warm_store.stats.quarantined == torn
        assert warm_store.stats.invalid == torn
        quarantined = list((tmp_path / "cache" / ".quarantine")
                           .rglob("*.json"))
        assert len(quarantined) == torn

        # Third run: fully healed, pure hits.
        healed_store = CampaignStore(tmp_path / "cache")
        assert list(chaos_runner(store=healed_store)
                    .stream()) == clean_records
        assert healed_store.stats.misses == 0

    def test_transient_io_errors_degrade_not_abort(self, tmp_path,
                                                   clean_records):
        """Injected read/write OSErrors cost cache entries, never
        records: the campaign completes identically and the skipped
        writes are counted."""
        plan = FaultPlan.parse("io-error:0.4:3", seed=5)
        store = CampaignStore(tmp_path / "cache")
        store.fault_plan = plan
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        assert list(chaos_runner(resilience=res,
                                 store=store).stream()) == clean_records
        assert res.manifest.store_write_errors > 0


#: Nine sweep values x two clients = 18 entries, so ``workers=2``
#: dispatches chunks of three (``_CHUNKS_PER_WORKER`` = 4).
CHUNKED_VALUES = tuple(range(0, 321, 40))


@pytest.fixture(scope="module")
def chunked_clean():
    return list(chaos_runner(values=CHUNKED_VALUES).stream())


def targeted_indices(runner, plan):
    return [index for index, coords in enumerate(campaign_coords(runner))
            if plan.entry_fault(coords, 0)]


class TestChunkBisection:
    """Chunked resilient dispatch: exceptions are attributed inside the
    worker; crashes and hangs bisect their chunk, uncharged, down to
    the single entry that is charged."""

    def test_first_attempt_crasher_in_chunk_heals_uncharged(
            self, chunked_clean):
        plan = FaultPlan.parse("crash:0.15", seed=3)
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        runner = chaos_runner(resilience=res, values=CHUNKED_VALUES)
        # Entry 2 closes the first chunk: two chunk-mates ran before it.
        assert targeted_indices(runner, plan) == [2, 8, 9]
        assert list(runner.stream(workers=2)) == chunked_clean
        assert res.manifest.pool_breaks > 0
        assert res.manifest.retries == 0
        assert not res.manifest.failures

    def test_persistent_crasher_charged_exactly_its_budget(
            self, chunked_clean):
        plan = FaultPlan.parse("crash:0.1:99", seed=6)
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        runner = chaos_runner(resilience=res, values=CHUNKED_VALUES)
        targeted = targeted_indices(runner, plan)
        assert targeted == [1, 11]
        records = list(runner.stream(workers=2))
        for index, record in enumerate(records):
            if index in targeted:
                assert is_harness_failure(record)
            else:
                assert record == chunked_clean[index]
        assert len(res.manifest.failures) == len(targeted)
        assert all(f.attempts == 3 for f in res.manifest.failures)
        assert res.manifest.retries == 2 * len(targeted)
        assert shared_pool(2).submit(len, ()).result() == 0

    def test_in_worker_exception_charges_only_its_entry(
            self, chunked_clean):
        # Without a watchdog an injected hang sleeps, then raises.
        plan = FaultPlan.parse("hang:0.25:1:0.01", seed=5)
        res = Resilience(policy=RetryPolicy(retries=1, **FAST),
                         fault_plan=plan)
        runner = chaos_runner(resilience=res, values=CHUNKED_VALUES)
        targeted = targeted_indices(runner, plan)
        assert len(targeted) == 5
        assert list(runner.stream(workers=2)) == chunked_clean
        assert res.manifest.retries == len(targeted)
        assert res.manifest.pool_breaks == 0
        assert res.manifest.hang_timeouts == 0
        assert not res.manifest.failures

    def test_hang_caught_by_chunk_scaled_watchdog(self, chunked_clean):
        plan = FaultPlan.parse("hang:0.15:1:1.0", seed=6)
        res = Resilience(policy=RetryPolicy(retries=1, entry_timeout=0.1,
                                            **FAST), fault_plan=plan)
        runner = chaos_runner(resilience=res, values=CHUNKED_VALUES)
        assert targeted_indices(runner, plan) == [2]
        assert list(runner.stream(workers=2)) == chunked_clean
        assert res.manifest.hang_timeouts == 1
        assert res.manifest.respawns >= 1
        # Bisected uncharged; the halves run on attempt 1, hang-free.
        assert res.manifest.retries == 0
        assert not res.manifest.failures
        assert shared_pool(2).submit(len, ()).result() == 0

    def test_watchdog_budget_scales_with_chunk_length(self, chunked_clean):
        """A 0.6 s hang overruns one entry's 0.4 s budget but not its
        three-entry chunk's 1.2 s, so the hang ends in its own
        exception — attributed and charged — instead of a timeout."""
        plan = FaultPlan.parse("hang:0.1:1:0.6", seed=5)
        res = Resilience(policy=RetryPolicy(retries=1, entry_timeout=0.4,
                                            **FAST), fault_plan=plan)
        runner = chaos_runner(resilience=res, values=CHUNKED_VALUES)
        assert targeted_indices(runner, plan) == [1]
        assert list(runner.stream(workers=2)) == chunked_clean
        assert res.manifest.hang_timeouts == 0
        assert res.manifest.retries == 1
        assert not res.manifest.failures


class TestGracefulDegradation:
    def test_serial_budget_exhaustion_completes_campaign(self):
        plan = FaultPlan.parse("crash:1.0:9", seed=5)  # never heals
        res = Resilience(policy=RetryPolicy(retries=1, **FAST),
                         fault_plan=plan)
        records = list(chaos_runner(resilience=res).stream())
        assert len(records) == 10
        assert all(is_harness_failure(r) for r in records)
        assert all(not r.completed for r in records)
        assert len(res.manifest.failures) == 10
        assert all(f.attempts == 2 for f in res.manifest.failures)

    def test_parallel_persistent_crasher_is_bounded(self, clean_records):
        """A worker that crashes on every attempt cannot crash-loop:
        settle-phase attribution charges it and the campaign finishes
        with the failure recorded and every other entry intact."""
        plan = FaultPlan.parse("crash:1.0:9", seed=5)
        res = Resilience(policy=RetryPolicy(retries=1, **FAST),
                         fault_plan=plan)
        records = list(chaos_runner(resilience=res,
                                    values=(0, 80)).stream(workers=2))
        assert len(records) == 4
        assert all(is_harness_failure(r) for r in records)
        assert len(res.manifest.failures) == 4
        assert shared_pool(2).submit(len, ()).result() == 0

    def test_harness_failures_never_cached_or_journaled(self, tmp_path):
        plan = FaultPlan.parse("crash:1.0:9", seed=5)
        store = CampaignStore(tmp_path / "cache")
        journal = CampaignJournal(tmp_path / "cache" / ".journal" / "c.log")
        res = Resilience(policy=RetryPolicy(retries=1, **FAST),
                         fault_plan=plan, journal=journal)
        list(chaos_runner(resilience=res, store=store).stream())
        journal.close()
        assert store.stats.stores == 0
        assert list(store.entries()) == []
        assert CampaignJournal(journal.path).load() == set()


class TestJournalResume:
    def _resilience(self, tmp_path, resume=False):
        journal = CampaignJournal(tmp_path / "cache" / ".journal" / "c.log")
        return Resilience(policy=RetryPolicy(retries=1, **FAST),
                          journal=journal, resume=resume)

    def test_abandoned_campaign_resumes_without_reexecution(self,
                                                            tmp_path,
                                                            clean_records):
        store = CampaignStore(tmp_path / "cache")
        res = self._resilience(tmp_path)
        stream = chaos_runner(resilience=res, store=store).stream()
        partial = [next(stream) for _ in range(4)]  # then SIGKILL
        stream.close()
        res.close()
        assert partial == clean_records[:4]
        journaled = CampaignJournal(res.journal.path).load()
        assert len(journaled) == 4

        store2 = CampaignStore(tmp_path / "cache")
        res2 = self._resilience(tmp_path, resume=True)
        finished = list(chaos_runner(resilience=res2,
                                     store=store2).stream())
        res2.close()
        assert finished == clean_records
        assert res2.manifest.resumed == 4          # zero re-executions
        assert store2.stats.hits == 4
        assert store2.stats.misses == len(clean_records) - 4
        assert res2.manifest.journal_stale == 0

    def test_journaled_key_lost_from_store_reexecutes(self, tmp_path,
                                                      clean_records):
        store = CampaignStore(tmp_path / "cache")
        res = self._resilience(tmp_path)
        assert list(chaos_runner(resilience=res,
                                 store=store).stream()) == clean_records
        res.close()
        key, path = next(store.entries())
        path.unlink()  # the store lost a journaled entry

        store2 = CampaignStore(tmp_path / "cache")
        res2 = self._resilience(tmp_path, resume=True)
        assert list(chaos_runner(resilience=res2,
                                 store=store2).stream()) == clean_records
        res2.close()
        assert res2.manifest.journal_stale == 1     # detected, not trusted
        assert res2.manifest.resumed == len(clean_records) - 1
        assert store2.stats.misses == 1

    def test_resume_accounting_is_capped_by_plan(self, tmp_path,
                                                 clean_records):
        """Journaled keys outside the campaign's plan (say, from a
        larger earlier sweep) are simply ignored."""
        store = CampaignStore(tmp_path / "cache")
        res = self._resilience(tmp_path)
        list(chaos_runner(resilience=res, store=store).stream())
        res.journal.record("ab" * 32)  # foreign journaled key
        res.close()

        store2 = CampaignStore(tmp_path / "cache")
        res2 = self._resilience(tmp_path, resume=True)
        assert list(chaos_runner(resilience=res2,
                                 store=store2).stream()) == clean_records
        res2.close()
        assert res2.manifest.resumed == len(clean_records)
        assert res2.manifest.journal_stale == 0


class TestSharedPoolSeams:
    def test_atexit_registered_once_across_respawns(self, monkeypatch):
        """Satellite: shutdown + recreate cycles must not stack atexit
        hooks — the teardown is registered at most once per process."""
        import atexit

        from repro import fanout

        shutdown_shared_pool()
        calls = []
        monkeypatch.setattr(atexit, "register",
                            lambda fn: calls.append(fn))
        monkeypatch.setattr(fanout, "_atexit_registered", False)
        try:
            for _ in range(3):
                shared_pool(1)
                shutdown_shared_pool()
            assert calls == [shutdown_shared_pool]
        finally:
            shutdown_shared_pool()

    def test_abandon_discards_pool_without_waiting(self):
        from repro.fanout import abandon_shared_pool

        first = shared_pool(1)
        abandon_shared_pool()
        second = shared_pool(1)
        try:
            assert second is not first
            assert second.submit(len, ()).result() == 0
        finally:
            shutdown_shared_pool()
