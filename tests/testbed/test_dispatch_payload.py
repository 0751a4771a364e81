"""What parallel dispatch ships to pool workers.

The campaign context (a storeless runner plus the fault plan) reaches
each worker once, as the pool initializer's argument; every future
carries only ``(specs, attempts)``.  These tests record everything
handed to the ``ProcessPoolExecutor`` during a ``--workers 2``
refine over a primed store (resilient with ``--retries 1``, and
plain) and pin that shape: no parent-side state in any payload, the
context pickled at most once per pool start, and per-future bytes that
follow the chunk's spec count rather than the size of the store.
"""

import io
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.fanout import shutdown_shared_pool
from repro.testbed import CampaignJournal, CampaignStore, TestRunner
from repro.testbed.parallel import WorkerContext
from repro.testbed.resilience import FaultManifest

RESILIENT = ["--workers", "2", "--retries", "1"]
REFINE = ["figure2", "--step", "25"]
PARENT_SIDE = (CampaignStore, CampaignJournal, FaultManifest)


class _TypeRecorder(pickle.Pickler):
    """A pickler that notes the type of every object it reduces."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO())
        self.types = set()

    def reducer_override(self, obj):
        self.types.add(type(obj))
        return NotImplemented


def pickled_types(obj) -> set:
    recorder = _TypeRecorder()
    recorder.dump(obj)
    return recorder.types


def holds_parent_state(obj) -> bool:
    return any(issubclass(kind, PARENT_SIDE) for kind in pickled_types(obj))


class _Dispatch:
    """Everything given to pool constructors and ``submit`` calls."""

    def __init__(self) -> None:
        self.initargs = []
        self.payloads = []
        self.context_pickles = 0


@pytest.fixture
def dispatch(monkeypatch):
    seen = _Dispatch()
    real_init = ProcessPoolExecutor.__init__
    real_submit = ProcessPoolExecutor.submit

    def init(self, *args, **kwargs):
        seen.initargs.append(kwargs.get("initargs", ()))
        real_init(self, *args, **kwargs)

    def submit(self, fn, *args, **kwargs):
        seen.payloads.extend(args)
        return real_submit(self, fn, *args, **kwargs)

    def getstate(self):
        seen.context_pickles += 1
        return self.__dict__

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", init)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    monkeypatch.setattr(WorkerContext, "__getstate__", getstate,
                        raising=False)
    shutdown_shared_pool()  # the campaign starts its own pool
    yield seen
    shutdown_shared_pool()


def refine(root, capsys, flags=RESILIENT) -> str:
    assert main(["--cache-dir", str(root), *flags, *REFINE]) == 0
    return capsys.readouterr().out


def prime(root, capsys, *extra_argv) -> None:
    assert main(["--cache-dir", str(root), "figure2", "--step", "50"]) == 0
    for argv in extra_argv:
        assert main(["--cache-dir", str(root), *argv]) == 0
    capsys.readouterr()


class TestDispatchPayloads:
    @pytest.mark.parametrize("flags", [RESILIENT, ["--workers", "2"]],
                             ids=["resilient", "plain"])
    def test_payloads_carry_no_parent_side_state(self, tmp_path, capsys,
                                                 dispatch, flags):
        prime(tmp_path, capsys)
        out = refine(tmp_path, capsys, flags)
        assert "misses=136" in out
        assert dispatch.payloads, "the refine must dispatch fresh runs"
        for payload in dispatch.payloads:
            specs, attempts = payload
            assert len(specs) == len(attempts)
            assert not holds_parent_state(payload)
            assert not any(issubclass(kind, TestRunner)
                           for kind in pickled_types(payload))
        contexts = [pickle.loads(blob) for args in dispatch.initargs
                    for blob in args]
        assert contexts, "the pool must start with the campaign context"
        for context in contexts:
            assert isinstance(context, WorkerContext)
            assert context.runner.store is None
            assert context.runner.resilience is None
            assert not holds_parent_state(context)

    def test_context_pickled_at_most_once_per_pool_start(self, tmp_path,
                                                         capsys, dispatch):
        prime(tmp_path, capsys)
        refine(tmp_path, capsys)
        pool_starts = len(dispatch.initargs)
        assert pool_starts >= 1
        assert 1 <= dispatch.context_pickles <= pool_starts

    def test_payload_bytes_follow_specs_not_store(self, tmp_path, capsys,
                                                  dispatch):
        small, large = tmp_path / "small", tmp_path / "large"
        prime(small, capsys)
        # Same figure2 keys plus an unrelated population campaign: a
        # bigger store, identical refine misses.
        prime(large, capsys, ["run", "population-latency",
                              "--samples", "30"])
        assert (sum(1 for _ in CampaignStore(large).entries())
                > sum(1 for _ in CampaignStore(small).entries()))

        def sizes():
            return [(len(payload[0]), len(pickle.dumps(payload)))
                    for payload in dispatch.payloads]

        refine(small, capsys)
        on_small = sizes()
        dispatch.payloads.clear()
        refine(large, capsys)
        assert sizes() == on_small
        for specs, size in on_small:
            assert size <= 256 + 128 * specs, (specs, size)
