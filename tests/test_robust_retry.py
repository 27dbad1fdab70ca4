"""The supervised I/O retry policy: backoff and budgets.

Contract under test: cache I/O retries back off exponentially, capped,
with hash-derived (never random) jitter, give up after the policy's
budget, and every retry shows up in the ``sched.retries`` counter.
"""

import errno

import pytest

from repro.cache.store import SummaryStore
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.robust.faults import install_faults, reset_faults
from repro.robust.retry import RetryPolicy, with_retries


@pytest.fixture(autouse=True)
def _clean_state():
    reset_faults()
    set_registry(MetricsRegistry())
    yield
    reset_faults()
    set_registry(MetricsRegistry())


def _retries_total():
    return get_registry().counter("sched.retries").total()


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_delay_is_deterministic_and_capped():
    policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
    first = policy.delay("helper", 1)
    assert first == policy.delay("helper", 1)  # no randomness
    assert 0.1 <= first <= 0.15
    # exponential growth, hard cap
    assert policy.delay("helper", 2) > first
    assert policy.delay("helper", 10) == 1.0
    # jitter spreads distinct units apart
    assert policy.delay("helper", 1) != policy.delay("other", 1)


# ----------------------------------------------------------------------
# with_retries
# ----------------------------------------------------------------------
def test_with_retries_recovers_from_transient_failures():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError(errno.ENOSPC, "full")
        return "ok"

    result = with_retries(
        flaky,
        unit="x",
        policy=RetryPolicy(max_retries=2),
        sleep=lambda _s: None,
    )
    assert result == "ok"
    assert len(attempts) == 3
    assert _retries_total() == 2


def test_with_retries_reraises_when_budget_exhausted():
    def always_fails():
        raise OSError(errno.EIO, "gone")

    with pytest.raises(OSError):
        with_retries(
            always_fails,
            policy=RetryPolicy(max_retries=1),
            sleep=lambda _s: None,
        )


def test_with_retries_does_not_retry_deterministic_errors():
    attempts = []

    def broken():
        attempts.append(1)
        raise TypeError("never transient")

    with pytest.raises(TypeError):
        with_retries(broken, sleep=lambda _s: None)
    assert len(attempts) == 1
    assert _retries_total() == 0


# ----------------------------------------------------------------------
# Cache I/O rides the same policy (disk-full fault site)
# ----------------------------------------------------------------------
def test_store_put_retries_through_injected_disk_full(tmp_path):
    install_faults("disk-full*2")
    store = SummaryStore(str(tmp_path / "cache"))
    assert store.put("ab" * 32, "fn", {"artifact": 1}) is True
    assert store.get("ab" * 32) is not None
    assert _retries_total() >= 2


def test_store_put_degrades_when_disk_stays_full(tmp_path):
    install_faults("disk-full")  # unlimited: every attempt fails
    store = SummaryStore(str(tmp_path / "cache"))
    assert store.put("cd" * 32, "fn", {"artifact": 1}) is False
    reset_faults()
    assert store.get("cd" * 32) is None  # nothing half-written
