"""Unified retry supervision: capped backoff, budgets, escalation.

Before this module each failure domain invented its own recovery:
``repro.sched.pool`` rebuilt the pool and resubmitted immediately and
the cache store swallowed write errors on first contact.  Every
supervised retry in the repo now goes through one policy:

- **capped exponential backoff** — delay doubles per attempt up to
  ``max_delay``;
- **deterministic jitter** — a hash of ``(unit, attempt)`` spreads
  concurrent retries without randomness, so two runs over the same
  input back off identically (the repo-wide determinism discipline);
- **per-unit retry budgets** — each unit of work (a function name, a
  cache digest) is charged independently;
- an **escalation ladder** — ``retry`` (back into the shared pool /
  another direct attempt) → ``isolate`` (a dedicated single-worker
  attempt, so a deterministic killer cannot take innocents down with
  it) → ``quarantine`` (give up; the caller records the diagnostic or
  degrades the subsystem).

Every retry or isolation increments the ``sched.retries`` counter,
labelled by ``site`` (``pool``, ``cache``) and ``kind``
(``crash``, ``timeout``, ``io``), so supervised recovery is visible in
``--stats`` and Prometheus output.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

from repro.obs.metrics import get_registry

#: Ladder decisions returned by :meth:`RetrySupervisor.record_failure`.
ACTION_RETRY = "retry"
ACTION_ISOLATE = "isolate"
ACTION_QUARANTINE = "quarantine"

#: The retries-visible-everywhere counter (satellite of ISSUE 6).
RETRIES_COUNTER = "sched.retries"


def _count_retry(site: str, kind: str) -> None:
    get_registry().counter(
        RETRIES_COUNTER, "Supervised retries (pool resubmits, isolation "
        "attempts, cache I/O retries)"
    ).inc(site=site, kind=kind)


@dataclass(frozen=True)
class RetryPolicy:
    """How many chances one unit of work gets, and how fast.

    ``max_retries`` pooled/direct re-attempts after the first failure,
    then ``isolate_retries`` attempts in a dedicated single-worker
    executor (meaningful only for pool work; direct callers treat the
    whole budget as plain retries), then quarantine.
    """

    max_retries: int = 1
    isolate_retries: int = 1
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.25  # max extra delay, as a fraction of the base

    @property
    def total_attempts(self) -> int:
        """First attempt plus every ladder rung."""
        return 1 + self.max_retries + self.isolate_retries

    def delay(self, unit: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``unit``.

        Deterministic: the jitter fraction is a hash of the unit name
        and the attempt number, not a random draw."""
        if attempt < 1:
            attempt = 1
        base = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
        seed = hashlib.sha256(f"{unit}#{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(seed[:4], "big") / 0xFFFFFFFF
        return min(base * (1.0 + self.jitter * fraction), self.max_delay)

    def decide(self, failures: int) -> str:
        """Ladder rung for a unit that has now failed ``failures`` times."""
        if failures <= self.max_retries:
            return ACTION_RETRY
        if failures <= self.max_retries + self.isolate_retries:
            return ACTION_ISOLATE
        return ACTION_QUARANTINE


class RetrySupervisor:
    """Per-unit failure bookkeeping for one wave/operation scope.

    The pool creates one per ``run_wave`` call so budgets are charged
    per wave — a function that crashed in wave 3 starts wave 4 (after a
    source edit and rerun, say) with a clean slate.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        *,
        site: str = "pool",
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self.site = site
        self._sleep = sleep
        self.failures: Dict[str, int] = {}

    def record_failure(self, unit: str, kind: str = "crash") -> str:
        """Charge one failure; return the ladder action for this unit.

        ``retry``/``isolate`` actions also count into ``sched.retries``
        and sleep the deterministic backoff delay — by the time this
        returns, the caller may re-attempt immediately."""
        count = self.failures.get(unit, 0) + 1
        self.failures[unit] = count
        action = self.policy.decide(count)
        if action != ACTION_QUARANTINE:
            _count_retry(self.site, kind)
            self._sleep(self.policy.delay(unit, count))
        return action


def with_retries(
    fn: Callable[[], object],
    *,
    unit: str = "",
    site: str = "io",
    kind: str = "io",
    policy: Optional[RetryPolicy] = None,
    retryable: Tuple[Type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``fn`` under the retry policy; transient failures back off
    and re-attempt, a final failure re-raises for the caller's own
    degradation path (the cache store's ``put`` returns False).

    Only exceptions in ``retryable`` are retried — an unpicklable
    payload is deterministic and retrying it would just burn the budget.
    """
    policy = policy or RetryPolicy()
    attempt = 0
    while True:
        try:
            return fn()
        except retryable:
            attempt += 1
            if attempt >= policy.total_attempts:
                raise
            _count_retry(site, kind)
            sleep(policy.delay(unit, attempt))
