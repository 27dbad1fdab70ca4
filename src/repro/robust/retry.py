"""Supervised retries of transient I/O failures: capped backoff, budgets.

The artifact store's writes (:mod:`repro.cache.store`) go through
:func:`with_retries`, under one policy:

- **capped exponential backoff** — delay doubles per attempt up to
  ``max_delay``;
- **deterministic jitter** — a hash of ``(unit, attempt)`` spreads
  concurrent retries without randomness, so two runs over the same
  input back off identically (the repo-wide determinism discipline);
- **per-unit retry budgets** — each unit of work (a cache digest) is
  charged independently; a final failure re-raises for the caller's
  own degradation path.

Every retry counts into the ``sched.retries`` counter, labelled by
``site`` and ``kind`` (``cache``/``io`` for the store's writes), so
supervised recovery is visible in ``--stats``, run records and
Prometheus output.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from repro.obs.metrics import get_registry

#: The retries-visible-everywhere counter.
RETRIES_COUNTER = "sched.retries"


@dataclass(frozen=True)
class RetryPolicy:
    """How many chances one unit of work gets, and how fast: the first
    attempt plus ``max_retries`` re-attempts."""

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.25  # max extra delay, as a fraction of the base

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
            if attempt > policy.max_retries:
                raise
            get_registry().counter(
                RETRIES_COUNTER, "Supervised retries (cache I/O retries)"
            ).inc(site=site, kind=kind)
            sleep(policy.delay(unit, attempt))
