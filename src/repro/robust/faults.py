"""Deterministic fault injection.

Named injection sites sit at the parse / prepare / seg-build / smt
boundaries.  A :class:`FaultPlan` — installed programmatically or via
the ``REPRO_FAULTS`` environment variable — arms a subset of them; an
armed :func:`fault_point` raises :class:`InjectedFault`, which the
surrounding quarantine logic must convert into a diagnostic.  Tests use
this to prove every degradation path actually fires, and CI runs a
fault-injection smoke pass the same way.

Plan syntax (comma-separated)::

    site            fire at every hit of ``site``
    site:unit       fire only when the unit of work matches
    site:unit*3     fire at most three times

Examples::

    REPRO_FAULTS=prepare              # every function's preparation fails
    REPRO_FAULTS=parse:helper         # parsing function 'helper' fails
    REPRO_FAULTS=smt*1                # the first SMT query fails

Everything is deterministic: no randomness, counts consumed in call
order.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

ENV_VAR = "REPRO_FAULTS"

#: The recognised injection sites, for validation and documentation.
#: ``slow`` is special: it does not raise — the unit field encodes a
#: sleep in seconds (``slow:0.25``) consumed by :func:`slow_point` in
#: the CLI's measured region, so perf-regression detection can be
#: exercised deterministically.  ``disk-full`` raises
#: ``OSError(ENOSPC)`` from the artifact store's write path (consumed by
#: :func:`disk_full_point`) to exercise the supervised I/O retry path in
#: ``repro.robust.retry``.
SITES = ("parse", "prepare", "seg", "smt", "slow", "disk-full")


class InjectedFault(RuntimeError):
    """The exception an armed fault point raises."""

    def __init__(self, site: str, unit: str = "") -> None:
        where = f"{site}:{unit}" if unit else site
        super().__init__(f"injected fault at {where}")
        self.site = site
        self.unit = unit


class FaultPlan:
    """A parsed fault specification with per-rule remaining counts."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        # rules: (site, unit-or-None) -> remaining count (None = unlimited)
        self._rules: Dict[Tuple[str, Optional[str]], Optional[int]] = {}
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            count: Optional[int] = None
            if "*" in entry:
                entry, _, count_text = entry.rpartition("*")
                try:
                    count = int(count_text)
                except ValueError:
                    raise ValueError(f"bad fault count in {raw!r}") from None
            site, _, unit = entry.partition(":")
            site = site.strip()
            if site not in SITES:
                raise ValueError(
                    f"unknown fault site {site!r} (expected one of {', '.join(SITES)})"
                )
            self._rules[(site, unit.strip() or None)] = count

    def should_fire(self, site: str, unit: str = "") -> bool:
        """Match and consume one firing; exact-unit rules take priority
        over site-wide rules."""
        for key in ((site, unit or None), (site, None)):
            if key not in self._rules:
                continue
            remaining = self._rules[key]
            if remaining is None:
                return True
            if remaining <= 0:
                continue
            self._rules[key] = remaining - 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaultPlan({self.spec!r})"


_plan: Optional[FaultPlan] = None
_env_loaded = False


def install_faults(spec_or_plan) -> FaultPlan:
    """Install a fault plan for this process (tests, CLI ``--fault``)."""
    global _plan, _env_loaded
    plan = (
        spec_or_plan
        if isinstance(spec_or_plan, FaultPlan)
        else FaultPlan(str(spec_or_plan))
    )
    _plan = plan
    _env_loaded = True
    return plan


def reset_faults() -> None:
    """Remove any installed plan (and forget the env var)."""
    global _plan, _env_loaded
    _plan = None
    _env_loaded = True


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, loading ``REPRO_FAULTS`` on first use."""
    global _plan, _env_loaded
    if not _env_loaded:
        _env_loaded = True
        spec = os.environ.get(ENV_VAR, "").strip()
        if spec:
            _plan = FaultPlan(spec)
    return _plan


def fault_point(site: str, unit: str = "") -> None:
    """Raise :class:`InjectedFault` if an installed plan arms this site.

    A no-op (one None check) when no plan is installed, so fault points
    may sit on production paths.
    """
    plan = _plan
    if plan is None:
        if _env_loaded:
            return
        plan = active_plan()
        if plan is None:
            return
    if plan.should_fire(site, unit):
        raise InjectedFault(site, unit)


def consume_slow(plan: Optional[FaultPlan]) -> float:
    """Seconds of injected slowdown armed on ``plan``, consuming one
    firing of each matching ``slow`` rule.  The rule's *unit* field
    carries the duration: ``slow:0.25`` sleeps a quarter second."""
    if plan is None:
        return 0.0
    total = 0.0
    for (site, unit), count in list(plan._rules.items()):
        if site != "slow":
            continue
        if count is not None:
            if count <= 0:
                continue
            plan._rules[(site, unit)] = count - 1
        try:
            total += float(unit) if unit else 1.0
        except ValueError:
            raise ValueError(
                f"slow fault unit must be seconds, got {unit!r}"
            ) from None
    return total


def slow_point() -> None:
    """Sleep for any armed ``slow`` fault (no-op without a plan).

    Sits inside the CLI's measured analysis region so an injected
    slowdown shows up in the run record's wall time — the deterministic
    way to make ``repro history trend --check`` fail in tests and CI.
    """
    seconds = consume_slow(active_plan())
    if seconds > 0:
        import time

        time.sleep(seconds)


def disk_full_point(unit: str = "") -> None:
    """Raise ``OSError(ENOSPC)`` if a ``disk-full`` fault is armed.

    Sits on the artifact store's write path, *inside* the
    supervised-retry scope: a counted rule (``disk-full*2``) proves the
    backoff path recovers, an unlimited rule proves the store degrades
    (``put`` returns False) without failing the run."""
    plan = active_plan()
    if plan is not None and plan.should_fire("disk-full", unit):
        import errno

        raise OSError(errno.ENOSPC, f"injected disk-full writing {unit or 'entry'}")

