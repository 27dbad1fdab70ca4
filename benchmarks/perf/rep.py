"""One benchmark repetition, run by ``run.py`` in a fresh process.

Reads a JSON spec on stdin, times ``import repro`` and every operation
of the repetition, and prints one JSON object on stdout.  A fresh
process per repetition keeps peak RSS clean and stops hash-consed terms
and interned strings from carrying over between repetitions.

Every timed operation is reported twice: ``seconds`` is its wall time,
``ref_seconds`` the same time scaled to the host's reference speed (see
:class:`SpeedReference`).

Spec keys: ``source`` (program text), ``checkers`` (CLI checker names),
``jobs``, ``edits`` (0 for a cold repetition; N for a warm edit session
of N single-function edits), ``seed`` (picks the edited functions),
``verify_final`` (edit sessions: compare the final warm findings with a
cold run), ``trace``, ``spans`` and ``trace_id`` (record layer spans
under that id; return them).

The process receives only the program text: the generator's ground
truth stays with ``run.py``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import resource
import signal
import struct
import sys
import time

TRACE_MIN_SPAN_S = 0.001

#: Process CPU seconds between two speed ticks.
TICK_PERIOD_S = 0.02
#: Rounds of the reference kernel per tick (about half a millisecond).
TICK_ROUNDS = 1500
#: A tick's time on the reference host (2 cores, Python 3.11) when no
#: other tenant slows it: ``ref_seconds`` are seconds at that speed.
REF_NOMINAL_S = 0.00045
#: repro slows by about this power of the kernel's slowdown.  Fitted on
#: the reference host over about 1,000 benchmark repetitions, taken
#: while the kernel ran at 1.0 to 2.5 times its nominal time (0.81 to
#: 0.90 over builds and checks), where a busy neighbour halves the
#: kernel's speed but costs repro about 1.8x.
REF_SENSITIVITY = 0.86
#: An operation is scaled by the mean of at least this many ticks; a
#: short one borrows the nearest ticks of its neighbours.
MIN_TICKS = 8
_TICK = struct.Struct("dd")


def _ref_step(table: dict, key: tuple, total: int) -> int:
    value = table.get(key, 0) + total
    table[key] = value & 0xFFFF
    return value


def _ref_kernel(rounds: int) -> int:
    """Fixed interpreter work of the kind repro does: calls, small
    tuples, dict reads and writes, ``isinstance``."""
    table: dict = {}
    total = 0
    for i in range(rounds):
        key = ("ref", i & 255)
        total = _ref_step(table, key, total) & 0xFFFFF
        if isinstance(key[1], int) and i % 3:
            total += len(key)
    return total


def _mean_near(ticks: list, start: float, end: float) -> float:
    """Mean tick time over [start, end], widened until it holds
    ``MIN_TICKS`` ticks (or all of them)."""
    margin = 0.0
    while True:
        near = [s for t, s in ticks if start - margin <= t <= end + margin]
        if len(near) >= min(MIN_TICKS, len(ticks)):
            return sum(near) / len(near)
        margin = margin * 2 or 0.05


class SpeedReference:
    """Scales wall times to the host's reference speed.

    On a shared host another tenant can halve a core's speed for a few
    milliseconds to several seconds at a time, on each core on its own.
    Every ``TICK_PERIOD_S`` of CPU time a profiling signal interrupts
    the process and times a fixed kernel that never calls into repro;
    scheduler workers forked from this process tick too and report
    through a pipe.  :meth:`finish` divides each operation's time by
    its ticks' mean slowdown, raised to ``REF_SENSITIVITY``.  The
    drift cancels; a change to repro does not.  The ticks' own time is
    taken out of the process's operations."""

    def __init__(self) -> None:
        _ref_kernel(TICK_ROUNDS * 20)  # warm-up: the first runs are slow
        self.ticks: list = []
        self._in_worker = False
        self._stolen = 0.0
        self._entries: list = []
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        signal.signal(signal.SIGPROF, self._tick)
        os.register_at_fork(after_in_child=self._forked)
        signal.setitimer(signal.ITIMER_PROF, TICK_PERIOD_S, TICK_PERIOD_S)

    def _forked(self) -> None:
        # A forked child does not inherit the interval timer.
        self._in_worker = True
        signal.setitimer(signal.ITIMER_PROF, TICK_PERIOD_S, TICK_PERIOD_S)

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would move repro's work into the tick
        started = time.perf_counter()
        _ref_kernel(TICK_ROUNDS)
        seconds = time.perf_counter() - started
        if enabled:
            gc.enable()
        if self._in_worker:
            try:
                os.write(self._write, _TICK.pack(started, seconds))
            except BlockingIOError:
                pass
        else:
            self.ticks.append((started, seconds))
            self._stolen += seconds

    @contextlib.contextmanager
    def timed(self, entry: dict):
        """Time the block into ``entry``: ``seconds`` without this
        process's ticks, ``tick_s`` for the ticks; ``ref_seconds``
        follows in :meth:`finish`."""
        stolen = self._stolen
        started = time.perf_counter()
        yield entry
        end = time.perf_counter()
        entry["tick_s"] = self._stolen - stolen
        entry["seconds"] = end - started - entry["tick_s"]
        self._entries.append((entry, started, end))

    def finish(self) -> None:
        """Stop ticking and scale every timed operation."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        while True:
            try:
                data = os.read(self._read, 1 << 16)
            except BlockingIOError:
                break
            # Each write is one whole record (shorter than PIPE_BUF).
            self.ticks.extend(_TICK.iter_unpack(data))
        if not self.ticks:  # too short to tick: take the nominal speed
            self.ticks.append((0.0, REF_NOMINAL_S))
        for entry, start, end in self._entries:
            slowdown = _mean_near(self.ticks, start, end) / REF_NOMINAL_S
            entry["ref_seconds"] = entry["seconds"] / slowdown**REF_SENSITIVITY


def _peak_rss_mb() -> float:
    """Largest resident set of this process and of any waited-for child
    (scheduler workers), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _edited(func, k: int):
    """``func`` with ``bench_edit = k;`` prepended: a body change that
    keeps the function's interface and its findings."""
    from repro.lang import ast

    stmt = ast.AssignStmt(
        target="bench_edit", value=ast.Num(value=k, line=func.line), line=func.line
    )
    body = ast.Block(stmts=[stmt] + list(func.body.stmts))
    return ast.FuncDef(name=func.name, params=list(func.params), body=body, line=func.line)


def main() -> int:
    spec = json.load(sys.stdin)
    speed = SpeedReference()
    out = {"import": {}, "build": {}, "checks": [], "edits": []}
    with speed.timed(out["import"]):
        import repro  # noqa: F401  (timed: part of every run's set-up)

    from repro.cli import CHECKERS
    from repro.obs.history import findings_digest

    tracer = None
    if spec.get("trace"):
        import repro.sched.scheduler  # noqa: F401  (bound before wrapping)

        import layers

        tracer = layers.LayerTracer(
            trace_id=spec.get("trace_id", ""), keep_spans=bool(spec.get("spans"))
        )
        layers.install(tracer)

    def span(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    source = spec["source"]
    names = list(spec["checkers"])

    def run_checks(engine, record: bool):
        results = []
        for name in names:
            entry = {"checker": name}
            with speed.timed(entry) if record else contextlib.nullcontext():
                with span(f"rep.check.{name}"):
                    result = engine.check(CHECKERS[name]())
            results.append(result)
            if record:
                entry["digest"] = findings_digest([r.key() for r in result])
                entry["diagnostics"] = len(result.diagnostics)
                entry["stats"] = result.stats.as_dict()
                if name == "use-after-free":
                    entry["pairs"] = [
                        [r.source.function, r.sink.function] for r in result
                    ]
                out["checks"].append(entry)
        return results

    def combined_digest(results) -> str:
        return findings_digest([r.key() for result in results for r in result])

    if not spec.get("edits"):
        from repro import Pinpoint

        with speed.timed(out["build"]), span("rep.build"):
            engine = Pinpoint.from_source(source, jobs=spec.get("jobs") or 1)
        out["build_diagnostics"] = len(engine.diagnostics)
        run_checks(engine, record=True)
        speed.finish()
        out["peak_rss_mb"] = _peak_rss_mb()
    else:
        from repro import IncrementalAnalyzer, Pinpoint
        from repro.core.incremental import apply_function_edit
        from repro.lang.parser import parse_program

        with speed.timed(out["build"]), span("rep.build"):
            program = parse_program(source)
            analyzer = IncrementalAnalyzer()
            engine = analyzer.analyze_program(program)
        out["build_diagnostics"] = len(engine.diagnostics)
        baseline = combined_digest(run_checks(engine, record=True))
        out["session_digest"] = baseline

        # Every session of a seed edits the same functions in the same
        # order, the first ones of a seeded permutation, however many
        # sessions a run makes.
        functions = {f.name: f for f in program.functions}
        order = sorted(functions)
        random.Random(spec["seed"]).shuffle(order)
        reprepared = reused = 0
        for k in range(spec["edits"]):
            name = order[k % len(order)]
            entry = {"function": name}
            with speed.timed(entry), span("rep.edit"):
                functions[name] = _edited(functions[name], k)
                program = apply_function_edit(program, functions[name])
                engine = analyzer.analyze_program(program)
                results = run_checks(engine, record=False)
            reprepared += analyzer.last_stats.analyzed
            reused += analyzer.last_stats.reused
            entry["digest"] = combined_digest(results)
            entry["diagnostics"] = sum(len(r.diagnostics) for r in results)
            out["edits"].append(entry)
        speed.finish()
        out["reprepared"] = reprepared
        out["reused"] = reused
        out["peak_rss_mb"] = _peak_rss_mb()
        if spec.get("verify_final"):
            # Untimed oracle: the warm session must agree with a cold
            # analysis of the program it ended on.
            cold = Pinpoint.from_program(program)
            out["final_cold_digest"] = combined_digest(
                [cold.check(CHECKERS[name]()) for name in names]
            )
            out["final_warm_digest"] = out["edits"][-1]["digest"] if out["edits"] else baseline

    out["ticks"] = len(speed.ticks)
    out["tick_median_s"] = sorted(s for _, s in speed.ticks)[len(speed.ticks) // 2]
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, engine, out)
        if spec.get("spans"):
            out["spans"] = tracer.chrome_events(TRACE_MIN_SPAN_S)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


#: Per-layer metric -> the layer (see layers.LAYER_TARGETS) whose self
#: seconds it reports.
_SELF_SECONDS = {
    **{
        f"{layer}_s": layer
        for layer in (
            "lang.parse", "ir.lower", "ir.ssa", "ir.gating", "ir.controldep",
            "ir.dominance", "ir.callgraph", "transform.modref",
            "transform.connectors", "pta.local", "seg.build", "seg.cond_dd",
            "seg.cond_pc", "seg.cond_cd", "smt.solve", "smt.linear",
        )
    },
    "pipeline.prepare_self_s": "pipeline.prepare",
    "core.engine_init_self_s": "core.engine_init",
    "core.check_self_s": "core.check",
    "core.search_self_s": "core.search",
    "core.clone_s": "core.clone",
}
#: Per-layer metric -> the layer whose calls it counts.
_CALLS = {
    "ir.lower_calls": "ir.lower",
    "pta.local_runs": "pta.local",
    "seg.cond_dd_calls": "seg.cond_dd",
    "seg.cond_pc_calls": "seg.cond_pc",
    "seg.cond_cd_calls": "seg.cond_cd",
    "core.clone_calls": "core.clone",
    "smt.queries": "smt.solve",
    "smt.linear_queries": "smt.linear",
}
#: Per-layer metric -> the repro metrics-registry entry it totals.
_REGISTRY = {
    "sched.tasks": "sched.tasks",
    "sched.waves": "sched.waves",
    "sched.serialize_bytes": "sched.dispatch.serialize_bytes",
    "core.check_cache_hit": "engine.check_cache.hit",
    "core.check_cache_miss": "engine.check_cache.miss",
}
#: EngineStats fields summed over the repetition's recorded checks.
_STATS = ("search_steps", "candidates", "summaries_rv", "summaries_vf",
          "pruned_linear", "pruned_smt")


def _layer_metrics(tracer, engine, out) -> dict:
    """Per-layer self times and counts of this (traced) repetition."""
    from repro.obs.metrics import get_registry

    own = tracer.layer_self_s()
    worker_s, worker_calls = tracer.worker_totals()
    metrics = {
        "repro.import_s": out["import"]["seconds"],
        # Self seconds of this process's layer spans; run.py subtracts
        # them (and the import) from the rep's wall for bench.unattributed_s.
        "own_layer_s": sum(own.values()),
    }
    for metric, layer in _SELF_SECONDS.items():
        metrics[metric] = own.get(layer, 0.0) + worker_s.get(layer, 0.0)
    for metric, layer in _CALLS.items():
        metrics[metric] = tracer.calls.get(layer, 0) + worker_calls.get(layer, 0)

    vertices, edges = engine.seg_size()
    metrics["pipeline.functions"] = len(engine.functions)
    metrics["seg.vertices"] = vertices
    metrics["seg.edges"] = edges

    totals = dict.fromkeys(_STATS, 0)
    for check in out["checks"]:
        stats = check["stats"]
        metrics[f"core.search_steps.{check['checker']}"] = stats["search_steps"]
        for key in totals:
            totals[key] += stats[key]
    for key, value in totals.items():
        metrics[f"core.{key}"] = value
    steps = totals["search_steps"]
    metrics["core.candidate_yield"] = totals["candidates"] / steps if steps else 0.0
    pruned = totals["pruned_linear"] + totals["pruned_smt"]
    metrics["smt.linear_prune_share"] = totals["pruned_linear"] / pruned if pruned else 0.0

    registry = get_registry()
    for metric, name in _REGISTRY.items():
        entry = registry.get(name)
        metrics[metric] = sum(v for _, v in entry.items()) if entry is not None else 0
    metrics["incremental.reprepared"] = out.get("reprepared", 0)
    metrics["incremental.reused"] = out.get("reused", 0)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
