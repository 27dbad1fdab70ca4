"""Tests for the analysis daemon (`repro.service`).

The two contracts under test:

- **Byte-identity** — daemon results (cold, warm, and post-edit) carry
  exactly the ``reports``/``diagnostics`` one-shot ``repro check
  --json`` emits for the same program, across hash seeds.
- **Overload degrades, never crashes** — a full admission queue answers
  429 + ``Retry-After`` while accepted jobs and the daemon itself keep
  working; bad inputs fail the one job, not the process.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.robust.faults import install_faults, reset_faults
from repro.service import (
    LoadConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
    run_load,
)

SOURCE = """
fn use_after_free(n) {
    p = malloc();
    if (n > 3) {
        free(p);
    }
    if (n > 4) {
        x = *p;
        return x;
    }
    return 0;
}

fn helper(p, n) {
    if (n > 0) {
        free(p);
    }
    return n;
}

fn caller(n) {
    q = malloc();
    m = helper(q, n);
    if (m > 1) {
        y = *q;
        return y;
    }
    return m;
}

fn knob() {
    return 0;
}
"""

KNOB_EDIT = "fn knob() { return 41; }"


def _one_shot(tmp_path, source, *, seed="0", name="subject.pin", fault=""):
    """`repro check --json --all` in a subprocess; returns the document."""
    path = tmp_path / name
    path.write_text(source)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    env["PYTHONHASHSEED"] = seed
    env.pop("REPRO_CACHE_DIR", None)
    argv = [sys.executable, "-m", "repro", "check", str(path), "--all", "--json"]
    if fault:
        argv += ["--fault", fault]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    return json.loads(proc.stdout)


def _canon(document):
    return json.dumps(
        {
            "reports": document["reports"],
            "diagnostics": document["diagnostics"],
        },
        sort_keys=True,
    )


@pytest.fixture
def server():
    with ServiceServer(ServiceConfig(workers=2)) as srv:
        yield srv


def test_cold_warm_edit_byte_identical_to_one_shot(server, tmp_path):
    client = ServiceClient(server.port)

    cold = client.check(SOURCE, session="s1")
    warm = client.check(SOURCE, session="s1")
    assert cold["kind"] == "cold" and warm["kind"] == "warm"
    assert cold["findings"] > 0
    assert _canon(cold) == _canon(warm)
    # Warm re-check of the identical program re-analyzes nothing.
    assert warm["incremental"]["analyzed"] == 0
    assert warm["incremental"]["reused"] == warm["incremental"]["functions"]

    # One-shot reference, across hash seeds.
    for seed in ("0", "1", "4242"):
        reference = _one_shot(tmp_path, SOURCE, seed=seed)
        assert _canon(cold) == _canon(reference)

    # Single-function edit: analyzed exactly the edited function, and
    # the result is byte-identical to a one-shot of the edited program.
    edited = client.edit("s1", KNOB_EDIT)
    assert edited["kind"] == "edit"
    assert edited["incremental"]["analyzed"] == 1
    edited_source = SOURCE.replace("fn knob() {\n    return 0;\n}", KNOB_EDIT)
    assert KNOB_EDIT in edited_source
    for seed in ("0", "7"):
        reference = _one_shot(tmp_path, edited_source, seed=seed, name="edited.pin")
        assert _canon(edited) == _canon(reference)

    # An injected preparation fault quarantines `helper` in the daemon
    # exactly as in one-shot runs, cold and after an edit.
    install_faults("prepare:helper")
    try:
        faulted = client.check(SOURCE, session="faulted")
        refaulted = client.edit("faulted", KNOB_EDIT)
    finally:
        reset_faults()
    assert any(d["unit"] == "helper" for d in faulted["diagnostics"])
    for document, source in ((faulted, SOURCE), (refaulted, edited_source)):
        reference = _one_shot(
            tmp_path, source, name="faulted.pin", fault="prepare:helper"
        )
        assert _canon(document) == _canon(reference)


#: `b`'s use-after-free sits on lines 8 and 9 of LINES_SOURCE; an edit
#: of `b` that keeps them parses on its own with `fn` on line 1.
LINES_SOURCE = """fn a(c) {
    x = c + 1;
    return x;
}

fn b() {
    p = malloc();
    free(p);
    y = *p;
    return y;
}
"""

LINES_EDIT = """fn b() {
    p = malloc();
    free(p);
    y = *p;
    return y + 1;
}"""


def test_edit_reports_the_edited_function_at_its_own_lines(server, tmp_path):
    client = ServiceClient(server.port)
    client.check(LINES_SOURCE, session="lines")
    edited = client.edit("lines", LINES_EDIT)
    spliced = LINES_SOURCE[: LINES_SOURCE.index("fn b()")] + LINES_EDIT + "\n"
    reference = _one_shot(tmp_path, spliced, name="spliced.pin")
    assert [
        (r["source"]["line"], r["sink"]["line"])
        for r in reference["reports"]
        if r["checker"] == "use-after-free"
    ] == [(8, 9)]
    assert _canon(edited) == _canon(reference)


def test_results_endpoint_and_no_wait_flow(server):
    client = ServiceClient(server.port)
    accepted = client.check(SOURCE, session="poll", wait=False)
    # Either still pending (202 -> job doc) or already finished.
    job_id = accepted["job_id"]
    result = client.wait_result(job_id)
    assert result["status"] == "done"
    assert result["job_id"] == job_id
    assert result["findings"] > 0
    assert "timings" in result
    # /v1/jobs always answers with the job document.
    job = client.job(job_id)
    assert job["status"] == "done"


def test_edit_against_unknown_session_is_404(server):
    client = ServiceClient(server.port)
    with pytest.raises(ServiceError) as excinfo:
        client.edit("never-checked", KNOB_EDIT)
    assert excinfo.value.status == 404


def test_edit_of_unknown_function_is_404(server):
    client = ServiceClient(server.port)
    client.check(SOURCE, session="s404")
    with pytest.raises(ServiceError) as excinfo:
        client.edit("s404", "fn brand_new() { return 1; }")
    assert excinfo.value.status == 404


@pytest.mark.parametrize(
    "text",
    [
        "fn knob() { return 1; }\nfn extra() { return 2; }",
        "// no definition",
        "fn knob( { return 1; }",
    ],
    ids=["two-definitions", "no-definition", "malformed"],
)
def test_bad_edit_payload_is_400_and_keeps_the_session(server, text):
    client = ServiceClient(server.port)
    client.check(SOURCE, session="keep")
    program = server.sessions.peek("keep").program
    with pytest.raises(ServiceError) as excinfo:
        client.edit("keep", text)
    assert excinfo.value.status == 400
    assert excinfo.value.payload["error"].startswith("bad edit payload: ")
    # Rejected before any job ran: the session keeps its last good
    # program and still takes a good edit.
    assert server.sessions.peek("keep").program is program
    assert client.edit("keep", KNOB_EDIT)["status"] == "done"


def test_parse_error_fails_the_job_not_the_daemon(server):
    client = ServiceClient(server.port)
    accepted = client.check("fn broken( {", session="bad", wait=True)
    assert accepted["status"] == "failed"
    assert "parse error" in accepted["error"]
    # Daemon is still healthy and still serves good requests.
    assert client.health()["ok"] is True
    good = client.check(SOURCE, session="bad2")
    assert good["status"] == "done"


def test_overload_answers_429_with_retry_after_and_recovers():
    config = ServiceConfig(
        workers=1, queue_max=2, worker_delay_seconds=0.4
    )
    with ServiceServer(config) as server:
        client = ServiceClient(server.port)
        accepted, rejected = [], []
        for index in range(8):
            try:
                accepted.append(
                    client.check(
                        SOURCE, session=f"ov-{index}", wait=False
                    )["job_id"]
                )
            except ServiceError as exc:
                rejected.append(exc)
        assert rejected, "queue of 2 with 8 instant submits must reject"
        for exc in rejected:
            assert exc.overloaded
            assert exc.retry_after >= 1
            assert "queue_depth" in exc.payload
        # Accepted jobs all reach a terminal state; daemon stays up.
        for job_id in accepted:
            result = client.wait_result(job_id, timeout=60)
            assert result["status"] == "done"
        health = client.health()
        assert health["ok"] is True
        assert health["jobs"]["done"] == len(accepted)
        # The rejections are visible as metrics.
        metrics = client.metrics_text()
        assert "service_rejected" in metrics
        assert "service_queue_depth" in metrics


def test_healthz_names_port_queue_and_jobs(server):
    client = ServiceClient(server.port)
    health = client.health()
    assert health["ok"] is True
    assert health["service"] == "repro-daemon"
    assert health["port"] == server.port
    assert health["queue_max"] == server.config.queue_max
    assert {"queue_depth", "sessions", "jobs", "uptime_seconds"} <= set(health)


def test_session_cache_evicts_least_recently_used():
    with ServiceServer(ServiceConfig(workers=1, max_sessions=2)) as server:
        client = ServiceClient(server.port)
        for name in ("lru-a", "lru-b", "lru-c"):
            client.check(SOURCE, session=name)
        names = {s["name"] for s in client.sessions()}
        assert len(names) == 2
        assert "lru-a" not in names  # oldest evicted
        # The evicted session just means the next check is cold again.
        revived = client.check(SOURCE, session="lru-a")
        assert revived["kind"] == "cold"


def test_loadgen_measures_and_preserves_fingerprints():
    with ServiceServer(ServiceConfig(workers=2)) as server:
        report = run_load(
            server.port,
            LoadConfig(clients=2, edits_per_client=2, target_lines=120),
        )
        assert not report.errors
        summary = report.summary()
        assert summary["kinds"]["cold"]["count"] == 2
        assert summary["kinds"]["edit"]["count"] == 4
        # Each client's warm fingerprint matches its cold fingerprint
        # (same program), and edits change it.
        by_kind = {}
        for sample in report.samples:
            by_kind.setdefault(sample["kind"], []).append(sample)
        cold_fps = {s["fingerprint"] for s in by_kind["cold"]}
        warm_fps = {s["fingerprint"] for s in by_kind["warm"]}
        assert cold_fps == warm_fps
        assert all(s["exit_code"] in (0, 1) for s in report.samples)


def test_job_carries_trace_context_from_tracing_client():
    from repro.obs.trace import Tracer, get_tracer, set_tracer

    old = get_tracer()
    try:
        tracer = set_tracer(Tracer(enabled=True, trace_id="feedbeef12345678"))
        with ServiceServer(ServiceConfig(workers=1)) as server:
            client = ServiceClient(server.port)
            with tracer.span("client.request") as outer:
                outer_uid = outer.uid
                done = client.check(SOURCE, session="traced", wait=True)
            # The job document carries the client's trace id, and the
            # daemon recorded a service.job span parented (by args) on
            # the client's open request span.
            job = client.job(done["job_id"])
            assert job["trace_id"] == "feedbeef12345678"
            service_spans = [
                s for s in tracer.spans if s.name == "service.job"
            ]
            assert service_spans, "daemon must record a service.job span"
            span = service_spans[0]
            assert span.args["trace_id"] == "feedbeef12345678"
            assert span.args["parent_span"] == outer_uid
            assert span.args["job_id"] == done["job_id"]
    finally:
        set_tracer(old)


def test_job_without_client_trace_mints_trace_id():
    with ServiceServer(ServiceConfig(workers=1)) as server:
        client = ServiceClient(server.port)
        done = client.check(SOURCE, session="untraced", wait=True)
        job = client.job(done["job_id"])
        assert len(job["trace_id"]) == 16  # minted at accept time


def test_metrics_expose_wave_series_during_run():
    """The daemon's /metrics surface serves the process registry, so a
    run in flight in the same process exposes its ``engine.seconds`` and
    ``pta.facts`` series live, and none of the deleted call-graph wave
    series (``sched.waves``, ``attr.wave_seconds``)."""
    import threading

    from repro import Pinpoint, UseAfterFreeChecker
    from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

    old_registry = get_registry()
    set_registry(MetricsRegistry())
    release = threading.Event()
    prepared = threading.Event()
    failure = []

    def run():
        try:
            engine = Pinpoint.from_source(SOURCE)
            engine.check(UseAfterFreeChecker())
            prepared.set()
            # Hold the run "open" until the poller has seen the series:
            # the assertion below happens while this thread is live.
            release.wait(timeout=30)
        except Exception as exc:  # pragma: no cover - surfaced below
            failure.append(exc)
            prepared.set()

    try:
        with ServiceServer(ServiceConfig(workers=1)) as server:
            client = ServiceClient(server.port)
            worker = threading.Thread(target=run)
            worker.start()
            try:
                assert prepared.wait(timeout=60)
                assert not failure, failure
                deadline = time.monotonic() + 30
                needed = ("repro_engine_seconds", "repro_pta_facts")
                while True:
                    text = client.metrics_text()
                    if all(series in text for series in needed):
                        break
                    assert time.monotonic() < deadline, (
                        f"missing series in /metrics: "
                        f"{[s for s in needed if s not in text]}"
                    )
                    time.sleep(0.05)
                assert worker.is_alive(), "run must still be in flight"
                for gone in (
                    "repro_sched_dispatch", "repro_attr_utilization",
                    "repro_sched_waves", "repro_attr_wave_seconds",
                ):
                    assert gone not in text, gone
            finally:
                release.set()
                worker.join(timeout=30)
    finally:
        set_registry(old_registry)


def test_daemon_cli_announces_ephemeral_port_and_stops_on_sigterm(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "daemon", "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline().strip()
        assert "listening on http://127.0.0.1:" in line
        port = int(line.rsplit(":", 1)[1])
        client = ServiceClient(port)
        deadline = time.monotonic() + 30
        while True:
            try:
                health = client.health()
                break
            except OSError:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        assert health["port"] == port
        result = client.check(SOURCE, session="cli")
        assert result["status"] == "done" and result["findings"] > 0
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        assert proc.returncode == 0
        tail = proc.stdout.read()
        assert "[daemon] stopped" in tail
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
