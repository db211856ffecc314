#!/usr/bin/env python3
"""End-to-end smoke test for the continuous-telemetry stack (stdlib only).

Drives the real `uniq serve-load` binary twice:

Run 1 — live scrape:
  - starts serve-load with the background sampler and an ephemeral scrape
    port (--scrape-port 0), discovers the port from the flushed
    "scrape endpoint: http://127.0.0.1:PORT/metrics" stdout line,
  - polls the endpoint while the load runs and validates every response
    with check_exposition (name charset, TYPE coverage, cumulative
    buckets, +Inf == _count),
  - runs `uniq monitor` once against the live endpoint,
  - asserts exit 0, validates the --exposition-out file, and checks the
    load-report JSON for the telemetry/estimator_check/slo/stages sections.

Run 2 — SLO gate:
  - same load with a rules file whose quantile threshold is impossibly
    low (any completed lookup breaches it) plus --fail-on-slo,
  - asserts the documented exit code 5 and a breach in the report.

Usage:  tools/telemetry_smoke.py /path/to/uniq [workdir]
Exit status: 0 on success, 1 on any failure.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_exposition  # noqa: E402  (sibling module, stdlib only)

ENDPOINT_RE = re.compile(
    r"scrape endpoint: http://127\.0\.0\.1:(\d+)/metrics"
)
LOAD_ARGS = [
    "--users", "500", "--duration-s", "2", "--threads", "2",
    "--shards", "2", "--warm", "64", "--cache-capacity", "256",
    "--sample-interval-ms", "100",
]

# Any lookup that completes at all has a latency above this threshold, so
# the rule must breach — what pins the --fail-on-slo exit-code contract.
BREACH_RULES = {
    "rules": [
        {
            "name": "impossible-lookup-p50",
            "metric": "serve.load.lookup_ms",
            "objective": "quantile",
            "quantile": 0.5,
            "threshold": 1e-9,
            "window_s": 1,
        }
    ]
}


def fail(message: str) -> None:
    print(f"telemetry_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class LineCollector:
    """Drains a pipe on a thread so the child never blocks on stdout."""

    def __init__(self, pipe):
        self.lines: list[str] = []
        self._thread = threading.Thread(target=self._drain, args=(pipe,))
        self._thread.daemon = True
        self._thread.start()

    def _drain(self, pipe) -> None:
        for line in pipe:
            self.lines.append(line.rstrip("\n"))

    def join(self) -> None:
        self._thread.join(timeout=10)


def wait_for_port(collector: LineCollector, deadline_s: float) -> int:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        for line in collector.lines:
            m = ENDPOINT_RE.search(line)
            if m:
                return int(m.group(1))
        time.sleep(0.05)
    fail("scrape endpoint line never appeared on stdout")
    raise AssertionError  # unreachable


def scrape(port: int) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=5
    ) as response:
        return response.read().decode("utf-8")


def validate(text: str, context: str) -> None:
    problems = check_exposition.check(text)
    if problems:
        for p in problems:
            print(f"telemetry_smoke: {context}: {p}", file=sys.stderr)
        fail(f"{context}: invalid exposition ({len(problems)} problem(s))")


def run_live_scrape(uniq: str, workdir: pathlib.Path) -> None:
    report_path = workdir / "report.json"
    exposition_path = workdir / "final.prom"
    proc = subprocess.Popen(
        [uniq, "serve-load", *LOAD_ARGS,
         "--scrape-port", "0",
         "--load-report", str(report_path),
         "--exposition-out", str(exposition_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    collector = LineCollector(proc.stdout)
    try:
        port = wait_for_port(collector, deadline_s=30)
        print(f"telemetry_smoke: endpoint on port {port}")

        # Start the monitor while the endpoint is live; it polls twice and
        # exits well before the 2 s load finishes. Collected below.
        monitor = subprocess.Popen(
            [uniq, "monitor", "--port", str(port),
             "--interval-ms", "100", "--iterations", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)

        scrapes = 0
        while proc.poll() is None:
            try:
                body = scrape(port)
            except (urllib.error.URLError, OSError):
                break  # run finished between poll() and the request
            validate(body, f"scrape #{scrapes}")
            scrapes += 1
            time.sleep(0.2)
        if scrapes == 0:
            fail("never managed a scrape while the load ran")
        print(f"telemetry_smoke: {scrapes} live scrape(s) validated")

        monitor_out, _ = monitor.communicate(timeout=30)
        # Exit 1 means the very first poll failed; a mid-run endpoint
        # shutdown exits 0 by contract.
        if monitor.returncode != 0:
            fail(f"uniq monitor exited {monitor.returncode}:\n{monitor_out}")
        print("telemetry_smoke: uniq monitor ran against the live endpoint")

        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        collector.join()
    if code != 0:
        fail(f"serve-load exited {code}:\n" + "\n".join(collector.lines))

    validate(exposition_path.read_text(encoding="utf-8"), "exposition-out")

    report = json.loads(report_path.read_text(encoding="utf-8"))
    for key in ("telemetry", "estimator_check", "slo", "stages"):
        if key not in report:
            fail(f"load report is missing the {key!r} section")
    # The warm-phase calibration alone runs every stage once.
    for stage in ("extract", "fusion", "nearfield", "nearfar", "gesture"):
        entry = report["stages"].get(stage)
        if not entry or entry["count"] < 1 or "p99_ms" not in entry:
            fail(f"load report's stages section lacks {stage!r}: "
                 f"{report['stages']}")
    if report["telemetry"]["windows"] < 2:
        fail("sampler produced fewer than 2 windows over a 2 s run")
    est = report["estimator_check"]
    for q in ("p50", "p99"):
        reservoir = est[f"reservoir_{q}_ms"]
        histogram = est[f"histogram_{q}_ms"]
        if reservoir > 0 and not (0.4 <= histogram / reservoir <= 2.5):
            fail(f"estimator disagreement at {q}: reservoir {reservoir}, "
                 f"histogram {histogram}")
    print("telemetry_smoke: report sections and estimator agreement OK")


def run_slo_gate(uniq: str, workdir: pathlib.Path) -> None:
    rules_path = workdir / "breach_rules.json"
    rules_path.write_text(json.dumps(BREACH_RULES), encoding="utf-8")
    report_path = workdir / "breach_report.json"
    proc = subprocess.run(
        [uniq, "serve-load", *LOAD_ARGS,
         "--slo-rules", str(rules_path), "--fail-on-slo",
         "--load-report", str(report_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300)
    if proc.returncode != 5:
        fail(f"--fail-on-slo run exited {proc.returncode}, expected 5:\n"
             f"{proc.stdout}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if not report["slo"]["breached"]:
        fail("report does not record the guaranteed breach")
    if not report["slo"]["breaches"]:
        fail("report has no breach events")
    print("telemetry_smoke: --fail-on-slo exit-code contract holds")


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    uniq = sys.argv[1]
    if len(sys.argv) > 2:
        workdir = pathlib.Path(sys.argv[2])
        workdir.mkdir(parents=True, exist_ok=True)
        run_live_scrape(uniq, workdir)
        run_slo_gate(uniq, workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="telemetry_smoke_") as tmp:
            workdir = pathlib.Path(tmp)
            run_live_scrape(uniq, workdir)
            run_slo_gate(uniq, workdir)
    print("telemetry_smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
