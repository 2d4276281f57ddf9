"""One benchmark pass in a fresh interpreter.

Starts the speed probe (``pace.py``) and imports gcx first, so the time
from the parent's launch to READY is the set-up cost a command-line user
pays.  Then reads a job as JSON on stdin, parses and runs its scenarios in
order in this one process (the way ``gcx corpus run-all`` does), and
prints one JSON result line.  Its ``scaled`` entry holds set-up, parse and
pass time at the probe's reference speed.

Job: ``{"scenarios": [[name, text], ...], "trace": bool, "spans": path|null,
"launched": parent's time.monotonic() at launch}``; a job without
scenarios only measures set-up.
"""

import sys
import time

from pace import Probe

PROBE = Probe()
PROBE.start()

import gcx  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import sympy  # noqa: E402


def _digest(report) -> str:
    """Hash of the rendered report without its wall-clock line."""
    lines = [line for line in report.render().splitlines()
             if not line.startswith("elapsed_s:")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _is_check(label: str) -> bool:
    """Runner labels read '#<index> <statement>'."""
    return label.split(" ", 1)[-1].startswith("check ")


def _check_lines(report) -> list:
    """[tag, detail] for each executed check statement, in order."""
    out = []
    for line in report.lines:
        tag, _, rest = line.partition("] ")
        label, sep, detail = rest.partition("  (")
        if tag not in ("[ok", "[FAIL") or not _is_check(label):
            continue
        out.append([tag[1:], detail[:-1] if sep else ""])
    return out


def run_pass(scenarios, recorder=None) -> list:
    results = []
    for index, (name, text) in enumerate(scenarios):
        if recorder is not None:
            recorder.scenario = index
        start = time.monotonic()
        try:
            sc = gcx.parse_scenario(text)
            parsed = time.monotonic()
            report = gcx.run(sc)
            ran = time.monotonic()
        except Exception as exc:  # a scenario that raises fails its checks
            results.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        other = sum(1 for label in report.failures if not _is_check(label))
        results.append({
            "name": name,
            "parse_s": parsed - start,
            "run_s": ran - parsed,
            "at": [start, parsed, ran],
            "digest": _digest(report),
            "checks": _check_lines(report),
            "other_failures": other,
        })
    return results


def main() -> None:
    job = json.loads(sys.stdin.read() or "{}")
    out = {
        "ready": READY,
        "env": {
            "python": platform.python_version(),
            "sympy": sympy.__version__,
            "numpy": numpy.__version__,
            "gcx": gcx.__version__,
        },
    }
    scenarios = job.get("scenarios") or []
    if scenarios:
        recorder = None
        if job.get("trace"):
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
        out["scenarios"] = run_pass(scenarios, recorder)
        PROBE.stop()
        intervals = [got["at"] for got in out["scenarios"] if "at" in got]
        out["scaled"] = {
            "setup_s": PROBE.scaled(job["launched"], READY),
            "verify_s": sum(PROBE.scaled(start, parsed) for start, parsed, _ in intervals),
            "pass_s": sum(PROBE.scaled(start, ran) for start, _, ran in intervals),
        }
        out["stick_s"] = sorted(took for _, _, took in PROBE.ticks)[len(PROBE.ticks) // 2]
        if recorder is not None:
            out["trace"] = recorder.metrics()
            if job.get("spans"):
                recorder.write(job["spans"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
