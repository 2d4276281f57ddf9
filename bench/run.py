"""gcx benchmark: time to verdict on three workloads, checked against
answers that do not come from gcx.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a gcx source tree.  Each pass runs in a fresh
interpreter (``bench/worker.py``), driven by this one caller as a closed
loop with no concurrency: the next process starts when the previous one
has exited.  Passes repeat until ``--seconds`` have gone by (at least
MIN_PASSES), and every reported time is a median over the passes, at the
reference interpreter speed of ``bench/pace.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries
the per-layer metrics of the traced passes.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
PROCESS_TIMEOUT_S = 120.0
OUT_DIR = ".bench_out"


class PassFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def child_env(root: Path) -> dict:
    """The source tree first on the path; numeric libraries single-threaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GCX_CORPUS_DIR", None)
    return env


def launch(env: dict, job: dict) -> dict:
    """Run one worker; returns its result with wall-clock set-up time added."""
    start = time.monotonic()
    payload = json.dumps(dict(job, launched=start))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(payload, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"worker exceeded {PROCESS_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave no worker behind
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def score(scenarios, result: dict, reference: dict) -> tuple[int, int]:
    """(attempted, failed) checks of one pass.

    A check fails when its line is missing or not ``[ok]``, when its
    detail differs from the constructed answer, when its scenario raised
    or another command of it failed, or when its scenario's rendered
    report differs from the first pass's (``reference`` keeps those).
    """
    attempted = failed = 0
    for sc, got in zip(scenarios, result["scenarios"]):
        n = len(sc.expected)
        attempted += n
        if "error" in got or got["other_failures"]:
            failed += n
            continue
        if reference.setdefault(sc.name, got["digest"]) != got["digest"]:
            failed += n
            continue
        checks = got["checks"]
        if len(checks) != n:
            failed += n
            continue
        for (tag, detail), want in zip(checks, sc.expected):
            if tag != "ok" or (want is not None and detail != want):
                failed += 1
    return attempted, failed


def wall_times(result: dict) -> tuple[float, float]:
    parse = sum(s.get("parse_s", 0.0) for s in result["scenarios"])
    run = sum(s.get("run_s", 0.0) for s in result["scenarios"])
    return parse, parse + run


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    """Checks attempted and failed over every pass of a run."""

    def __init__(self):
        self.attempted = self.failed = self.passes = 0
        self.reference: dict = {}  # scenario name -> digest of its first report
        self.env: dict = {}
        self.samples: dict = {}
        self.unstable_counts: list = []

    def add(self, scenarios, result: dict) -> None:
        attempted, failed = score(scenarios, result, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.passes += 1
        self.env = result["env"]


def timed_run(env, scenarios, seconds: float, tally: Tally) -> dict:
    """Passes until time is up; each pass process also times its set-up."""
    job = {"scenarios": [[s.name, s.text] for s in scenarios], "trace": False}
    setups, verify, total, rss, wall, sticks = [], [], [], [], [], []
    deadline = time.monotonic() + seconds
    while len(total) < MIN_PASSES or time.monotonic() < deadline:
        result = launch(env, job)
        tally.add(scenarios, result)
        setups.append(result["scaled"]["setup_s"])
        verify.append(result["scaled"]["verify_s"])
        total.append(result["scaled"]["pass_s"])
        rss.append(result["peak_rss_mb"])
        wall.append([result["setup_s"], *wall_times(result)])
        sticks.append(result["stick_s"])
    # wall: [set-up, parse, pass] seconds on the clock, before scaling
    tally.samples = {"setup_s": setups, "verify_s": verify, "pass_s": total,
                     "peak_rss_mb": rss, "wall": wall, "stick_s": sticks}
    return {
        "setup_s": statistics.median(setups),
        "verify_s": statistics.median(verify),
        "pass_s": statistics.median(total),
        "peak_rss_mb": statistics.median(rss),
    }


def traced_run(env, scenarios, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of the latter."""
    plain = {"scenarios": [[s.name, s.text] for s in scenarios], "trace": False}
    traced = dict(plain, trace=True, spans=str(spans_path))
    untraced_s, traced_s, layers = [], [], []
    deadline = time.monotonic() + seconds
    while len(traced_s) < MIN_TRACED_PAIRS or time.monotonic() < deadline:
        for job in (plain, traced):
            result = launch(env, job)
            tally.add(scenarios, result)
            (traced_s if job["trace"] else untraced_s).append(result["scaled"]["pass_s"])
            if job["trace"]:
                layers.append(result["trace"])
    counts = [name for name in layers[0] if is_count(name)]
    tally.unstable_counts = [name for name in counts
                             if any(l.get(name) != layers[0][name] for l in layers)]
    if tally.unstable_counts:
        sys.stderr.write("bench: count metrics differ between traced passes: "
                         f"{tally.unstable_counts}\n")
    out = {name: (layers[0][name] if name in counts
                  else statistics.median(l[name] for l in layers))
           for name in layers[0]}
    out["trace.pass_s"] = statistics.median(traced_s)
    out["trace.overhead_s"] = out["trace.pass_s"] - statistics.median(untraced_s)
    tally.samples = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
    return out


def is_count(name: str) -> bool:
    """Times end in _s (bytes_per_s too); the rest but ok_ratio are counts."""
    return not name.endswith(("_s", "ok_ratio"))


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "gcx").rglob("*")):
        if path.suffix in (".py", ".gcx"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through launch(), which kills its worker


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gcx" / "__init__.py").is_file():
        sys.stderr.write("bench: run from the root of a gcx source tree "
                         "(src/gcx not found)\n")
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]

    scenarios = WORKLOADS[args.workload](root, args.seed)
    env = child_env(root)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tally = Tally()
    try:
        launch(env, {})  # unmeasured: compiles bytecode on a fresh checkout
        if args.trace:
            measured = traced_run(env, scenarios, args.seconds, tally,
                                  out_dir / f"spans-{args.workload}.tsv")
        else:
            measured = timed_run(env, scenarios, args.seconds, tally)
    except PassFailed as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured:
            sys.stderr.write(f"bench: metric {name} was not measured\n")
            return 1
        metrics[name] = {"value": measured[name], "unit": entry["unit"]}
    correct = tally.failed == 0 and not tally.unstable_counts
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed, "passes": tally.passes,
        "env": dict(tally.env, nproc=os.cpu_count(), commit=git_commit(root),
                    source=source_digest(root)),
        "samples": tally.samples,
        "unstable_counts": tally.unstable_counts,
        "metrics": measured,
    }
    suffix = "trace" if args.trace else "e2e"
    (out_dir / f"{args.workload}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(record["env"]))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
