"""Command-line entry point: verify and run scenarios, browse the corpus.

Exit codes: 0 on success, 1 when an executed check fails, 2 on parse or
configuration errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .runner import RunError, check_settings, corpus_files, list_corpus, run
from .scenario import ParseError, parse_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcx",
        description="Verify and run generalized-complex surgery scenarios.",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--samples", type=int, default=32,
                        help="sample count for numeric identity checks (at least 1)")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="numeric comparison tolerance (finite, > 0)")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the report to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="parse and statically check a scenario")
    p_verify.add_argument("file", type=Path)

    p_run = sub.add_parser("run", help="parse and execute a scenario")
    p_run.add_argument("file", type=Path)

    p_corpus = sub.add_parser("corpus", help="operate on the bundled corpus")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list corpus scenarios and titles")
    corpus_sub.add_parser("run-all", help="run every corpus scenario")

    return parser


def _emit(text: str, report_path: Path | None):
    sys.stdout.write(text)
    if report_path is not None:
        report_path.write_text(text)


def cmd_verify(args) -> int:
    sc = parse_scenario(args.file.read_text())
    lines = [
        f"== {sc.title}" if sc.title else "== (untitled scenario)",
        f"parsed {len(sc.statements)} statement(s): "
        f"{len(sc.charts)} chart(s), {len(sc.forms)} form(s), "
        f"{len(sc.spinors)} spinor(s), {len(sc.manifolds)} manifold(s), "
        f"{len(sc.commands)} command(s)",
    ]
    lines.extend(f"[warn] {w}" for w in sc.warnings)
    lines.append("verify: ok")
    _emit("\n".join(lines) + "\n", args.report)
    return 0


def cmd_run(args) -> int:
    report = run(args.file, seed=args.seed, samples=args.samples,
                 tolerance=args.tolerance)
    _emit(report.render(), args.report)
    return 0 if report.ok else 1


def cmd_corpus_list(args) -> int:
    lines = [f"{name}  {title}" for name, title in list_corpus()]
    _emit("\n".join(lines) + "\n", args.report)
    return 0


def cmd_corpus_run_all(args) -> int:
    start = time.monotonic()
    chunks = []
    failures = 0
    paths = corpus_files()
    for path in paths:
        report = run(path, seed=args.seed, samples=args.samples,
                     tolerance=args.tolerance)
        chunks.append(report.render())
        if not report.ok:
            failures += 1
    chunks.append(
        f"corpus: {len(paths)} scenario(s), {failures} failing, "
        f"{time.monotonic() - start:.1f}s\n"
    )
    _emit("\n".join(chunks), args.report)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_settings(args.samples, args.tolerance)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "run":
            return cmd_run(args)
        if args.corpus_command == "list":
            return cmd_corpus_list(args)
        return cmd_corpus_run_all(args)
    except (ParseError, RunError, OSError) as exc:
        sys.stderr.write(f"gcx: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
