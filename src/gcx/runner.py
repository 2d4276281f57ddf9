"""Execute parsed scenarios and render deterministic reports."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .forms import form_equal
from .groups import abelianization
from .scenario import VERDICTS, Command, Scenario, parse_scenario, read_title
from .spinor import (
    assembly_check,
    check_integrable,
    check_nondegenerate,
    check_stable,
    lemma_extension_check,
    type_at,
)
from .topology import (
    ManifoldDescriptor,
    TopologyError,
    classify_simply_connected_5,
    components_report,
    riemann_hurwitz_check,
    validate_surgery_params,
)


class RunError(ValueError):
    """A command could not be executed (bad reference, bad state)."""


@dataclass
class Report:
    """Human-readable lines plus a machine-readable key/value block."""

    title: str
    lines: list[str] = field(default_factory=list)
    values: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def note(self, line: str):
        self.lines.append(line)

    def record(self, key: str, value) -> None:
        self.values[key] = str(value)

    def check(self, label: str, passed: bool, detail: str = ""):
        tag = "ok" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        self.lines.append(f"[{tag}] {label}{suffix}")
        if not passed:
            self.failures.append(label)

    def render(self) -> str:
        out = [f"== {self.title}" if self.title else "== (untitled scenario)"]
        out.extend(self.lines)
        out.append("---")
        for key in sorted(self.values):
            out.append(f"{key}: {self.values[key]}")
        out.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(out) + "\n"


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def corpus_dir() -> Path:
    override = os.environ.get("GCX_CORPUS_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "corpus"


def corpus_files() -> list[Path]:
    base = corpus_dir()
    if not base.is_dir():
        raise RunError(f"corpus directory {base} does not exist")
    return sorted(base.glob("*.gcx"))


def list_corpus() -> list[tuple[str, str]]:
    """(file stem, title) pairs; titles are read without executing."""
    return [(path.stem, read_title(path.read_text())) for path in corpus_files()]


def check_settings(samples, tolerance) -> None:
    """Raise :class:`RunError` unless ``samples`` is an integer of at least
    1 and ``tolerance`` is finite and positive: a NaN tolerance would pass
    every sampled comparison, and a negative one would fail every one."""
    if not (isinstance(samples, int) and samples >= 1):
        raise RunError(f"samples must be an integer >= 1, not {samples!r}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise RunError(f"tolerance must be finite and > 0, not {tolerance!r}")


def run(scenario: Scenario | str | Path, seed: int = 0, samples: int = 32,
        tolerance: float = 1e-9) -> Report:
    check_settings(samples, tolerance)
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    runner = _Runner(scenario, seed, samples, tolerance)
    return runner.run()


class _Runner:
    def __init__(self, sc: Scenario, seed: int, samples: int, tol: float):
        self.sc = sc
        self.seed = seed
        self.samples = samples
        self.tol = tol
        self.manifolds: dict[str, ManifoldDescriptor] = dict(sc.manifolds)
        self.report = Report(sc.title)
        self.index = 0

    def run(self) -> Report:
        start = time.monotonic()
        for warning in self.sc.warnings:
            self.report.note(f"[warn] {warning}")
        for cmd in self.sc.commands:
            self.index += 1
            try:
                getattr(self, "cmd_" + cmd.kind)(cmd)
            except ValueError as exc:  # all gcx errors derive from ValueError
                self.report.check(f"#{self.index} {cmd.text}", False, str(exc))
                if cmd.kind == "check":
                    self.report.record(f"check_{self.index}", "fail")
        self.report.record("seed", self.seed)
        self.report.record("samples", self.samples)
        self.report.record("tolerance", self.tol)
        self.report.record("checks", self.index)
        self.report.record("failures", len(self.report.failures))
        self.report.record("elapsed_s", f"{time.monotonic() - start:.2f}")
        return self.report

    # -- helpers ----------------------------------------------------------

    def manifold(self, name: str) -> ManifoldDescriptor:
        try:
            return self.manifolds[name]
        except KeyError:
            raise RunError(f"unknown manifold {name!r}") from None

    # -- check commands ----------------------------------------------------

    def cmd_check(self, cmd: Command):
        """Run the check's ``chk_*``, which returns (result, detail); a yes/no
        result reads as its :data:`VERDICTS` word, and a None detail as
        ``got <word>``."""
        p = cmd.payload
        got, detail = getattr(self, "chk_" + p["what"].replace("-", "_"))(p)
        if p["what"] in VERDICTS:
            got = VERDICTS[p["what"]][0 if got else 1]
        passed = got == p["expect"]
        self.report.check(f"#{self.index} {cmd.text}", passed,
                          f"got {got}" if detail is None else detail)
        self.report.record(f"check_{self.index}", "pass" if passed else "fail")

    def chk_params(self, p):
        try:
            validate_surgery_params(*p["params"])
            return True, None
        except TopologyError as exc:
            self.report.note(f"  params rejected: {exc}")
            return False, None

    def chk_type(self, p):
        got = type_at(p["spinor"].rho, p["point"],
                      region=p.get("region"), tol=self.tol)
        self.report.record(f"type_{self.index}", got)
        return got, f"type {got}"

    def chk_stable(self, p):
        res = check_stable(p["spinor"])
        return res.stable, res.message

    def chk_integrable(self, p):
        res = check_integrable(p["spinor"], samples=self.samples,
                               seed=self.seed, tol=self.tol)
        return res.ok, res.message

    def chk_nondegenerate(self, p):
        return check_nondegenerate(p["spinor"], p["point"], tol=self.tol), None

    def chk_equal(self, p):
        return form_equal(p["left"], p["right"], region=p.get("region"),
                          samples=self.samples, seed=self.seed, tol=self.tol), None

    def chk_lemma(self, p):
        return lemma_extension_check(p["params"], profile=p["profile"],
                                     samples=self.samples, seed=self.seed,
                                     tol=self.tol), None

    def chk_assembly(self, p):
        got = assembly_check(p["params"], profile=p["profile"],
                             samples=self.samples, seed=self.seed,
                             tol=self.tol)
        if not got:
            self.report.note(f"  assembly: the pieces differ at coefficient {got.name}")
        return got, None

    def chk_chi(self, p):
        got = self.manifold(p["manifold"]).euler
        self.report.record(f"chi_{self.index}", got)
        return got, f"chi {got}"

    def chk_sigma(self, p):
        got = self.manifold(p["manifold"]).signature
        return got, f"sigma {got}"

    def chk_components(self, p):
        got = len(self.manifold(p["manifold"]).components)
        self.report.record(f"components_{self.index}", got)
        return got, f"{got} component(s)"

    def chk_hetero(self, p):
        return components_report(self.manifold(p["manifold"])).heterogeneous, None

    def chk_abelianization(self, p):
        target = p["target"]
        if target in self.sc.groups:
            group = self.sc.groups[target]
        else:
            group = self.manifold(target).pi1
            if group is None:
                raise RunError(f"manifold {target!r} has unknown pi1")
        inv = abelianization(group)
        self.report.record(f"abelianization_{self.index}", inv.describe())
        return inv, inv.describe()

    def chk_classify5(self, p):
        got = classify_simply_connected_5(p["k"], p["spin"])
        self.report.record(f"classify5_{self.index}", got)
        return got, got

    def chk_riemann_hurwitz(self, p):
        try:
            riemann_hurwitz_check(p["gcover"], p["gbase"], p["degree"],
                                  p["indices"])
            return True, None
        except TopologyError as exc:
            self.report.note(f"  riemann-hurwitz: {exc}")
            return False, None

    # -- state commands ----------------------------------------------------

    def cmd_product(self, cmd: Command):
        """Make a surgery's or a cover's product from its factor, and store
        it under its declared name."""
        p = cmd.payload
        out = replace(p["make"](self.manifold(p["manifold"])), name=p["new"])
        self.manifolds[out.name] = out
        self.report.note(f"[do] {out.describe()}")

    def cmd_report(self, cmd: Command):
        rep = components_report(self.manifold(cmd.payload["manifold"]))
        for line in rep.lines:
            self.report.note(line)
        self.report.record(f"heterogeneous_{self.index}",
                           VERDICTS["hetero"][0 if rep.heterogeneous else 1])
