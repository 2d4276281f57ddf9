"""Span recorder for the traced benchmark pass.

The recorder wraps gcx's public functions from outside the package: each
wrapped call records a span (id, parent span id, scenario index, name,
start, end) in memory, plus per-name call counts, self time (the span's
duration minus the time its child spans cover) and a few work counts.
A function is replaced at every module attribute that binds it, so
``gcx.forms.evaluate_expr`` is traced as well as
``gcx.scalars.evaluate_expr``; methods are replaced on their class.
Spans are written out only when the pass ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

# (layer name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("scenario.parse_scenario", "gcx.scenario", "parse_scenario"),
    ("groups.parse_word", "gcx.groups", "parse_word"),
    ("forms.MixedForm", "gcx.forms", "MixedForm.__init__"),
    ("forms.wedge", "gcx.forms", "wedge"),
    ("forms.d", "gcx.forms", "d"),
    ("forms.exp_form", "gcx.forms", "exp_form"),
    ("maps.pullback", "gcx.maps", "pullback"),
    ("scalars.evaluate_expr", "gcx.scalars", "evaluate_expr"),
    ("forms.evaluate_at", "gcx.forms", "MixedForm.evaluate_at"),
    ("scalars.expr_equal", "gcx.scalars", "expr_equal"),
    ("forms.form_equal", "gcx.forms", "form_equal"),
    ("chart.Region.sample", "gcx.chart", "Region.sample"),
    ("spinor.check_integrable", "gcx.spinor", "check_integrable"),
    ("spinor.check_stable", "gcx.spinor", "check_stable"),
    ("spinor.type_at", "gcx.spinor", "type_at"),
    ("spinor.lemma_extension_check", "gcx.spinor", "lemma_extension_check"),
    ("spinor.assembly_check", "gcx.spinor", "assembly_check"),
    ("spinor.build_luttinger_spinor", "gcx.spinor", "build_luttinger_spinor"),
    ("spinor.build_gluck_spinor", "gcx.spinor", "build_gluck_spinor"),
    ("groups.tietze_simplify", "gcx.groups", "tietze_simplify"),
    ("groups.smith_normal_form", "gcx.groups", "smith_normal_form"),
    ("groups.abelianization", "gcx.groups", "abelianization"),
    ("topology.apply_luttinger", "gcx.topology", "apply_luttinger"),
    ("topology.apply_gluck", "gcx.topology", "apply_gluck"),
    ("topology.apply_cover", "gcx.topology", "apply_cover"),
    ("topology.apply_branched_cover", "gcx.topology", "apply_branched_cover"),
    ("runner.run", "gcx.runner", "run"),
)


def _letters(presentation) -> int:
    return sum(abs(e) for word in presentation.relators for _, e in word)


class Recorder:
    """In-memory spans and per-layer aggregates for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.scenario = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._ids = itertools.count()

    # -- hooks: extra work counts taken at a layer boundary -----------------

    def _before(self, name, args, kwargs):
        if name == "scalars.expr_equal":
            return self.calls["scalars.evaluate_expr"]
        if name == "groups.tietze_simplify":
            self.counts[name + ".letters_in"] += _letters(args[0])
        elif name == "groups.smith_normal_form":
            matrix = args[0]
            self.counts[name + ".entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)
        elif name == "scenario.parse_scenario":
            self.counts[name + ".bytes"] += len(args[0].encode())
        return None

    def _after(self, name, args, result, token):
        if name == "forms.MixedForm":
            self.counts[name + ".terms_out"] += len(args[0].terms)
        elif name == "scalars.expr_equal":
            sampled = self.calls["scalars.evaluate_expr"] > token
            self.counts[name + (".sampled" if sampled else ".structural")] += 1
        elif name == "groups.tietze_simplify":
            self.counts[name + ".letters_out"] += _letters(result)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_time, counts = self.calls, self.self_time, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._before(name, args, kwargs)
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                calls[name] += 1
                self_time[name] += duration - frame[1]
                spans.append((frame[0], parent[0] if parent else -1,
                               self.scenario, name, start, end))
            self._after(name, args, result, token)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every gcx module attribute that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gcx" or key.startswith("gcx."))]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- output ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self time for every target, plus the work counts."""
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[name + ".calls"] = self.calls[name]
            out[name + ".time_s"] = self.self_time[name]
        out.update(self.counts)
        evals = self.calls["scalars.evaluate_expr"]
        errors = self.counts["scalars.evaluate_expr.errors"]
        out["scalars.evaluate_expr.errors"] = errors
        # no evaluation attempted wastes nothing
        out["scalars.evaluate_expr.ok_ratio"] = (evals - errors) / evals if evals else 1.0
        for key in ("scalars.expr_equal.structural", "scalars.expr_equal.sampled",
                    "forms.MixedForm.terms_out", "groups.tietze_simplify.letters_in",
                    "groups.tietze_simplify.letters_out",
                    "groups.smith_normal_form.entries"):
            out.setdefault(key, 0)
        parse_time = self.self_time["scenario.parse_scenario"]
        parsed = self.counts["scenario.parse_scenario.bytes"]
        out["scenario.parse_scenario.bytes_per_s"] = parsed / parse_time if parse_time else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tscenario\tname\tstart\tend\n")
            for span in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)
