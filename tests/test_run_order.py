"""A verdict depends only on the scenario text, not on what ran before it."""

import copy
import random
import re
import sys

import pytest

from gcx import parse_scenario, run
from gcx.runner import corpus_files

# The same check under two bump declarations: xi(0.5) is 0 below 0.6 in
# the first and 1 from 0.5 in the second.
BUMP_LOW = """\
title "bump zero up to 0.6"
chart C = complex z1
bump xi = 0 upto 0.6, 1 from 0.9
check equal on C xi(0.5)*z1, 0*z1 expect equal
"""
BUMP_HIGH = """\
title "bump one from 0.5"
chart C = complex z1
bump xi = 0 upto 0.25, 1 from 0.5
check equal on C xi(0.5)*z1, z1 expect equal
"""


@pytest.mark.parametrize("order", [(BUMP_LOW, BUMP_HIGH), (BUMP_HIGH, BUMP_LOW)],
                         ids=["low-first", "high-first"])
def test_bump_declarations_do_not_leak_between_scenarios(order):
    scenarios = [parse_scenario(text) for text in order]
    for sc in scenarios:
        report = run(sc)
        assert report.ok, report.render()


def _strip_timing(text: str) -> str:
    return re.sub(r"elapsed_s: .*", "elapsed_s: <t>", text)


def test_corpus_reports_do_not_depend_on_run_order():
    paths = corpus_files()
    shuffled = list(paths)
    random.Random(0).shuffle(shuffled)
    reports = []
    for order in (paths, paths[::-1], shuffled):
        reports.append({p.stem: _strip_timing(run(p, seed=0).render()) for p in order})
    assert reports[0] == reports[1] == reports[2]


def test_build_uses_the_scenarios_bump():
    sc = parse_scenario(
        "chart C = complex z1, complex z2\n"
        "bump xi = 0 upto 0.3, 1 from 0.7\n"
        "build luttinger L = params (1, 3, 1, 2); on C\n"
    )
    specs = {node.func.spec for c in sc.spinors["L"].rho.terms.values()
             for node in c.find(lambda n: getattr(n.func, "spec", None) is not None)}
    assert specs == {sc.bumps["xi"].spec}
    assert (sc.bumps["xi"].spec.zero_upto, sc.bumps["xi"].spec.one_from) == (0.3, 0.7)


def _module_containers() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "gcx" or name.startswith("gcx."):
            for attr, value in vars(module).items():
                if not attr.startswith("__") and isinstance(value, (dict, list, set)):
                    out[name, attr] = copy.deepcopy(value)
    return out


def test_running_scenarios_changes_no_module_state():
    before = _module_containers()
    for text in (BUMP_LOW, BUMP_HIGH):
        run(parse_scenario(text))
        assert _module_containers() == before
