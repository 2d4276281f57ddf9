"""Self-test of the benchmark's scenario generators.

    python3 bench/selftest.py

Run from the root of a gcx source tree.  Two parts:

1. Every abelian invariant that a generated topology scenario expects is
   recomputed from the scenario text alone: the exponent-sum matrix of the
   group (or of the surgered group, built here from the surgery formula)
   goes through sympy's ``smith_normal_form``, which shares no code with
   gcx, for SYMPY_SEEDS seeds.  Needs no gcx.
2. One pass of every workload, for GCX_SEEDS seeds, runs through gcx exactly
   as the benchmark runs it, and every verdict must match its
   constructed answer.  This holds on the commit that defined the
   benchmark; a later failure means gcx changed a verdict.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SYMPY_SEEDS = 40
GCX_SEEDS = 3

_GROUP = re.compile(r"^group (\w+) = < (.*) \| (.*) >$")
_LOCUS = re.compile(r"^locus (\w+) on \w+ = .*complement (\w+);")
_SURGERY = re.compile(r"^surgery (\w+) = luttinger \w+ at (\w+) params \((.*)\)$")
_ABEL = re.compile(r"^check abelianization (\w+) expect rank (\d+) torsion \[(.*)\]$")


def _word(text: str) -> dict[str, int]:
    """Exponent sums of a word written as g or g^e syllables joined by '*'."""
    sums: dict[str, int] = {}
    if text == "1":
        return sums
    for syllable in text.split("*"):
        gen, _, exp = syllable.partition("^")
        sums[gen] = sums.get(gen, 0) + int(exp or 1)
    return sums


def _invariants(generators, rows) -> tuple[int, list[int]]:
    """(free rank, torsion invariant factors > 1) by sympy's Smith form."""
    matrix = Matrix([[row.get(g, 0) for g in generators] for row in rows])
    snf = smith_normal_form(matrix, domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    nonzero = [x for x in diag if x]
    return len(generators) - len(nonzero), sorted(x for x in nonzero if x > 1)


def _elementary(factors) -> list[int]:
    """Prime-power decomposition, which any diagonal form must agree on."""
    out = []
    for n in factors:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def check_topology_invariants(seed: int) -> int:
    """Number of expected abelianizations that disagree with sympy."""
    bad = 0
    for sc in workloads.topology(Path("."), seed):
        groups, loci, surgered = {}, {}, {}
        for line in sc.text.splitlines():
            if m := _GROUP.match(line):
                gens = [g.strip() for g in m.group(2).split(",")]
                groups[m.group(1)] = (gens, [_word(w.strip()) for w in m.group(3).split(",")])
            elif m := _LOCUS.match(line):
                loci[m.group(1)] = m.group(2)
            elif m := _SURGERY.match(line):
                _, q, _, b = (int(x) for x in m.group(3).split(","))
                gens, rows = groups[loci[m.group(2)]]
                # meridian trivial: relators l2^q, l1 t1^-1, l2^b t2^-1 and
                # [t1, t2], whose exponent sums vanish
                surgered[m.group(1)] = (gens + ["t1", "t2"], rows + [
                    {"l2": q}, {"l1": 1, "t1": -1}, {"l2": b, "t2": -1}])
            elif m := _ABEL.match(line):
                name = m.group(1)
                gens, rows = groups.get(name) or surgered[name]
                want_rank = int(m.group(2))
                want = [int(t) for t in m.group(3).split(",") if t.strip()]
                rank, torsion = _invariants(gens, rows)
                chain = all(y % x == 0 for x, y in zip(want, want[1:]))
                if (rank != want_rank or _elementary(torsion) != _elementary(want)
                        or not chain):
                    bad += 1
                    print(f"seed {seed} {sc.name} {name}: expected rank {want_rank} "
                          f"torsion {want}, sympy gives rank {rank} torsion {torsion}")
    return bad


def check_verdicts(seed: int) -> int:
    """Failed checks over one gcx pass of every workload."""
    root = Path.cwd()
    env = run.child_env(root)
    failed = 0
    for name, generate in sorted(workloads.WORKLOADS.items()):
        scenarios = generate(root, seed)
        job = {"scenarios": [[s.name, s.text] for s in scenarios], "trace": False}
        tally = run.Tally()
        tally.add(scenarios, run.launch(env, job))
        print(f"seed {seed} {name}: {tally.attempted} checks, {tally.failed} failed")
        failed += tally.failed
    return failed


def main() -> int:
    bad = sum(check_topology_invariants(seed) for seed in range(SYMPY_SEEDS))
    print(f"abelian invariants: {SYMPY_SEEDS} seeds, {bad} disagree with sympy")
    failed = sum(check_verdicts(seed) for seed in range(GCX_SEEDS))
    ok = bad == 0 and failed == 0
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
