"""Seeded scenario generators for the gcx benchmark.

Every generator returns a list of :class:`Scenario` records: the `.gcx`
text that gcx receives, plus the verdict the benchmark expects for each
``check`` statement, in order.  Expected verdicts come from the
construction (an algebraic identity that holds for any forms, a group
built as a disguised direct sum of cyclic groups, the Euler-characteristic
formulas) and never from running gcx.  This module imports neither gcx nor
sympy, so generating inputs costs the benchmark almost nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Scenario:
    name: str
    text: str
    # One entry per `check` statement, in order: the detail string the
    # runner prints for the expected verdict, or None when only the
    # pass/fail tag is checked (the bundled corpus, whose answers are the
    # authors' `expect` clauses).
    expected: tuple


def check_statements(text: str) -> int:
    """Number of `check` statements in a scenario text."""
    count = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("check "):
            count += 1
    return count


# ---------------------------------------------------------------------------
# corpus: the bundled scenarios, in corpus_files() order
# ---------------------------------------------------------------------------


def corpus(root: Path, seed: int) -> list[Scenario]:
    """The 18 bundled scenarios; the seed does not change real traffic."""
    out = []
    for path in sorted((root / "src" / "gcx" / "corpus").glob("*.gcx")):
        text = path.read_text()
        out.append(Scenario(path.stem, text, (None,) * check_statements(text)))
    return out


# ---------------------------------------------------------------------------
# identities: exterior-calculus identities on a 6-leg chart
# ---------------------------------------------------------------------------

LEGS = ("z1", "z1b", "z2", "z2b", "x1", "y1")
CHART = "chart C = complex z1, complex z2, real x1, real y1"


def _rational(rng: random.Random) -> str:
    """A nonzero non-integer rational; one kind of number, so one cost."""
    return f"{rng.choice((-5, -4, -2, -1, 1, 2, 4, 5))}/3"


def _coefficient(rng: random.Random) -> str:
    """A Gaussian rational with nonzero real and imaginary parts."""
    return f"({_rational(rng)} + {_rational(rng)}*i)"


def _monomial(rng: random.Random, variables, degree: int) -> str:
    powers: dict[str, int] = {}
    for _ in range(degree):
        v = rng.choice(variables)
        powers[v] = powers.get(v, 0) + 1
    return "".join(
        f"*{v}" if e == 1 else f"*{v}**{e}" for v, e in sorted(powers.items())
    )


def _poly(rng: random.Random, variables=LEGS, degree: int = 2,
          real: bool = False) -> str:
    """c0 + c1 m1 + ... + ck mk with monomial mj of degree j and cj != 0.

    The constant term keeps it nonzero; the fixed shape keeps the cost of
    a scenario from depending much on the seed.
    """
    out = []
    for j in range(degree + 1):
        coeff = f"({_rational(rng)})" if real else _coefficient(rng)
        out.append(coeff + _monomial(rng, variables, j))
    return "(" + " + ".join(out) + ")"


def _keys(order, degree: int, terms: int, start: int = 0) -> list:
    """`terms` basis keys of `degree` legs each: consecutive legs of `order`
    from `start` on, wrapping around.

    The seed picks `order`, so it picks which legs a form uses, but not how
    the keys of the forms of a scenario overlap.  That overlap sets how many
    terms a wedge product has, and so most of the cost of a scenario.
    """
    n = len(order)
    return [tuple(sorted((order[(start + t * degree + j) % n] for j in range(degree)),
                         key=LEGS.index))
            for t in range(terms)]


def _form(rng: random.Random, keys, poly_degree: int = 2) -> str:
    """A form on the given basis keys with random polynomial coefficients."""
    parts = []
    for key in keys:
        coeff = _poly(rng, degree=poly_degree)
        parts.append(coeff + "".join(("*" if i == 0 else "^") + "d" + leg
                                     for i, leg in enumerate(key)))
    return " + ".join(parts)


# degrees (k, l) of the forms A and B, cycled over the scenarios of a pass:
# both signs of the Leibniz rule and of graded commutativity
_DEGREES = ((1, 1), (2, 2), (1, 2))

SIN_COS_ARGUMENT = "((2/3) + (-4/3)*x1 + (5/3)*y1)"
SIN_COS_FORM = "((1/3 + -2/3*i))*dx1"


def _identity_scenario(rng: random.Random, index: int) -> Scenario:
    lines = [f'title "identities {index}"', CHART]
    checks: list[tuple[str, str]] = []

    def form(name: str, body: str):
        lines.append(f"form {name} on C = {body}")

    # pullback map: polynomial perturbation of the identity
    lines.append(
        "map f : C -> C = "
        f"z1 -> z1 + {_coefficient(rng)}*z2**2, "
        f"z2 -> z2 + {_coefficient(rng)}*z1*x1, "
        f"x1 -> x1 + ({_rational(rng)})*y1**2, "
        f"y1 -> y1 + ({_rational(rng)})*x1*y1"
    )
    k, l = _DEGREES[index % len(_DEGREES)]
    order = rng.sample(LEGS, len(LEGS))
    form("A", _form(rng, _keys(order, k, 2)))
    form("B", _form(rng, _keys(order, l, 2, start=2 * k)))
    order = rng.sample(LEGS, len(LEGS))
    form("M", " + ".join([_form(rng, [()]), _form(rng, _keys(order, 1, 2)),
                          _form(rng, _keys(order, 2, 1, start=2))]))
    # three disjoint pairs of legs, so W^3 != 0 and exp(W) has four terms
    form("W", _form(rng, _keys(rng.sample(LEGS, len(LEGS)), 2, 3)))

    # d o d = 0 on a mixed-degree form
    checks.append(("d(d(M)), 0*M", "equal"))
    # Leibniz rule for a homogeneous form of degree k
    sign = "+" if k % 2 == 0 else "-"
    checks.append((f"d(A^B), d(A)^B {sign} A^d(B)", "equal"))
    # graded commutativity: A^B = (-1)^(kl) B^A
    checks.append(("A^B, B^A" if (k * l) % 2 == 0 else "A^B, -(B^A)", "equal"))
    # exp(W) ^ exp(-W) = 1 for an even form
    checks.append(("exp(W)^exp(-W), 1", "equal"))
    # pullback commutes with d
    checks.append(("pullback(f, d(M)), d(pullback(f, M))", "equal"))
    # formal conjugation is an involution
    checks.append(("conj(conj(M)), M", "equal"))
    # rational identity that only `cancel` decides: (P^2 - Q^2)/(P - Q) = P + Q
    p = q = _poly(rng, degree=1, real=True)
    while q == p:  # same shape, so distinct texts are distinct polynomials
        q = _poly(rng, degree=1, real=True)
    form("R", _form(rng, [(rng.choice(LEGS),)], poly_degree=1))
    checks.append((f"(({p})**2 - ({q})**2)/({p} - ({q})) * R, ({p} + {q}) * R", "equal"))
    # transcendental identity, decided by sampling: sin^2 + cos^2 = 1.  Its
    # text is fixed: sympy raises its precision step by step to evaluate the
    # near-zero difference, so a seeded argument would make the cost of a
    # pass depend on the seed
    form("S", SIN_COS_FORM)
    checks.append((f"(sin({SIN_COS_ARGUMENT}))**2 * S + (cos({SIN_COS_ARGUMENT}))**2 * S, S",
                   "equal"))
    # false identity: for 1-forms P = p dz1 + ..., Q = q dx1 + ... the
    # dz1^dx1 coefficient of P^Q is p*q != 0, so P^Q = -(Q^P) != Q^P
    mid = ("z1b", "z2", "z2b")
    form("P", f"{_poly(rng)}*dz1 + " + _form(rng, [(rng.choice(mid),)]))
    form("Q", f"{_poly(rng)}*dx1 + " + _form(rng, [(rng.choice(mid),)]))
    checks.append(("P^Q, Q^P", "different"))

    for body, verdict in checks:
        lines.append(f"check equal on C {body} expect {verdict}")
    return Scenario(f"identities_{index}", "\n".join(lines) + "\n",
                    tuple(f"got {verdict}" for _, verdict in checks))


# The parse cost of a scenario still depends a little on its random
# monomials; six scenarios a pass average that out.
IDENTITY_SCENARIOS = 6


def identities(root: Path, seed: int) -> list[Scenario]:
    rng = random.Random(f"identities-{seed}")
    return [_identity_scenario(rng, i) for i in range(IDENTITY_SCENARIOS)]


# ---------------------------------------------------------------------------
# topology: disguised direct sums of cyclic groups and surgery bookkeeping
# ---------------------------------------------------------------------------

def free_reduce(word) -> list:
    out: list[tuple[str, int]] = []
    for gen, exp in word:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
    return out


def invert(word) -> list:
    return [(g, -e) for g, e in reversed(word)]


def word_text(word) -> str:
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in word) or "1"


def letters(word) -> int:
    return sum(abs(e) for _, e in word)


_PRIMES = (2, 3, 5, 7, 11, 13)


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... (> 1) of the direct sum of Z_n, n > 1."""
    powers: dict[int, list[int]] = {}
    for n in orders:
        for p in _PRIMES:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
        if n != 1:
            raise ValueError("order has a prime factor outside the table")
    depth = max((len(v) for v in powers.values()), default=0)
    factors = [1] * depth
    for chain in powers.values():
        chain.sort(reverse=True)
        for k, q in enumerate(chain):
            factors[k] *= q
    return tuple(sorted(f for f in factors if f > 1))


def describe_abelian(rank: int, torsion) -> str:
    parts = ["Z"] * rank + [f"Z_{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"


@dataclass
class DisguisedGroup:
    """A direct sum of cyclic groups in a presentation that hides it."""

    generators: list
    relators: list  # words
    rank: int
    torsion_orders: list  # orders > 1 of the finite cyclic summands

    @property
    def torsion(self) -> tuple[int, ...]:
        return invariant_factors(self.torsion_orders)

    def text(self, extra_generators=(), extra_relators=()) -> str:
        gens = ", ".join(list(self.generators) + list(extra_generators))
        rels = ", ".join(word_text(w) for w in list(self.relators) + list(extra_relators))
        return f"< {gens} | {rels} >"


_ORDERS = (0, 0, 2, 3, 4, 5, 6, 8, 9, 12)


def _base_relators(words, orders) -> list:
    """w_i^{n_i} for finite orders and [w_i, w_j] for every pair."""
    out = [free_reduce(w * n) for w, n in zip(words, orders) if n]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            out.append(free_reduce(words[i] + words[j]
                                   + invert(words[i]) + invert(words[j])))
    return out


def _random_word(rng: random.Random, gens, size: int) -> list:
    """A reduced word of exactly `size` letters, no generator twice in a row."""
    out: list[tuple[str, int]] = []
    for _ in range(size):
        gen = rng.choice([g for g in gens if not out or g != out[-1][0]])
        out.append((gen, rng.choice((-1, 1))))
    return out


# cyclic summands per group: with more, gcx's smith_normal_form blows up on
# some seeds (see bench/README.md)
FACTORS = 4
RELATOR_LETTERS = 6000
DEFINED = 3  # extra generators c_j defined by words


def disguised_group(rng: random.Random, prefix: str) -> DisguisedGroup:
    """Z_{n1} + ... + Z_{nk} (n = 0 meaning Z) behind a Nielsen automorphism.

    The summand generators a_i are replaced by words w_i in new
    generators b_i obtained by Nielsen moves (w_i <- w_i w_j^{+-1} or
    w_j^{+-1} w_i), which are automorphisms of the free group, so the
    presented group is unchanged.  Extra generators c_j with defining
    relators c_j^-1 u_j are Tietze moves of the second kind, which also
    leave the group unchanged.  The moves stop once the relators hold
    half of RELATOR_LETTERS, and the words u_j take up the rest, so
    every group has exactly that many relator letters and a pass costs
    about the same whatever the seed.
    """
    orders = [rng.choice(_ORDERS) for _ in range(FACTORS)]
    gens = [f"{prefix}{i + 1}" for i in range(FACTORS)]
    budget = RELATOR_LETTERS - 2 * DEFINED
    while True:
        words = [[(g, 1)] for g in gens]
        relators = _base_relators(words, orders)
        while sum(map(letters, relators)) < RELATOR_LETTERS // 2:
            i, j = rng.sample(range(FACTORS), 2)
            other = words[j] if rng.random() < 0.5 else invert(words[j])
            words[i] = free_reduce(words[i] + other if rng.random() < 0.5
                                   else other + words[i])
            relators = _base_relators(words, orders)
        used = sum(map(letters, relators))
        if used <= budget:
            break
    extra = [f"{prefix}c{j + 1}" for j in range(DEFINED)]
    for j, c in enumerate(extra):
        size = (budget - used) // DEFINED + (j < (budget - used) % DEFINED) + 1
        relators.append([(c, -1)] + _random_word(rng, gens, size))
    rng.shuffle(relators)
    return DisguisedGroup(gens + extra, relators,
                          rank=orders.count(0),
                          torsion_orders=[n for n in orders if n > 1])


def _topology_scenario(rng: random.Random, index: int) -> Scenario:
    lines = [f'title "topology {index}"']
    checks: list[tuple[str, str]] = []
    chi = rng.randint(-6, 12) * 2
    comps = rng.randint(0, 2)
    component_clause = "".join("; component T2xT2" for _ in range(comps))
    groups = []
    for g in range(2):
        prefix = f"g{g + 1}b"
        grp = disguised_group(rng, prefix)
        groups.append(grp)
        name = f"G{g + 1}"
        lines.append(f"group {name} = {grp.text()}")
        # the surgery complement: G x Z^2 with central circles l1, l2
        central = [[("l1", 1), ("l2", 1), ("l1", -1), ("l2", -1)]]
        for gen in grp.generators:
            for l in ("l1", "l2"):
                central.append([(l, 1), (gen, 1), (l, -1), (gen, -1)])
        lines.append(f"group {name}c = {grp.text(('l1', 'l2'), central)}")
        checks.append((f"abelianization {name} expect rank {grp.rank} "
                       f"torsion [{', '.join(map(str, grp.torsion))}]",
                       describe_abelian(grp.rank, grp.torsion)))
    lines.append(f"manifold M = dim 6; chi {chi}; spin spin{component_clause}")
    for g in range(2):
        lines.append(f"locus L{g + 1} on M = kind luttinger; complement G{g + 1}c; "
                     f"meridian 1; circle1 l1; circle2 l2; sigma_label T2")

    # multiplicity-one torsion surgery: pi1 = G1 x Z x Z_q
    q = rng.randint(2, 7)
    params = f"(1, {q}, 1, {q - 1})"
    checks.append((f"params {params} expect ok", "got ok"))
    lines.append(f"surgery N1 = luttinger M at L1 params {params}")
    g1 = groups[0]
    torsion1 = invariant_factors(g1.torsion_orders + [q])
    checks.append(("chi N1 expect %d" % chi, f"chi {chi}"))
    checks.append((f"components N1 expect {comps + 1}", f"{comps + 1} component(s)"))
    checks.append((f"abelianization N1 expect rank {g1.rank + 1} "
                   f"torsion [{', '.join(map(str, torsion1))}]",
                   describe_abelian(g1.rank + 1, torsion1)))
    # (0, 1, 1, 0) kills l2: pi1 = G2 x Z
    lines.append("surgery N2 = luttinger M at L2 params (0, 1, 1, 0)")
    g2 = groups[1]
    checks.append((f"abelianization N2 expect rank {g2.rank + 1} "
                   f"torsion [{', '.join(map(str, g2.torsion))}]",
                   describe_abelian(g2.rank + 1, g2.torsion)))

    # unbranched cover: chi and components scale by the degree
    k = rng.randint(2, 5)
    lines.append(f"cover C1 = N1 degree {k}")
    checks.append((f"chi C1 expect {k * chi}", f"chi {k * chi}"))
    checks.append((f"components C1 expect {k * (comps + 1)}",
                   f"{k * (comps + 1)} component(s)"))

    # branched cover: chi = d chi(M) - sum (t - 1) chi(branch component)
    d = rng.randint(3, 6)
    branch_clauses = []
    defect = 0
    for b in range(rng.randint(1, 3)):
        e = rng.randint(-2, 2) * 2
        idx = [rng.randint(2, 3)]
        if rng.random() < 0.5 and idx[0] + 2 <= d:
            idx.append(2)
        defect += sum(t - 1 for t in idx) * e
        branch_clauses.append(f"branch F{b + 1} chi {e} indices "
                              + " ".join(map(str, idx)))
    lines.append(f"branched-cover B = M degree {d}; " + "; ".join(branch_clauses))
    checks.append((f"chi B expect {d * chi - defect}", f"chi {d * chi - defect}"))
    checks.append((f"components B expect {d * comps}", f"{d * comps} component(s)"))

    # Riemann-Hurwitz: 2 - 2g' = d (2 - 2g) - sum (t - 1)
    for _ in range(2):
        g_base = rng.randint(0, 3)
        deg = rng.randint(2, 6)
        idx = [rng.randint(2, deg) for _ in range(rng.randint(1, 5))]
        while True:
            ramification = sum(t - 1 for t in idx)
            twice_g = ramification - deg * (2 - 2 * g_base) + 2
            if twice_g % 2 == 0 and twice_g // 2 >= g_base:
                break
            idx.append(2)
        g_cover = twice_g // 2
        indices = ", ".join(map(str, idx))
        checks.append((f"riemann-hurwitz gcover {g_cover} gbase {g_base} "
                       f"degree {deg} indices [{indices}] expect ok", "got ok"))
        checks.append((f"riemann-hurwitz gcover {g_cover + 1} gbase {g_base} "
                       f"degree {deg} indices [{indices}] expect reject",
                       "got reject"))

    for body, _ in checks:
        lines.append(f"check {body}")
    return Scenario(f"topology_{index}", "\n".join(lines) + "\n",
                    tuple(detail for _, detail in checks))


TOPOLOGY_SCENARIOS = 4


def topology(root: Path, seed: int) -> list[Scenario]:
    rng = random.Random(f"topology-{seed}")
    return [_topology_scenario(rng, i) for i in range(TOPOLOGY_SCENARIOS)]


WORKLOADS = {"corpus": corpus, "identities": identities, "topology": topology}
