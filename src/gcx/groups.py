"""Finitely presented groups: free products, normal-closure quotients,
bounded Tietze simplification, and abelianization via Smith normal form."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

Word = tuple[tuple[str, int], ...]


class GroupError(ValueError):
    """Malformed word or presentation."""


_TOKEN = re.compile(r"\s*(\[|\]|,|\*|\^|-?\d+|[A-Za-z_][A-Za-z_0-9]*)")


def parse_word(text: str) -> Word:
    """Parse a free-group word: ``x*y^-2``, ``[x,y]`` (commutator), ``1``."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise GroupError(f"bad word syntax at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    out, _ = _parse_word_seq(tokens, 0)
    return free_reduce(out)


def _parse_word_seq(tokens: list[str], i: int, stop: set[str] = frozenset()) -> tuple[list, int]:
    out: list[tuple[str, int]] = []
    while i < len(tokens) and tokens[i] not in stop:
        tok = tokens[i]
        if tok == "*":
            i += 1
            continue
        if tok == "[":
            a, i = _parse_word_seq(tokens, i + 1, {","})
            if i >= len(tokens) or tokens[i] != ",":
                raise GroupError("expected ',' in commutator")
            b, i = _parse_word_seq(tokens, i + 1, {"]"})
            if i >= len(tokens) or tokens[i] != "]":
                raise GroupError("expected ']' in commutator")
            i += 1
            word = a + b + list(invert_word(tuple(a))) + list(invert_word(tuple(b)))
            exp = 1
            if i < len(tokens) and tokens[i] == "^":
                exp = int(tokens[i + 1])
                i += 2
            out.extend(_pow_word(word, exp))
            continue
        if tok == "1":
            i += 1
            continue
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            gen = tok
            exp = 1
            i += 1
            if i < len(tokens) and tokens[i] == "^":
                exp = int(tokens[i + 1])
                i += 2
            out.append((gen, exp))
            continue
        raise GroupError(f"unexpected token {tok!r} in word")
    return out, i


def _pow_word(word: Sequence[tuple[str, int]], exp: int) -> list[tuple[str, int]]:
    if exp == 0:
        return []
    base = list(word) if exp > 0 else list(invert_word(tuple(word)))
    return base * abs(exp)


def free_reduce(word: Iterable[tuple[str, int]]) -> Word:
    out: list[tuple[str, int]] = []
    for gen, exp in word:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    # repeat until stable (merges can cascade)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(out):
            if out[i][0] == out[i + 1][0]:
                merged = out[i][1] + out[i + 1][1]
                out[i: i + 2] = [(out[i][0], merged)] if merged else []
                changed = True
            else:
                i += 1
    return tuple(out)


def invert_word(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


def cyclic_reduce(word: Word) -> Word:
    word = free_reduce(word)
    while len(word) >= 2 and word[0][0] == word[-1][0]:
        g = word[0][0]
        e = word[0][1] + word[-1][1]
        middle = word[1:-1]
        word = free_reduce(((g, e),) + middle) if e else free_reduce(middle)
    return word


def word_str(word: Word) -> str:
    if not word:
        return "1"
    bits = []
    for g, e in word:
        bits.append(g if e == 1 else f"{g}^{e}")
    return "*".join(bits)


def substitute(word: Word, gen: str, repl: Word) -> Word:
    out: list[tuple[str, int]] = []
    for g, e in word:
        if g == gen:
            out.extend(_pow_word(repl, e))
        else:
            out.append((g, e))
    return free_reduce(out)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators and relators of a finitely presented group."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    @staticmethod
    def make(generators: Iterable[str], relators: Iterable = ()) -> "GroupPresentation":
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise GroupError("duplicate generator names")
        rels = []
        for r in relators:
            word = parse_word(r) if isinstance(r, str) else free_reduce(r)
            for g, _ in word:
                if g not in gens:
                    raise GroupError(f"relator uses undeclared generator {g!r}")
            if word:
                rels.append(word)
        return GroupPresentation(gens, tuple(rels))

    @staticmethod
    def trivial() -> "GroupPresentation":
        return GroupPresentation((), ())

    @staticmethod
    def free(*names: str) -> "GroupPresentation":
        return GroupPresentation.make(names)

    @staticmethod
    def free_abelian(*names: str) -> "GroupPresentation":
        rels = []
        names = tuple(names)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                rels.append(f"[{names[i]},{names[j]}]")
        return GroupPresentation.make(names, rels)

    @staticmethod
    def cyclic(name: str, order: int) -> "GroupPresentation":
        return GroupPresentation.make([name], [f"{name}^{order}"])

    def describe(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(word_str(r) for r in self.relators)
        return f"< {gens} | {rels} >"


def free_product(g: GroupPresentation, h: GroupPresentation) -> GroupPresentation:
    """Free product; colliding generator names on the right are renamed."""
    rename: dict[str, str] = {}
    taken = set(g.generators)
    new_h_gens = []
    for name in h.generators:
        fresh = name
        while fresh in taken:
            fresh = fresh + "_"
        if fresh != name:
            rename[name] = fresh
        taken.add(fresh)
        new_h_gens.append(fresh)
    h_rels = tuple(
        tuple((rename.get(gen, gen), e) for gen, e in rel) for rel in h.relators
    )
    return GroupPresentation(g.generators + tuple(new_h_gens), g.relators + h_rels)


def quotient_normal_closure(g: GroupPresentation, words: Iterable,
                            simplify: bool = True) -> GroupPresentation:
    """Quotient by the normal closure of the given words."""
    extra = []
    for w in words:
        word = parse_word(w) if isinstance(w, str) else free_reduce(w)
        for gen, _ in word:
            if gen not in g.generators:
                raise GroupError(f"word uses undeclared generator {gen!r}")
        extra.append(word)
    out = GroupPresentation(g.generators, g.relators + tuple(extra))
    return tietze_simplify(out) if simplify else out


def tietze_simplify(g: GroupPresentation, max_passes: int = 30) -> GroupPresentation:
    """Bounded Tietze simplification.

    Removes trivial relators, eliminates generators that some relator
    defines in terms of the others, and deduplicates; stops after a
    bounded number of passes.
    """
    gens = list(g.generators)
    rels = [cyclic_reduce(r) for r in g.relators]
    for _ in range(max_passes):
        changed = False
        rels = [r for r in rels if r]
        # dedupe (up to inversion)
        seen: set[Word] = set()
        unique = []
        for r in rels:
            if r in seen or invert_word(r) in seen:
                changed = True
                continue
            seen.add(r)
            unique.append(r)
        rels = unique
        # generator elimination: find a relator with a unique +-1 occurrence
        elim = None
        for ri, rel in enumerate(rels):
            counts: dict[str, int] = {}
            for gen, e in rel:
                counts[gen] = counts.get(gen, 0) + abs(e)
            for pos, (gen, e) in enumerate(rel):
                if counts[gen] == 1 and abs(e) == 1:
                    elim = (ri, pos, gen, e)
                    break
            if elim:
                break
        if elim:
            ri, pos, gen, e = elim
            rel = rels[ri]
            # rel = prefix * gen^e * suffix = 1  =>  gen^e = prefix^-1 suffix^-1
            prefix, suffix = rel[:pos], rel[pos + 1:]
            repl = free_reduce(invert_word(prefix) + invert_word(suffix))
            if e == -1:
                repl = invert_word(repl)
            rels = [
                cyclic_reduce(substitute(r, gen, repl))
                for i, r in enumerate(rels)
                if i != ri
            ]
            gens.remove(gen)
            changed = True
        if not changed:
            break
    rels = sorted({r for r in rels if r})
    return GroupPresentation(tuple(gens), tuple(rels))


# ---------------------------------------------------------------------------
# Smith normal form and abelianization
# ---------------------------------------------------------------------------


def exponent_matrix(g: GroupPresentation) -> list[list[int]]:
    """Relator exponent sums, one row per relator."""
    rows = []
    for rel in g.relators:
        row = [0] * len(g.generators)
        for gen, e in rel:
            row[g.generators.index(gen)] += e
        rows.append(row)
    return rows


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal invariant factors d1 | d2 | ... of an integer matrix.

    Each sweep moves the smallest nonzero |entry| of the remaining
    submatrix to the pivot and reduces its row and column by it; any
    remainder is smaller still and becomes the next pivot, so entries
    stay bounded by the input's.  A cleared pivot that fails to divide
    some remaining entry takes that entry's row, and the sweeps go on.
    """
    a = [list(map(int, row)) for row in matrix]
    if not a or not a[0]:
        return []
    rows, cols = len(a), len(a[0])
    diag: list[int] = []
    for top in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(top, rows):
                for j in range(top, cols):
                    if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                return diag
            i, j = pivot
            a[top], a[i] = a[i], a[top]
            for row in a:
                row[top], row[j] = row[j], row[top]
            p = a[top][top]
            for i in range(top + 1, rows):
                q = a[i][top] // p
                if q:
                    for j in range(top, cols):
                        a[i][j] -= q * a[top][j]
            for j in range(top + 1, cols):
                q = a[top][j] // p
                if q:
                    for i in range(top, rows):
                        a[i][j] -= q * a[i][top]
            if any(a[i][top] for i in range(top + 1, rows)) or any(a[top][j] for j in range(top + 1, cols)):
                continue
            rest = next((i for i in range(top + 1, rows)
                         if any(a[i][j] % p for j in range(top + 1, cols))), None)
            if rest is None:
                break
            a[top] = [x + y for x, y in zip(a[top], a[rest])]
        diag.append(abs(a[top][top]))
    return diag


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors of the abelianization: free rank plus torsion."""

    rank: int
    torsion: tuple[int, ...]

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z_{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def abelianization(g: GroupPresentation) -> AbelianInvariants:
    n = len(g.generators)
    if n == 0:
        return AbelianInvariants(0, ())
    matrix = exponent_matrix(g)
    if not matrix:
        return AbelianInvariants(n, ())
    diag = smith_normal_form(matrix)
    nonzero = [x for x in diag if x != 0]
    rank = n - len(nonzero)
    torsion = tuple(x for x in sorted(nonzero) if x > 1)
    return AbelianInvariants(rank, torsion)
