"""Finitely presented groups: free products, normal-closure quotients,
bounded Tietze simplification, and abelianization via Smith normal form."""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

Word = tuple[tuple[str, int], ...]


class GroupError(ValueError):
    """Malformed word or presentation."""


# one scanner for words and relator lists; any other non-space character
# becomes a one-character token that the parser rejects
_TOKEN = re.compile(r"\s*(\[|\]|,|\*|\^|-?\d+|[A-Za-z_][A-Za-z_0-9]*|\S)")
_NAME_START = frozenset(string.ascii_letters + "_")
_COMMA = frozenset({","})
_CLOSE = frozenset({"]"})


def parse_word(text: str) -> Word:
    """Parse a free-group word: ``x*y^-2``, ``[x,y]`` (commutator), ``1``."""
    out, _ = _parse_word_seq(_TOKEN.findall(text), 0)
    return free_reduce(out)


def parse_relators(text: str) -> tuple[Word, ...]:
    """Parse a comma-separated relator list, one word per top-level segment.

    Commas inside a commutator ``[..]`` do not split; an empty segment
    gives the empty word.
    """
    tokens = _TOKEN.findall(text)
    words = []
    i = 0
    while True:
        out, i = _parse_word_seq(tokens, i, _COMMA)
        words.append(free_reduce(out))
        if i >= len(tokens):
            return tuple(words)
        i += 1  # the comma


def _exponent(tokens: list[str], i: int) -> int:
    """The integer after the ``^`` at ``i``."""
    try:
        return int(tokens[i + 1])
    except (IndexError, ValueError):
        raise GroupError("'^' needs an integer exponent") from None


def _parse_word_seq(tokens: list[str], i: int, stop: frozenset = frozenset()) -> tuple[list, int]:
    out: list[tuple[str, int]] = []
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok in stop:
            break
        if tok == "*" or tok == "1":
            i += 1
        elif tok == "[":
            a, i = _parse_word_seq(tokens, i + 1, _COMMA)
            if i >= n or tokens[i] != ",":
                raise GroupError("expected ',' in commutator")
            b, i = _parse_word_seq(tokens, i + 1, _CLOSE)
            if i >= n:
                raise GroupError("expected ']' in commutator")
            a, b = tuple(a), tuple(b)
            comm = a + b + invert_word(a) + invert_word(b)
            i += 1
            if i < n and tokens[i] == "^":
                comm = _pow_word(comm, _exponent(tokens, i))
                i += 2
            out.extend(comm)
        elif tok[0] in _NAME_START:
            i += 1
            if i < n and tokens[i] == "^":
                out.append((tok, _exponent(tokens, i)))
                i += 2
            else:
                out.append((tok, 1))
        else:
            raise GroupError(f"unexpected token {tok!r} in word")
    return out, i


def _pow_word(word: Sequence[tuple[str, int]], exp: int) -> list[tuple[str, int]]:
    if exp == 0:
        return []
    base = list(word) if exp > 0 else list(invert_word(tuple(word)))
    return base * abs(exp)


def free_reduce(word: Iterable[tuple[str, int]]) -> Word:
    """Freely reduce in one stack pass; neighbours of the result differ."""
    out: list[tuple[str, int]] = []
    for gen, exp in word:
        if not exp:
            continue
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
            if not exp:
                continue
        out.append((gen, exp))
    return tuple(out)


def checked_words(generators: Sequence[str], words: Iterable[Word]) -> tuple[Word, ...]:
    """The nonempty words, once the generators are known to be distinct and
    every letter to be one of them.  The words are taken as given, so they
    must be freely reduced already."""
    declared = set(generators)
    if len(declared) != len(generators):
        raise GroupError("duplicate generator names")
    out = []
    for word in words:
        for g, _ in word:
            if g not in declared:
                raise GroupError(f"relator uses undeclared generator {g!r}")
        if word:
            out.append(word)
    return tuple(out)


def _reduced(word) -> Word:
    """A word given as a string, parsed, or as letters, freely reduced."""
    return parse_word(word) if isinstance(word, str) else free_reduce(word)


def invert_word(word: Word) -> Word:
    return tuple([(g, -e) for g, e in reversed(word)])


def cyclic_reduce(word: Word) -> Word:
    """Freely reduce, then trim letters that cancel around the cycle."""
    return _trim_cycle(free_reduce(word))


def _trim_cycle(word: Word) -> Word:
    """Cyclically reduce a freely reduced word from both ends."""
    i, j = 0, len(word) - 1
    while i < j and word[i][0] == word[j][0]:
        e = word[i][1] + word[j][1]
        if e:
            # the merged letter goes in front; its new neighbours differ
            return ((word[i][0], e),) + word[i + 1:j]
        i += 1
        j -= 1
    return word[i:j + 1]


def word_str(word: Word) -> str:
    if not word:
        return "1"
    bits = []
    for g, e in word:
        bits.append(g if e == 1 else f"{g}^{e}")
    return "*".join(bits)


def substitute(word: Word, gen: str, repl: Word) -> Word:
    inverse = invert_word(repl)
    out: list[tuple[str, int]] = []
    for g, e in word:
        if g != gen:
            out.append((g, e))
        elif e > 0:
            out.extend(repl * e)
        else:
            out.extend(inverse * -e)
    return free_reduce(out)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators and relators of a finitely presented group."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    @staticmethod
    def make(generators: Iterable[str], relators: Iterable = ()) -> "GroupPresentation":
        """Relators are strings to parse or letter sequences to reduce;
        empty words are dropped."""
        gens = tuple(generators)
        return GroupPresentation(gens, checked_words(gens, map(_reduced, relators)))

    @staticmethod
    def free(*names: str) -> "GroupPresentation":
        return GroupPresentation.make(names)

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


def quotient_normal_closure(g: GroupPresentation, words: Iterable) -> GroupPresentation:
    """Quotient by the normal closure of the given words, Tietze-simplified."""
    extra = checked_words(g.generators, map(_reduced, words))
    return tietze_simplify(GroupPresentation(g.generators, g.relators + extra))


def tietze_simplify(g: GroupPresentation) -> GroupPresentation:
    """Bounded Tietze simplification.

    Removes trivial relators, eliminates generators that some relator
    defines in terms of the others, and deduplicates, for at most 30 passes.
    """
    gens = list(g.generators)
    rels = [cyclic_reduce(r) for r in g.relators]
    for _ in range(30):
        changed = False
        rels = [r for r in rels if r]
        # dedupe (up to inversion)
        seen: set[Word] = set()
        lengths: set[int] = set()
        unique = []
        for r in rels:
            if r in seen or (len(r) in lengths and invert_word(r) in seen):
                changed = True
                continue
            seen.add(r)
            lengths.add(len(r))
            unique.append(r)
        rels = unique
        # generator elimination: find a relator with a unique +-1 occurrence
        elim = None
        for ri, rel in enumerate(rels):
            occurrences = Counter(map(itemgetter(0), rel))
            for pos, (gen, e) in enumerate(rel):
                if (e == 1 or e == -1) and occurrences[gen] == 1:
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
            # a relator without gen is cyclically reduced already
            rels = [
                _trim_cycle(substitute(r, gen, repl))
                if gen in map(itemgetter(0), r) else r
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
    column = {gen: j for j, gen in enumerate(g.generators)}
    rows = []
    for rel in g.relators:
        row = [0] * len(g.generators)
        for gen, e in rel:
            row[column[gen]] += e
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
