"""Finitely presented groups: free products, normal-closure quotients,
bounded Tietze simplification, and abelianization via Smith normal form."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import eq, itemgetter
from typing import Iterable, Iterator, Sequence

Word = tuple[tuple[str, int], ...]


class GroupError(ValueError):
    """Malformed word or presentation."""


# A relator body is read run by run: ``_DELIMITERS`` splits it at brackets
# and commas, and each run is cut at ``*`` into factors.  Most factors are one
# ``name`` or ``name^int``; ``_FACTOR_TOKEN`` reads any other factor a token at
# a time: a name with an optional ``^`` and exponent (a ``^`` without one is
# kept for the reader to reject), or an integer or other character, which the
# reader skips (``1``) or rejects.
_DELIMITERS = re.compile(r"([\[\],])")
_FACTOR_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9]*)(?:\s*(\^)\s*(-?\d+)?)?|(-?\d+|\S))")
# the optional exponent of a commutator, at the start of the run after its ']'
_CARET = re.compile(r"(?:\s*(\^)\s*(-?\d+)?)?")


def parse_word(text: str) -> Word:
    r"""Parse a free-group word: ``x*y^-2``, ``[x,y]`` (commutator), ``1``,
    freely reduced.

    The text is split once at ``[``, ``]`` and ``,``, each run between them
    is cut at ``*``, and each distinct factor is read once.  Names are ASCII
    (``[A-Za-z_][A-Za-z_0-9]*``) and exponent digits are decimal digits, as
    ``\d`` matches them."""
    out, _ = _parse_word_seq(iter(_DELIMITERS.split(text)))
    return tuple(out)


def parse_relators(text: str) -> tuple[Word, ...]:
    """Parse a comma-separated relator list, one freely reduced word per
    top-level segment, read as ``parse_word`` reads one word.  Commas inside
    a commutator ``[..]`` do not split; an empty segment gives the empty
    word."""
    parts = iter(_DELIMITERS.split(text))
    words = []
    while True:
        out, end = _parse_word_seq(parts, ",")
        words.append(tuple(out))
        if end is None:
            return tuple(words)


def _exponent(caret: str | None, digits: str | None) -> int:
    """The exponent of a letter or commutator: 1 without ``^``."""
    if digits:
        return int(digits)
    if caret:
        raise GroupError("'^' needs an integer exponent")
    return 1


def _read_factor(factor: str) -> Sequence[tuple[str, int]]:
    """The freely reduced letters of one ``*``-separated factor."""
    name, caret, digits = factor.partition("^")
    name = name.strip()
    if name.isascii() and name.isidentifier():
        if not caret:
            return ((name, 1),)
        digits = digits.strip()
        if (digits[1:] if digits[:1] == "-" else digits).isdecimal():
            e = int(digits)
            return ((name, e),) if e else ()
    letters = []
    for name, caret, digits, other in _FACTOR_TOKEN.findall(factor):
        if name:
            letters.append((name, _exponent(caret, digits)))
        elif other != "1":
            raise GroupError(f"unexpected token {other!r} in word")
    return free_reduce(letters)


def _read_run(run: str) -> Sequence[tuple[str, int]]:
    """The freely reduced letters of a run between brackets and commas.
    Each distinct factor is read once, in the order of first occurrence,
    so the first bad token in the text is the one reported."""
    factors = run.split("*")
    table = dict.fromkeys(factors)
    for factor in table:
        table[factor] = _read_factor(factor)
    if len(factors) == 1:
        return table[run]
    if all(len(letters) == 1 for letters in table.values()):
        # the common case, where each factor is one letter
        letters = list(map({f: letter for f, (letter,) in table.items()}.__getitem__, factors))
    else:
        letters = list(chain.from_iterable(map(table.__getitem__, factors)))
    names = list(map(itemgetter(0), letters))
    # each factor is reduced, so only letters where two factors meet can merge
    return free_reduce(letters) if any(map(eq, names, names[1:])) else letters


def _parse_word_seq(parts: Iterator[str], stop: str | None = None):
    """Read runs and delimiters up to ``stop`` onto a freely reduced stack.
    Return the stack and the stop, or None at the end."""
    out: list[tuple[str, int]] = []
    run = next(parts)
    while True:
        if run:
            _join(out, _read_run(run))
        delimiter = next(parts, None)
        if delimiter == stop or delimiter is None:
            return out, delimiter
        if delimiter != "[":
            raise GroupError(f"unexpected token {delimiter!r} in word")
        a, end = _parse_word_seq(parts, ",")
        if end is None:
            raise GroupError("expected ',' in commutator")
        b, end = _parse_word_seq(parts, "]")
        if end is None:
            raise GroupError("expected ']' in commutator")
        run = next(parts)
        caret = _CARET.match(run)
        e = _exponent(caret[1], caret[2])
        run = run[caret.end():]
        # [a,b]^-1 = [b,a]; each piece is reduced, so joins suffice
        a_inv, b_inv = invert_word(a), invert_word(b)
        pieces = (a, b, a_inv, b_inv) if e > 0 else (b, a, b_inv, a_inv)
        for _ in range(abs(e)):
            for piece in pieces:
                _join(out, piece)


def _pow_word(word: Word, exp: int) -> list[tuple[str, int]]:
    return list(word if exp > 0 else invert_word(word)) * abs(exp)


def _join(out: list, piece: Sequence[tuple[str, int]]) -> None:
    """Append the freely reduced ``piece`` to the freely reduced ``out``,
    cancelling only where the two meet."""
    k, n = 0, len(piece)
    while k < n and out and out[-1][0] == piece[k][0]:
        e = out.pop()[1] + piece[k][1]
        k += 1
        if e:
            # the merged letter's neighbours on both sides differ from it
            out.append((piece[k - 1][0], e))
            break
    out.extend(piece[k:])


def free_reduce(word: Iterable[tuple[str, int]]) -> Word:
    """Freely reduce in one stack pass; neighbours of the result differ."""
    out: list[tuple[str, int]] = []
    for gen, exp in word:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
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
        if not declared.issuperset(map(itemgetter(0), word)):
            g = next(g for g, _ in word if g not in declared)
            raise GroupError(f"relator uses undeclared generator {g!r}")
        if word:
            out.append(word)
    return tuple(out)


def _reduced(word) -> Word:
    """A word given as a string, parsed, or as letters, freely reduced."""
    return parse_word(word) if isinstance(word, str) else free_reduce(word)


def invert_word(word: Word) -> Word:
    return tuple([(g, -e) for g, e in reversed(word)])


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
    return "*".join([g if e == 1 else f"{g}^{e}" for g, e in word]) or "1"


def substitute(word: Word, gen: str, repl: Word, inverse: Word | None = None) -> Word:
    """Replace each ``gen^e`` of the freely reduced ``word`` by ``repl^e``
    (``inverse`` is ``invert_word(repl)`` when the caller has it).  The
    stretches between occurrences and the copies of ``repl`` are copied
    whole and cancel only where two meet: free reduction is confluent."""
    if inverse is None:
        inverse = invert_word(repl)
    names = list(map(itemgetter(0), word))
    out: list[tuple[str, int]] = []
    start = 0
    for _ in range(names.count(gen)):
        k = names.index(gen, start)
        _join(out, word[start:k])
        e = word[k][1]
        piece = repl if e > 0 else inverse
        for _ in range(abs(e)):
            _join(out, piece)
        start = k + 1
    _join(out, word[start:])
    return tuple(out)


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

    Relators are freely reduced already, so each is only trimmed cyclically.
    Each carries its generator counts, made again only when a substitution
    rewrites it; the search for a defining relator skips one where no
    generator occurs once.  A relator is compared only with kept ones of
    its length and end letters, and inverted only when one has its inverse's.
    """
    gens = list(g.generators)
    rels = [(r, Counter(map(itemgetter(0), r))) for r in map(_trim_cycle, g.relators)]
    for _ in range(30):
        changed = False
        # dedupe (up to inversion)
        kept: dict[tuple, list[Word]] = {}
        unique = []
        for r, counts in rels:
            if not r:
                continue
            key = (len(r), r[0], r[-1])
            twins = kept.get((len(r), (r[-1][0], -r[-1][1]), (r[0][0], -r[0][1])))
            if r in kept.get(key, ()) or (twins and invert_word(r) in twins):
                changed = True
                continue
            kept.setdefault(key, []).append(r)
            unique.append((r, counts))
        rels = unique
        # generator elimination: the first relator with a unique +-1
        # occurrence, at its first such position
        elim = next(((ri, pos, gen, e)
                     for ri, (rel, counts) in enumerate(rels) if 1 in counts.values()
                     for pos, (gen, e) in enumerate(rel)
                     if (e == 1 or e == -1) and counts[gen] == 1), None)
        if elim:
            ri, pos, gen, e = elim
            rel, _ = rels.pop(ri)
            # rel = prefix * gen^e * suffix = 1  =>  gen^e = (suffix * prefix)^-1;
            # rel is cyclically reduced, so suffix * prefix is reduced
            rest = rel[pos + 1:] + rel[:pos]
            repl, inverse = (invert_word(rest), rest) if e == 1 else (rest, invert_word(rest))
            for i, (r, counts) in enumerate(rels):
                if gen in counts:
                    r = _trim_cycle(substitute(r, gen, repl, inverse))
                    rels[i] = (r, Counter(map(itemgetter(0), r)))
            gens.remove(gen)
            changed = True
        if not changed:
            break
    rels = sorted({r for r, _ in rels if r})
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
    matrix = exponent_matrix(g) if g.generators else []
    diag = smith_normal_form(matrix) if matrix else []  # its entries are nonzero
    return AbelianInvariants(len(g.generators) - len(diag), tuple(x for x in sorted(diag) if x > 1))
