"""Finitely presented groups: words, coset enumeration, abelian invariants.

Words are stored freely reduced (letters are (generator index, +1 or -1); no cyclic
reduction).  Coset enumeration is relator-driven with immediate coincidence
handling; numbering follows first definition, so results are reproducible.

``todd_coxeter`` traces each relator scan read-only first: an undefined entry
or a merged coset leads the trace into a shared all-undefined sentinel row,
where it stays at -1, so the trace returns to its coset exactly when the plain
scan closes, and only the other scans run the full scan-and-fill.  Tables,
counters (cosets defined, peak live) and refusals are those of the plain scan,
as the tests check against a reference copy of it.

Every presentation is held to ``RELATOR_LETTER_BUDGET`` relator letters
(``_check_letters``): ``parse_word`` and ``Presentation.from_json_dict``
count the letters of ``x^k`` tokens before building any, and ``induce``
counts its relators by arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import BudgetExceeded, CosetLimitExceeded, IncompleteTable, ParseError
from .perm import PermGroup, Permutation, _array, _gather, _object

DEFAULT_MAX_COSETS = 1 << 16
RELATOR_LETTER_BUDGET = 1 << 20


def _check_letters(letters: int, where: str = "") -> None:
    """Refuse more than ``RELATOR_LETTER_BUDGET`` relator letters, counted
    before any word is built; ``where`` says what brought the count there."""
    if letters > RELATOR_LETTER_BUDGET:
        raise BudgetExceeded(
            f"{letters} relator letters{where} exceed the budget of "
            f"{RELATOR_LETTER_BUDGET}",
            limit=RELATOR_LETTER_BUDGET,
        )


def _free_reduce(letters):
    out = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {e}")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """Freely reduced word in abstract generators."""

    letters: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, letters) -> "Word":
        return cls(_free_reduce(letters))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    def __mul__(self, other: "Word") -> "Word":
        return Word(_free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def exponent_vector(self, ngens: int) -> list[int]:
        vec = [0] * ngens
        for g, e in self.letters:
            vec[g] += e
        return vec


def _check_word(w: Word, ngens: int, what: str) -> None:
    """Refuse, with ``ValueError``, a letter that names no generator of
    ``ngens`` or has an exponent other than +1 or -1; ``what`` names the
    word's role (a relator or a subgroup word)."""
    for g, e in w.letters:
        if not 0 <= g < ngens:
            raise ValueError(f"{what} uses unknown generator {g}")
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {e}")


def _default_labels(ngens: int) -> tuple[str, ...]:
    if ngens <= 26:
        return tuple(chr(ord("a") + i) for i in range(ngens))
    return tuple(f"g{i}" for i in range(ngens))


@dataclass(frozen=True)
class Presentation:
    """Generator count plus relators, with printable generator labels.

    Each label reads back through ``parse_word``: a string, nonempty, with
    no whitespace and no ``^``, not ``1``, and distinct from the others; any
    other label is a ``ParseError`` naming ``generators[k]`` or the label.
    """

    ngens: int
    relators: tuple[Word, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", _default_labels(self.ngens))
        if len(self.labels) != self.ngens:
            raise ValueError("one label per generator required")
        seen = set()
        for k, label in enumerate(self.labels):
            if not isinstance(label, str):
                raise ParseError(f"generators[{k}] must be a string, got {label!r}")
            if label in ("", "1") or "^" in label or any(c.isspace() for c in label):
                raise ParseError(
                    f"generators[{k}]: label {label!r} cannot be read in a word")
            if label in seen:
                raise ParseError(f"generators: label {label!r} repeated")
            seen.add(label)
        for w in self.relators:
            _check_word(w, self.ngens, "relator")

    def format_word(self, w: Word) -> str:
        if not w.letters:
            return "1"
        parts = []
        for g, e in w.letters:
            parts.append(self.labels[g] if e == 1 else f"{self.labels[g]}^-1")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.labels),
            "relators": [self.format_word(w) for w in self.relators],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Presentation":
        """Presentation of a JSON object; its labels are checked before any
        relator is read, and its relators share one letter budget."""
        data = _object(data, "presentation")
        try:
            labels = tuple(_array(data["generators"], "generators"))
            raw = _array(data["relators"], "relators")
        except KeyError as exc:
            raise ParseError(f"presentation JSON missing field: {exc}") from None
        cls(len(labels), (), labels)  # checks the labels
        index = {label: k for k, label in enumerate(labels)}
        letters = 0
        terms = []
        for k, text in enumerate(raw):
            if not isinstance(text, str):
                raise ParseError(f"relators[{k}] must be a string, got {text!r}")
            word, letters = _read_word(text, index, letters)
            terms.append(word)
        return cls(len(labels), tuple(_spell(t) for t in terms), labels)

    @classmethod
    def from_json(cls, text: str) -> "Presentation":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(data)


def parse_word(text: str, labels) -> Word:
    """Parse ``a b a^-1``-style words; an uppercase label is its inverse.

    ``1`` (alone) denotes the empty word.  Tokens are whitespace-separated;
    ``x^-1``, ``x^1`` and bare ``x`` are accepted, as is ``X`` for ``x^-1``
    when the label is a single lowercase letter.  A word of more than
    ``RELATOR_LETTER_BUDGET`` letters is refused (``BudgetExceeded``, naming
    the token that passes it) before any letter is built.
    """
    return _spell(_read_word(text, {lab: i for i, lab in enumerate(labels)})[0])


def _read_word(text: str, index: dict, letters: int = 0) -> tuple:
    """The tokens of ``text`` as ``(generator, sign, power)`` terms, with
    ``index`` mapping each label to its generator, and the letter count
    ``letters`` plus theirs, checked against the budget at each token."""
    tokens = text.split()
    if tokens == ["1"]:
        return [], letters
    terms = []
    for tok in tokens:
        name, caret, exp = tok.partition("^")
        if not name:
            raise ParseError(f"bad token {tok!r}")
        try:
            k = int(exp) if caret else 1
        except ValueError:
            raise ParseError(f"bad exponent in {tok!r}") from None
        sign = 1
        if name not in index:
            if not (len(name) == 1 and name.isupper() and name.lower() in index):
                raise ParseError(f"unknown generator {name!r}")
            name, sign = name.lower(), -1
        if k < 0:
            sign, k = -sign, -k
        letters += k
        _check_letters(letters, f" at token {tok!r}")
        terms.append((index[name], sign, k))
    return terms, letters


def _spell(terms) -> Word:
    return Word.of([(g, sign) for g, sign, k in terms for _ in range(k)])


@dataclass(frozen=True)
class CosetTable:
    """Collapsed coset table; row 0 is the coset of the subgroup.

    ``table[i]`` has one entry per column, columns alternating g, g^-1 per
    generator.  An entry of -1 is undefined; ``todd_coxeter`` returns only
    tables with every entry filled and every relator scan closed.

    ``defined`` (every coset the enumeration defined, kept or merged away)
    and ``peak_live`` (the most cosets alive at once) say how much work the
    table took; they are 0 on a table not built by ``todd_coxeter`` and take
    no part in comparisons.
    """

    presentation: Presentation
    subgroup: tuple[Word, ...]
    table: tuple[tuple[int, ...], ...]
    defined: int = field(compare=False, default=0)
    peak_live: int = field(compare=False, default=0)

    @property
    def ncosets(self) -> int:
        return len(self.table)

    def scans_close(self) -> bool:
        """Re-scan every relator at every coset (a from-scratch audit)."""
        for row in range(len(self.table)):
            for rel in self.presentation.relators:
                c = row
                for g, e in rel.letters:
                    c = self.table[c][2 * g + (0 if e == 1 else 1)]
                if c != row:
                    return False
        return True


def todd_coxeter(
    presentation: Presentation,
    subgroup_words=(),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgroup_words``.

    Relator-driven strategy: subgroup generator words are scanned at coset 0,
    then every live coset is scanned against every relator (filling in and
    defining cosets as needed) and finally has any remaining entries defined.
    Coincidences are processed immediately with a union-find merge.  Raises
    ``CosetLimitExceeded`` when more than ``max_cosets`` cosets would be
    defined in total, and ``ValueError`` when ``max_cosets`` is below 1 or
    a subgroup word has a letter that a relator could not have.

    Most relator scans at a live coset close without changing the table, so
    each is first traced with no check per letter: ``rows[-1]`` and every
    merged coset's row are one all-undefined sentinel row, and an undefined
    entry or a merged coset leads the trace there, to stay at -1.  So a trace
    ends where it began exactly when the plain scan closes, writing nothing;
    every other scan runs the full scan-and-fill from the same coset, and the
    cosets are defined and merged in the same order as by the plain scan.
    """
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be at least 1, got {max_cosets}")
    for w in subgroup_words:
        _check_word(w, presentation.ngens, "subgroup word")
    ncols = 2 * presentation.ngens

    def columns(words):
        # an empty word scans closed everywhere, so it is dropped
        return [
            tuple(2 * g + (0 if e == 1 else 1) for g, e in w.letters)
            for w in words
            if w.letters
        ]

    rel_cols = columns(presentation.relators)
    sub_cols = columns(subgroup_words)

    # a coset x is live exactly when parent[x] == x; rows[-1] and every dead
    # row are the one sentinel row, which a write would refuse
    sentinel = (-1,) * ncols
    rows = [[-1] * ncols, sentinel]
    parent = [0]
    merged = 0
    peak_live = 1

    def rep(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def new_coset():
        nonlocal peak_live
        n = len(parent)  # every coset defined so far, live or not
        if n >= max_cosets:
            raise CosetLimitExceeded(
                f"needed more than {max_cosets} cosets", limit=max_cosets
            )
        rows.insert(-1, [-1] * ncols)
        parent.append(n)
        if n + 1 - merged > peak_live:
            peak_live = n + 1 - merged
        return n

    def merge(a, b):
        # union by smaller representative, then transfer the dead row,
        # queueing any induced coincidences
        nonlocal merged
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = rep(x), rep(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            merged += 1
            dead = rows[y]
            kept = rows[x]
            for col in range(ncols):
                d = dead[col]
                if d == -1:
                    continue
                if parent[d] != d:
                    d = rep(d)
                back = rows[d]
                if back[col ^ 1] == y:
                    back[col ^ 1] = -1
                e = kept[col]
                if e != -1 and parent[e] != e:
                    e = rep(e)
                if e == -1 or e == d:
                    kept[col] = d
                    back[col ^ 1] = x
                else:
                    queue.append((e, d))
            rows[y] = sentinel

    def scan_and_fill(start, cols):
        while True:
            if parent[start] != start:
                start = rep(start)
            # forward
            f = start
            for fi, col in enumerate(cols):
                nxt = rows[f][col]
                if nxt == -1:
                    break
                f = nxt if parent[nxt] == nxt else rep(nxt)
            else:
                if f != start:
                    merge(f, start)
                return
            # backward
            b = start
            bi = len(cols)
            while bi > fi:
                prv = rows[b][cols[bi - 1] ^ 1]
                if prv == -1:
                    break
                b = prv if parent[prv] == prv else rep(prv)
                bi -= 1
            if bi == fi:
                merge(f, b)
                return
            col = cols[fi]
            if bi == fi + 1:
                rows[f][col] = b
                rows[b][col ^ 1] = f
                return
            n = new_coset()
            rows[f][col] = n
            rows[n][col ^ 1] = f

    for cols in sub_cols:
        scan_and_fill(0, cols)
    current = 0
    while current < len(parent):
        if parent[current] == current:
            for cols in rel_cols:
                f = current
                for col in cols:
                    f = rows[f][col]
                if f == current:
                    continue
                scan_and_fill(current, cols)
                if parent[current] != current:
                    break
            else:
                row = rows[current]
                for col in range(ncols):
                    if row[col] == -1:
                        n = new_coset()
                        row[col] = n
                        rows[n][col ^ 1] = current
        current += 1

    # each defined coset's live number: a merged coset points at a smaller
    # one (union by smaller representative), numbered before it
    live = []
    number = []
    for i, p in enumerate(parent):
        if p == i:
            if -1 in rows[i]:
                raise AssertionError("enumeration left an undefined entry")
            number.append(len(live))
            live.append(i)
        else:
            number.append(number[p])
    table = tuple(_gather(rows[i], number) for i in live)
    return CosetTable(
        presentation=presentation,
        subgroup=tuple(subgroup_words),
        table=table,
        defined=len(parent),
        peak_live=peak_live,
    )


def _coset_action(ct: CosetTable) -> tuple[Permutation, ...]:
    """Each presentation generator's permutation of the cosets, checked.

    Raises ``IncompleteTable`` on a table with an undefined entry; every
    permutation goes through ``Permutation``'s bijection check.
    """
    if any(-1 in row for row in ct.table):
        raise IncompleteTable("cannot read permutations off a partial table")
    return tuple(
        Permutation(tuple(row[2 * g] + 1 for row in ct.table))
        for g in range(ct.presentation.ngens)
    )


def perm_rep(ct: CosetTable) -> tuple[PermGroup, tuple[Permutation, ...]]:
    """Permutation action on cosets; one permutation per presentation generator.

    Over the trivial subgroup this is the regular representation, so the group
    of the returned permutations is the presented group itself.
    """
    perms = _coset_action(ct)
    return PermGroup(ct.ncosets, perms), perms


# ---------------------------------------------------------------------------
# integer normal forms


def smith_normal_form(matrix) -> list[int]:
    """Diagonal d1 | d2 | ... of an integer matrix, nonnegative, zeros last.

    Returns min(rows, cols) entries.  Exact over Python integers, so there is
    no overflow to detect.
    """
    A = [list(map(int, row)) for row in matrix]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if rows and any(len(r) != cols for r in A):
        raise ValueError("ragged matrix")
    n = min(rows, cols)
    result = []
    t = 0
    while t < n:
        # pivot: entry of least absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            result.extend([0] * (n - t))
            return result
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
        d = A[t][t]
        dirty = False
        for i in range(t + 1, rows):
            q, r = divmod(A[i][t], d)
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[t])]
            if r:
                dirty = True
        for j in range(t + 1, cols):
            q, r = divmod(A[t][j], d)
            if q:
                for row in A:
                    row[j] -= q * row[t]
            if r:
                dirty = True
        if dirty:
            continue
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            # fold the offending row in so the next pivot divides it
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            continue
        result.append(d)
        t += 1
    return result


def abelianization(presentation: Presentation) -> list[int]:
    """Invariant factors of the abelianized presentation, zeros for free rank.

    Trivial factors are dropped: a perfect relator matrix of full rank gives
    ``[]``, and k generators with no relators give ``[0] * k``.
    """
    g = presentation.ngens
    mat = [w.exponent_vector(g) for w in presentation.relators]
    if not mat:
        return [0] * g
    diag = smith_normal_form(mat)
    rank = sum(1 for d in diag if d)
    factors = [d for d in diag if d > 1]
    return factors + [0] * (g - rank)
