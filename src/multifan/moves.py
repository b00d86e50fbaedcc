"""
Commutation, doubling (0-Hecke) and braid moves on words, and the move
traces that ray construction replays.

A move is its kind and its position, and ``carry`` is the one rule that
moves anything kept per position through it: a doubling at r inserts the
new letter's entry at r+1, a commutation exchanges r and r+1, a braid
exchanges r and r+2.  Letters and rays both follow that rule.

A fattening sequence turns a staircase factor w0(c) into w0(c) followed by
the reversed c, by doubling every letter s_1 of the staircase and then
performing n(n-1)/2 braid moves, interlaced with commutations.  The trace
records every move at its exact position, so that ray construction can
replay it without re-deriving anything; ``commutation_trace`` records the
commutations between two commutation-equivalent words the same way.

Each braid of a fattening also names the grid cell (i, j) of the rank n-1
staircase (``words.staircase_cells``) that weights it: the k-th braid of
the insertion of s_l is made at cell (n + 1 - l, k).
"""

from __future__ import annotations

from typing import NamedTuple

from .words import Word, c_sorted_word, contains_longest, format_word, staircase_cells

__all__ = [
    "MoveEvent",
    "MoveTrace",
    "apply_move",
    "carry",
    "classify_braid",
    "commutation_trace",
    "fattening_sequence",
    "format_trace",
]


class MoveEvent(NamedTuple):
    """kind 'C' (commutation), 'D' (double), 'B' (braid); r is the 1-based
    position where the move applies; a fattening's braid names its grid
    cell (i, j), every other move None."""

    kind: str
    r: int
    cell: tuple[int, int] | None = None

    def __str__(self) -> str:
        return f"{self.kind} {self.r}"


class MoveTrace(NamedTuple):
    """words[0] is the initial word; events[s] transforms words[s] into
    words[s+1] (as ``apply_move`` does)."""

    words: tuple[Word, ...]
    events: tuple[MoveEvent, ...]

    @property
    def initial(self) -> Word:
        return self.words[0]

    @property
    def final(self) -> Word:
        return self.words[-1]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)


def carry(seq: list, event: MoveEvent, copy) -> None:
    """Move the per-position list ``seq`` through ``event`` in place: a
    doubling at r inserts ``copy`` for the new letter at r+1, a commutation
    exchanges r and r+1, a braid exchanges r and r+2.

    >>> seq = ["a", "b", "c"]
    >>> carry(seq, MoveEvent("B", 1), None); seq
    ['c', 'b', 'a']
    >>> carry(seq, MoveEvent("D", 2), "b'"); seq
    ['c', 'b', "b'", 'a']
    """
    r = event.r
    if event.kind == "D":
        seq.insert(r, copy)
    else:
        q = r if event.kind == "C" else r + 1
        seq[r - 1], seq[q] = seq[q], seq[r - 1]


def apply_move(w: Word, event: MoveEvent) -> Word:
    """Apply a single move and return the new word.  This is the one place
    where a move is validated and rewrites letters; everything else kept
    per position follows the move by ``carry``.

    A doubling copies the letter at r to r+1, a commutation swaps the
    letters at r and r+1, and a braid rewrites s_a s_b s_a as s_b s_a s_b.
    """
    letters = list(w.letters)
    r = event.r
    p = len(letters)
    if event.kind == "D":
        if not 1 <= r <= p:
            raise ValueError(f"double position {r} out of range")
    elif event.kind == "C":
        if not 1 <= r <= p - 1:
            raise ValueError(f"commutation position {r} out of range")
        a, b = letters[r - 1], letters[r]
        if abs(a - b) < 2:
            raise ValueError(f"letters s_{a} s_{b} at {r} do not commute")
    elif event.kind == "B":
        if not 1 <= r <= p - 2:
            raise ValueError(f"braid position {r} out of range")
        a, b, a2 = letters[r - 1 : r + 2]
        if a != a2 or abs(a - b) != 1:
            raise ValueError(f"no braid pattern at {r}: s_{a} s_{b} s_{a2}")
        letters[r - 1 : r + 2] = [b, a, b]
        return Word(w.rank, tuple(letters))
    else:
        raise ValueError(f"unknown move kind {event.kind!r}")
    carry(letters, event, letters[r - 1])
    return Word(w.rank, tuple(letters))


def classify_braid(w: Word, r: int) -> int:
    """Case (1)-(5) of the effect of a braid move at position r, from the
    vertex status of the three letters and, when all three are vertices,
    whether they lie in a common face.

    Face and vertex tests are 0-Hecke deletion tests, no enumeration.  The
    braid itself is validated by ``apply_move``.
    """
    apply_move(w, MoveEvent("B", r))
    if not contains_longest(w):
        raise ValueError("word does not contain a reduced expression of w0")
    from .subword import is_face

    v = [is_face(w, (q,)) for q in (r, r + 1, r + 2)]
    total = sum(v)
    if total == 0:
        return 1
    if total == 1:
        assert v[0] or v[2], "single vertex must be an outer letter"
        return 2
    if total == 2:
        assert v[0] and v[2], "two vertices must be the outer letters"
        return 3
    return 5 if is_face(w, (r, r + 1, r + 2)) else 4


class _Builder:
    """Words, recording moves as they are performed."""

    def __init__(self, w: Word):
        self.words = [w]
        self.events: list[MoveEvent] = []

    def letter(self, r: int) -> int:
        return self.words[-1].letter(r)

    def move(self, kind: str, r: int, cell: tuple[int, int] | None = None):
        event = MoveEvent(kind, r, cell)
        self.words.append(apply_move(self.words[-1], event))
        self.events.append(event)

    def commute_window_to(self, start: int, target: tuple[int, ...]):
        """Bubble the window starting at 1-based ``start`` into the target
        letter sequence using commutations only."""
        for off, want in enumerate(target):
            at = start + off
            letters = self.words[-1].letters
            m = at
            while m <= len(letters) and letters[m - 1] != want:
                m += 1
            assert m <= len(letters), "target letter not found"
            for pos in range(m - 1, at - 1, -1):
                self.move("C", pos)

    def trace(self) -> MoveTrace:
        return MoveTrace(tuple(self.words), tuple(self.events))


def _insert_moves(b: _Builder, sigma: int, ell: int, n: int):
    """Letter-insertion moves on the window starting at
    position sigma+1, whose content is s_1 followed by the staircase of
    rank ell; ends with the window reading staircase then s_ell.  The k-th
    braid is made at cell (n + 1 - ell, k) of the rank n-1 staircase."""
    for k in range(1, ell):
        assert b.letter(sigma + 2 * k) == k
        mover = sigma + ell + k + 1
        assert b.letter(mover) == k
        for pos in range(mover - 1, sigma + 2 * k + 1, -1):
            b.move("C", pos)
        b.move("B", sigma + 2 * k, (n + 1 - ell, k))
    target = c_sorted_word(ell).letters + (ell,)
    b.commute_window_to(sigma + 1, target)


def fattening_sequence(w: Word, triangle_start: int = 0) -> MoveTrace:
    """Trace transforming the staircase factor at ``triangle_start`` into
    staircase followed by reversed c: n doublings first, then the insertion
    moves for ell = 2..n, innermost first.

    >>> t = fattening_sequence(c_sorted_word(3))
    >>> t.count("D"), t.count("B")
    (3, 3)
    >>> t.final.letters
    (1, 2, 3, 1, 2, 1, 3, 2, 1)
    """
    n = w.rank
    staircase = c_sorted_word(n).letters
    if w.letters[triangle_start : triangle_start + len(staircase)] != staircase:
        raise ValueError(f"no staircase factor of rank {n} at offset {triangle_start}")
    b = _Builder(w)
    cells = staircase_cells(n)
    anchors = []
    for i in range(1, n + 1):
        # the 1-based position of the (i, 1) letter, plus i - 1 for the
        # shift from the i - 1 earlier doublings
        pos = triangle_start + cells.index((i, 1)) + i
        assert b.letter(pos) == 1
        b.move("D", pos)
        anchors.append(pos)
    for ell in range(2, n + 1):
        sigma = anchors[n - ell] - 1
        _insert_moves(b, sigma, ell, n)
    expected = staircase + tuple(range(n, 0, -1))
    end = triangle_start + len(expected)
    got = b.words[-1].letters[triangle_start:end]
    assert got == expected, f"fattening ended on {got}"
    return b.trace()


def commutation_trace(src: Word, dst: Word) -> MoveTrace:
    """The commutations that turn ``src`` into ``dst``, as a trace: each
    letter of ``dst``, left to right, is bubbled into place from its first
    occurrence.  Raises ``ValueError`` if the words are not commutation
    equivalent.
    """
    if src.rank != dst.rank:
        raise ValueError(f"words of rank {src.rank} and {dst.rank}")
    if sorted(src.letters) != sorted(dst.letters):
        raise ValueError("words with different letters are not commutation equivalent")
    b = _Builder(src)
    b.commute_window_to(1, dst.letters)
    return b.trace()


def format_trace(trace: MoveTrace, verbose: bool = False) -> str:
    lines = []
    for s, event in enumerate(trace.events):
        lines.append(str(event))
        if verbose:
            lines.append(format_word(trace.words[s + 1]))
    return "\n".join(lines) + "\n"
