"""Threshold graphs as creation sequences and run-length block forms.

A threshold graph on N vertices is encoded by a binary creation sequence
b_1 ... b_N with b_1 = 0: bit 0 adds an isolated vertex, bit 1 adds a
dominating vertex (adjacent to every vertex already present).  The block
form is the run-length encoding into alternating 0-blocks and 1-blocks,
stored as its counts alone: block k (from 0) has symbol k % 2.  The
graph is connected exactly when the last block is a 1-block, that is,
when the number of blocks is even.
"""

from __future__ import annotations

import sys
from typing import Iterator

Bits = tuple[int, ...]
Blocks = tuple[int, ...]


def parse_sequence(text: str) -> Bits:
    """Parse a raw binary word or a block expression into a creation sequence.

    Accepts "0011100011", "(0^2 1^3 0^3 1^2)", "0^2 1^3 0^3 1^2" and
    juxtaposed forms such as "01^3" (meaning 0 1 1 1).  Parentheses and
    whitespace are separators; an absent exponent means count 1.  Runs of
    one symbol merge into one block count, which `from_blocks` expands.
    """
    counts = [0]  # block k has symbol k % 2; a leading 1 leaves this 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "()" or ch.isspace():
            i += 1
            continue
        if ch not in "01":
            raise ValueError(f"invalid character {ch!r} in sequence text")
        sym = int(ch)
        i += 1
        count = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j == i:
                raise ValueError("'^' must be followed by a positive integer")
            count = int(text[i:j])
            if count < 1:
                raise ValueError(f"block count must be positive, got {count}")
            if count > sys.maxsize // 8:  # more bits than a tuple can hold
                raise ValueError(f"block count {count} is too large")
            i = j
        if len(counts) % 2 == sym:
            counts.append(count)
        else:
            counts[-1] += count
    if counts == [0]:
        raise ValueError("empty sequence")
    if not counts[0]:
        raise ValueError("first digit of a creation sequence must be 0")
    try:
        return from_blocks(counts)
    except (OverflowError, MemoryError):
        raise ValueError(f"sequence of {sum(counts)} vertices is too long"
                         ) from None


def to_blocks(bits: Bits) -> Blocks:
    """Block counts of a creation sequence of bits 0 and 1 starting at 0."""
    counts: list[int] = []
    sym = run = 0
    for b in bits:
        if b == sym:
            run += 1
        elif b == 1 - sym and run:
            counts.append(run)
            sym, run = b, 1
        else:
            raise ValueError("a creation sequence has bits 0 or 1 and starts "
                             f"with 0, got bit {b!r}")
    if run:
        counts.append(run)
    return tuple(counts)


def from_blocks(blocks: Blocks) -> Bits:
    """Expand a block form back into a creation sequence, validating it."""
    check_blocks(blocks)
    # allocations of known size: memory that is not there fails at once
    return tuple(b"".join([(b"\0", b"\1")[k % 2] * count
                           for k, count in enumerate(blocks)]))


def check_blocks(blocks: Blocks) -> None:
    """Raise ValueError unless the block form is non-empty, counts >= 1."""
    if not blocks:
        raise ValueError("block form must contain at least one block")
    if min(blocks) < 1:
        raise ValueError(f"block count must be positive, got {min(blocks)}")


def format_blocks(blocks: Blocks) -> str:
    """Canonical compact text of a block form, counts always printed."""
    return "(" + " ".join(f"{k % 2}^{c}" for k, c in enumerate(blocks)) + ")"


def format_sequence(bits: Bits) -> str:
    """Canonical compact block text of a creation sequence."""
    return format_blocks(to_blocks(bits))


def adjacency_matrix(bits: Bits) -> list[list[int]]:
    """Symmetric 0/1 adjacency matrix: vertex j joins all earlier ones iff b_j = 1."""
    n = len(bits)
    mat = [[0] * n for _ in range(n)]
    for j in range(n):
        if bits[j] == 1:
            for i in range(j):
                mat[i][j] = 1
                mat[j][i] = 1
    return mat


def edge_count(bits: Bits) -> int:
    """Number of edges: each dominating vertex at position j contributes j - 1."""
    return sum(j for j, b in enumerate(bits) if b == 1)


def enumerate_connected(n: int) -> Iterator[Bits]:
    """Yield all 2^(n-2) connected creation sequences of order n, lexicographically.

    Every sequence has b_1 = 0 and b_n = 1 with the middle n - 2 bits free.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    for idx in range(1 << (n - 2)):
        yield nth_connected(n, idx)


def nth_connected(n: int, idx: int) -> Bits:
    """The idx-th sequence (0-based) of enumerate_connected(n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    free = n - 2
    if not 0 <= idx < (1 << free):
        raise ValueError(f"index {idx} out of range for order {n}")
    middle = tuple((idx >> (free - 1 - k)) & 1 for k in range(free))
    return (0,) + middle + (1,)
