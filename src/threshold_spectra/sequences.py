"""Threshold graphs as creation sequences and run-length block forms.

A threshold graph on N vertices is encoded by a binary creation sequence
b_1 ... b_N with b_1 = 0: bit 0 adds an isolated vertex, bit 1 adds a
dominating vertex (adjacent to every vertex already present).  The block
form is the run-length encoding into alternating 0-blocks and 1-blocks;
the graph is connected exactly when the last block is a 1-block.
"""

from __future__ import annotations

from typing import Iterator

# A creation sequence is a tuple of bits; a block form is a tuple of
# (symbol, count) pairs with symbols strictly alternating, starting at 0.
Bits = tuple[int, ...]
Blocks = tuple[tuple[int, int], ...]


def parse_sequence(text: str) -> Bits:
    """Parse a raw binary word or a block expression into a creation sequence.

    Accepts "0011100011", "(0^2 1^3 0^3 1^2)", "0^2 1^3 0^3 1^2" and
    juxtaposed forms such as "01^3" (meaning 0 1 1 1).  Parentheses and
    whitespace are separators; an absent exponent means count 1.
    """
    bits: list[int] = []
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
            i = j
        bits.extend([sym] * count)
    if not bits:
        raise ValueError("empty sequence")
    if bits[0] != 0:
        raise ValueError("first digit of a creation sequence must be 0")
    return tuple(bits)


def to_blocks(bits: Bits) -> Blocks:
    """Run-length encode a creation sequence into alternating blocks."""
    blocks: list[list[int]] = []
    for b in bits:
        if blocks and blocks[-1][0] == b:
            blocks[-1][1] += 1
        else:
            blocks.append([b, 1])
    return tuple((s, c) for s, c in blocks)


def from_blocks(blocks: Blocks) -> Bits:
    """Expand a block form back into a creation sequence, validating it."""
    check_blocks(blocks)
    bits: list[int] = []
    for sym, count in blocks:
        bits.extend([sym] * count)
    return tuple(bits)


def check_blocks(blocks: Blocks) -> None:
    """Raise ValueError unless the block form satisfies its invariants."""
    if not blocks:
        raise ValueError("block form must contain at least one block")
    if blocks[0][0] != 0:
        raise ValueError("first block must have symbol 0")
    for k, (sym, count) in enumerate(blocks):
        if sym not in (0, 1):
            raise ValueError(f"block symbol must be 0 or 1, got {sym}")
        if count < 1:
            raise ValueError(f"block count must be positive, got {count}")
        if sym != k % 2:
            raise ValueError("block symbols must strictly alternate starting at 0")


def block_counts(blocks: Blocks) -> tuple[int, ...]:
    """The counts a_1, ..., a_B of a block form."""
    return tuple(c for _, c in blocks)


def format_blocks(blocks: Blocks) -> str:
    """Canonical compact text of a block form, counts always printed."""
    return "(" + " ".join(f"{s}^{c}" for s, c in blocks) + ")"


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
