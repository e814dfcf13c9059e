"""Lexicographically first minimum hitting sets over vertex bitmasks.

The three exact subset solvers share one question: which smallest
vertex set S meets every mask of a family, and which such S comes
first in combinations(range(n), k) order?  dim_I_brute asks it for the
masks e ^ f of edge pairs, dim_A for {x, y} | (N(x) ^ N(y)) over vertex
pairs, and dim_e for the vertices that tell two edges apart by
distance.

min_hitting_set answers by iterative deepening on k.  At each k an
include-first search in ascending vertex order, run on an explicit
stack, visits the k-subsets in combinations order, so the first
hitting set it meets is the lex-first one.  The masks are deduplicated
and sorted, and mask i of the sorted family is bit i of the search's
"unhit" masks; hits[v], the masks that hold vertex v, turns "include v"
into one bit operation.  A node is cut when the lowest unhit mask has
no vertex left above the last choice (sorting puts the mask with the
smallest top vertex lowest), or when the unhit masks hold more
pairwise-disjoint members above the last choice than picks remain.

The family may be any iterable; memory is its distinct masks (at most
one n-bit mask per pair: O(m^2 n) bits for dim_I_brute and dim_e,
O(n^3) for dim_A) and a transposed copy of the same size.
"""
from __future__ import annotations

from itertools import repeat

# _COLUMN[b][x] is the ASCII digit of bit b of byte x, so translating
# the b-th bit plane of the byte rows gives a base-2 numeral.
_COLUMN = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b)
                for b in range(8))


def _disjoint(sets, hits, unhit, start, cap):
    """Greedy count, up to cap + 1, of unhit masks pairwise disjoint on
    the vertices from start on; a lower bound on the picks still
    needed."""
    count = 0
    while unhit and count <= cap:
        count += 1
        part = sets[(unhit & -unhit).bit_length() - 1] >> start
        while part:
            low = part & -part
            unhit &= ~hits[start + low.bit_length() - 1]
            part ^= low
    return count


def min_hitting_set(n, sets, floor=0):
    """Lexicographically first smallest vertex mask, of at least floor
    vertices out of 0..n-1, that meets every mask in sets.

    Lexicographic means first in combinations(range(n), k) order.
    Raises ValueError for an empty mask, a vertex outside 0..n-1 or a
    floor outside 0..n.
    """
    if not 0 <= floor <= n:
        raise ValueError(f"floor {floor} outside 0..{n}")
    sets = sorted(set(sets))
    if not sets:
        return (1 << floor) - 1
    if not sets[0] or sets[0] < 0 or sets[-1] >> n:
        raise ValueError("masks must be non-empty subsets of 0..n-1")
    full = (1 << n) - 1
    # One little-endian row of bytes per mask, the last mask first, so
    # that byte plane v >> 3, bit v & 7, read as a numeral is hits[v].
    width = (n + 7) >> 3
    rows = b"".join(map(int.to_bytes, reversed(sets), repeat(width),
                        repeat("little")))
    hits = [int(rows[v >> 3::width].translate(_COLUMN[v & 7]), 2)
            for v in range(n)]
    everything = (1 << len(sets)) - 1
    k = max(floor, _disjoint(sets, hits, everything, 0, n))
    if k >= n:
        return full
    while True:
        # A frame: the next vertex to try, the last one worth trying at
        # this depth, how many are chosen, the masks still unhit and
        # the chosen mask.
        stack = []
        c, last, j, unhit, chosen = (0, min(n - k, sets[0].bit_length() - 1),
                                     0, everything, 0)
        while True:
            if c > last:
                if not stack:
                    break
                c, last, j, unhit, chosen = stack.pop()
                continue
            rest = unhit & ~hits[c]
            picks = k - j - 1
            if not rest:
                # Everything is hit: pad with the next vertices up.
                return chosen | ((2 << picks) - 1) << c
            start = c + 1
            # The lowest unhit mask has the smallest top vertex; if none
            # of its vertices lies above c, nothing here can hit it.
            top = sets[(rest & -rest).bit_length() - 1] >> start
            if picks and top:
                spare = n - start - picks
                if not spare:
                    return chosen | full >> c << c
                if picks == 1:
                    # The last pick must lie in every mask still unhit.
                    while top:
                        v = (top & -top).bit_length() - 1 + start
                        if not rest & ~hits[v]:
                            return chosen | 1 << c | 1 << v
                        top &= top - 1
                elif (rest.bit_count() <= picks
                      or _disjoint(sets, hits, rest, start, picks) <= picks):
                    stack.append((start, last, j, unhit, chosen))
                    c, last, j, unhit, chosen = (
                        start, min(start + spare, c + top.bit_length()),
                        j + 1, rest, chosen | 1 << c)
                    continue
            c += 1
        k += 1
