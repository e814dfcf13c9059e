"""Output checkers that share no code with the incdim package.

Each checker works from the plain definitions: distances by its own
breadth-first search, incidence generators by comparing every pair of
edges, assignments clause by clause, satisfiability by trying every
assignment.  None of them imports incdim.
"""
from __future__ import annotations

import hashlib
import json
from itertools import product


def digest(obj):
    """Short stable hash of a JSON-serialisable value (witness identity)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _neighbours(n, edges):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _within_two(nbrs, src):
    seen = {src}
    frontier = [src]
    for _ in range(2):
        nxt = []
        for x in frontier:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def packing_test(n, edges):
    """Predicate: are verts distinct vertices of the graph, pairwise at
    distance greater than 2?"""
    nbrs = _neighbours(n, edges)
    balls = {}

    def is_packing(verts):
        verts = list(verts)
        if len(set(verts)) != len(verts):
            return False
        if any(not 0 <= v < n for v in verts):
            return False
        members = set(verts)
        for v in verts:
            if v not in balls:
                balls[v] = _within_two(nbrs, v)
            if balls[v] & members != {v}:
                return False
        return True

    return is_packing


def is_two_packing(n, edges, verts):
    return packing_test(n, edges)(verts)


def is_generator_pairwise(edges, s):
    """True iff every pair of distinct edges has a vertex of s incident
    to exactly one of them."""
    s = set(s)
    masks = []
    smask = 0
    for v in s:
        smask |= 1 << v
    for u, v in edges:
        masks.append((1 << u) | (1 << v))
    for i, e in enumerate(masks):
        for f in masks[i + 1:]:
            # The vertices incident to exactly one of e, f are e xor f.
            if not (e ^ f) & smask:
                return False
    return True


def satisfies(clauses, assignment):
    """True iff the assignment (variable -> bool) satisfies every clause."""
    for clause in clauses:
        if not any(assignment.get(abs(lit)) == (lit > 0) for lit in clause):
            return False
    return True


def brute_force_sat(num_vars, clauses):
    """Satisfiability by trying all 2^num_vars assignments."""
    for bits in product((False, True), repeat=num_vars):
        assignment = {i + 1: b for i, b in enumerate(bits)}
        if satisfies(clauses, assignment):
            return True
    return False
