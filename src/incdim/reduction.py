"""Executable 3-SAT reduction to incidence-dimension instances.

Each variable contributes a 6-vertex truth-setting gadget with TRUE /
FALSE ports, each clause a 9-vertex gadget isomorphic to C_3 x C_3
(Cartesian product), and each literal occurrence two communication
edges from the port representing the value that falsifies it.  The
threshold is r = 4n + 8m: the formula is satisfiable exactly when the
graph has an incidence generator of that size (equivalently, a
2-packing of size 2n + m).

Vertex layout, for n variables: truth gadget i occupies 6(i - 1) +
{0..5} for x_i, y_i, z_i, w_i, T_i, F_i; clause gadget j, position k
occupies 6n + 9(j - 1) + 3(k - 1) + {0, 1, 2} for a_j^k, b_j^k, c_j^k
(i, j, k from 1).  `ReductionOutput.labels` names them on first read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph import Graph, _vertex_mask
from .incidence import is_incidence_generator

TRUTH_GADGET_SIZE = 6
CLAUSE_GADGET_SIZE = 9
_T, _F = 4, 5                     # port offsets within a truth gadget
# Gadget edges as offsets (u < v) from the gadget's first vertex.
_TRUTH_EDGES = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5))
_CLAUSE_EDGES = ((0, 3), (3, 6), (0, 6), (1, 4), (4, 7), (1, 7),
                 (2, 5), (5, 8), (2, 8), (0, 1), (1, 2), (0, 2),
                 (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8))


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple       # tuple of 3-tuples of signed DIMACS literals
    var_map: dict = field(default_factory=dict, compare=False)

    def threshold(self):
        return 4 * self.num_vars + 8 * len(self.clauses)


@dataclass(frozen=True)
class ReductionOutput:
    graph: object
    r: int
    communication_edges: tuple
    formula: CnfFormula

    @cached_property
    def labels(self):
        """Structured name -> vertex index, in the module's layout."""
        return _gadget_labels(self.formula)

    @property
    def names(self):
        return tuple(self.labels)      # labels are in vertex order


def _validate_clause(lits, lineno=None):
    where = f"line {lineno}: " if lineno else ""
    if len(lits) != 3:
        raise ValueError(f"{where}not 3-CNF: clause has {len(lits)} literals")
    variables = [abs(l) for l in lits]
    if len(set(variables)) != 3:
        raise ValueError(f"{where}not 3-CNF: clause repeats a variable")


def parse_cnf(text):
    """Parse DIMACS CNF with every clause of width exactly 3.

    Clauses repeating a variable (duplicate or tautological literals)
    are rejected.  Out-of-range variable indices cause a dense
    renumbering, reported in var_map (original -> dense)."""
    num_vars = None
    num_clauses = None
    clauses = []
    pending = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed DIMACS header")
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed DIMACS header")
            continue
        if num_vars is None:
            raise ValueError(f"line {lineno}: clause before DIMACS header")
        try:
            lits = [int(f) for f in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: expected integer literals")
        for lit in lits:
            if lit == 0:
                _validate_clause(pending, lineno)
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValueError("unterminated clause (missing trailing 0)")
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise ValueError(f"header declares {num_clauses} clauses, "
                         f"found {len(clauses)}")
    used = sorted({abs(l) for cl in clauses for l in cl})
    var_map = {}
    if any(v > num_vars or v < 1 for v in used):
        var_map = {v: i + 1 for i, v in enumerate(used)}
        clauses = [tuple((1 if l > 0 else -1) * var_map[abs(l)] for l in cl)
                   for cl in clauses]
        num_vars = len(used)
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses),
                      var_map=var_map)


def _gadget_labels(f):
    labels = {}
    for i in range(1, f.num_vars + 1):
        base = TRUTH_GADGET_SIZE * (i - 1)
        for off, name in enumerate(("x", "y", "z", "w", "T", "F")):
            labels[f"{name}_{i}"] = base + off
    clause_base = TRUTH_GADGET_SIZE * f.num_vars
    for j in range(1, len(f.clauses) + 1):
        base = clause_base + CLAUSE_GADGET_SIZE * (j - 1)
        for k in range(1, 4):
            for off, name in enumerate(("a", "b", "c")):
                labels[f"{name}_{j}^{k}"] = base + 3 * (k - 1) + off
    return labels


def build_reduction(f):
    """Compile a 3-CNF formula into its incidence-dimension instance."""
    nv = f.num_vars
    if nv < 0:
        raise ValueError("vertex count must be non-negative")
    clause_base = TRUTH_GADGET_SIZE * nv
    n = clause_base + CLAUSE_GADGET_SIZE * len(f.clauses)
    edges = [(base + u, base + v)
             for base in range(0, clause_base, TRUTH_GADGET_SIZE)
             for u, v in _TRUTH_EDGES]
    edges += [(base + u, base + v)
              for base in range(clause_base, n, CLAUSE_GADGET_SIZE)
              for u, v in _CLAUSE_EDGES]
    comm = []
    for base, clause in zip(range(clause_base + 1, n, CLAUSE_GADGET_SIZE),
                            f.clauses):
        _validate_clause(clause)
        for b, lit in zip((base, base + 3, base + 6), clause):
            i = abs(lit)
            if not 0 < i <= nv:
                raise ValueError(f"literal {lit} out of range 1..{nv}")
            port = TRUTH_GADGET_SIZE * (i - 1) + (_F if lit > 0 else _T)
            comm += ((port, b), (port, b + 1))     # to b_j^k and c_j^k
    return ReductionOutput(graph=Graph(n, frozenset(edges + comm)),
                           r=f.threshold(), communication_edges=tuple(comm),
                           formula=f)


def _check_assignment(f, t):
    """Return the 1-based index of the first unsatisfied clause, or 0."""
    for j, clause in enumerate(f.clauses, start=1):
        if not any(t[abs(lit)] == (lit > 0) for lit in clause):
            return j
    return 0


def assignment_to_generator(red, t):
    """Incidence generator of size exactly r from a satisfying truth
    assignment t (mapping variable index -> bool)."""
    f = red.formula
    bad = _check_assignment(f, t)
    if bad:
        raise ValueError(f"assignment not satisfying: clause {bad} "
                         f"{f.clauses[bad - 1]}")
    s = set()
    for i in range(1, f.num_vars + 1):        # y_i, z_i, w_i and a port
        base = TRUTH_GADGET_SIZE * (i - 1)
        s.update((base + 1, base + 2, base + 3, base + (_F if t[i] else _T)))
    for base, clause in zip(range(TRUTH_GADGET_SIZE * f.num_vars,
                                  red.graph.n, CLAUSE_GADGET_SIZE),
                            f.clauses):
        s.update(base + off for off in (1, 2, 4, 5, 7, 8))   # b's and c's
        # smallest satisfying literal position stays out of S
        sat_k = next(k for k, lit in enumerate(clause)
                     if t[abs(lit)] == (lit > 0))
        s.update(base + 3 * k for k in range(3) if k != sat_k)
    result = frozenset(s)
    assert len(result) == red.r
    if not is_incidence_generator(red.graph, result):
        raise AssertionError("constructed set failed the generator check")
    return result


def basis_to_assignment(red, s):
    """Satisfying assignment extracted from a size-r incidence generator."""
    s = frozenset(s)
    if len(s) != red.r:
        raise ValueError(f"not a tight basis: |S| = {len(s)}, r = {red.r}")
    if not is_incidence_generator(red.graph, s):
        raise ValueError("not an incidence generator")
    f = red.formula
    t = {i: TRUTH_GADGET_SIZE * (i - 1) + _T not in s
         for i in range(1, f.num_vars + 1)}
    bad = _check_assignment(f, t)
    if bad:
        raise AssertionError(f"extraction failed: clause {bad} unsatisfied")
    return t


def verify_claims(red, s):
    """Per-gadget membership counts of a generator, with the structural
    lower bounds (>= 4 per truth gadget, >= 8 per clause gadget)."""
    s = frozenset(s)
    if not is_incidence_generator(red.graph, s):
        raise ValueError("not an incidence generator")
    smask = _vertex_mask(red.graph, s)
    clause_base = TRUTH_GADGET_SIZE * red.formula.num_vars
    truth = [(smask >> base & 0x3F).bit_count()
             for base in range(0, clause_base, TRUTH_GADGET_SIZE)]
    clause = [(smask >> base & 0x1FF).bit_count()
              for base in range(clause_base, red.graph.n, CLAUSE_GADGET_SIZE)]
    return {"truth_gadgets": truth, "clause_gadgets": clause,
            "ok": all(c >= 4 for c in truth) and all(c >= 8 for c in clause)}


# --- tiny DPLL, used by tests and fixtures only ---------------------------

def satisfying_assignment(f):
    """First satisfying assignment by DPLL, or None if unsatisfiable."""

    def dpll(clauses, assign):
        while True:
            unit = next((cl[0] for cl in clauses if len(cl) == 1), None)
            if unit is None:
                break
            clauses, assign = _propagate(clauses, assign, unit)
            if clauses is None:
                return None
        if not clauses:
            return assign
        lit = clauses[0][0]
        for choice in (lit, -lit):
            nxt, nass = _propagate(clauses, assign, choice)
            if nxt is not None:
                res = dpll(nxt, nass)
                if res is not None:
                    return res
        return None

    def _propagate(clauses, assign, lit):
        nass = dict(assign)
        nass[abs(lit)] = lit > 0
        out = []
        for cl in clauses:
            if lit in cl:
                continue
            reduced = tuple(l for l in cl if l != -lit)
            if not reduced:
                return None, None
            out.append(reduced)
        return out, nass

    assign = dpll([tuple(cl) for cl in f.clauses], {})
    if assign is None:
        return None
    return {i: assign.get(i, True) for i in range(1, f.num_vars + 1)}


def is_satisfiable(f):
    return satisfying_assignment(f) is not None
