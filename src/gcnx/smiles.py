"""Restricted SMILES parsing, the fixed node featurization, and SMILES output.

The grammar covers what the molecular pipeline needs: organic-subset atoms,
bracket atoms with charges, single/double/triple/aromatic bonds, branches,
and ring closures. Stereochemistry, isotopes, wildcards, and explicit
hydrogens are rejected; hydrogens are implicit and never become nodes.

Parsing builds each molecule's node-feature rows once, with featurize and
the fixed layout below; checkpoints record that layout as FEATURIZATION,
and no other layout exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gcnx.graphs import ELEMENT_VOCAB, AttributedGraph, ElementLabel

# Bond orders. Aromatic bonds are their own order so substructure equality
# can distinguish them from single/double bonds.
SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, 4

_BOND_SYMBOLS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_ORGANIC_TWO_CHAR = ("Cl", "Br")
_ORGANIC_ONE_CHAR = "BCNOPSFI"
_AROMATIC_CHARS = "cnos"


class SmilesParseError(ValueError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# One node-feature row, D_IN wide: element one-hot over ELEMENT_VOCAB, degree
# one-hot capped at MAX_DEGREE, formal-charge one-hot clamped to
# CHARGE_MIN..CHARGE_MAX, aromatic flag.
MAX_DEGREE = 5
CHARGE_MIN, CHARGE_MAX = -2, 2
_CHARGE_AT = len(ELEMENT_VOCAB) + MAX_DEGREE + 1
D_IN = _CHARGE_AT + (CHARGE_MAX - CHARGE_MIN + 1) + 1

# the layout as checkpoints record it; a checkpoint with any other is refused
FEATURIZATION = {
    "element_vocab": list(ELEMENT_VOCAB),
    "max_degree": MAX_DEGREE,
    "charge_min": CHARGE_MIN,
    "charge_max": CHARGE_MAX,
}


@dataclass(frozen=True)
class Molecule:
    """Parsed molecule: attributed graph plus the explicit bond list."""

    graph: AttributedGraph
    bonds: tuple[tuple[int, int, int], ...]  # (i, j, order) with i < j
    source_string: str

    @property
    def n_atoms(self) -> int:
        return self.graph.n_nodes

    @property
    def elements(self) -> tuple[ElementLabel, ...]:
        return self.graph.node_elements


def _parse_bracket_atom(s: str, start: int) -> tuple[ElementLabel, int]:
    """Parse a bracket atom starting at s[start] == '['. Returns the label and
    the index just past the closing bracket. Hydrogen counts are accepted and
    discarded; isotopes and stereo markers are rejected."""
    i = start + 1
    if i < len(s) and s[i].isdigit():
        raise SmilesParseError("isotope specifications are not supported", i)
    if i >= len(s):
        raise SmilesParseError("unterminated bracket atom", start)
    aromatic = False
    if s[i] in _AROMATIC_CHARS:
        symbol = s[i].upper()
        aromatic = True
        i += 1
    elif s[i].isupper():
        symbol = s[i]
        i += 1
        if i < len(s) and s[i].islower():
            symbol += s[i]
            i += 1
    else:
        raise SmilesParseError(f"invalid atom symbol {s[i]!r} in bracket", i)
    if symbol == "H":
        raise SmilesParseError("explicit hydrogen atoms are not supported", start + 1)
    # implicit hydrogen count, parsed and discarded
    if i < len(s) and s[i] == "H":
        i += 1
        while i < len(s) and s[i].isdigit():
            i += 1
    charge = 0
    if i < len(s) and s[i] in "+-":
        sign = 1 if s[i] == "+" else -1
        ch = s[i]
        i += 1
        if i < len(s) and s[i].isdigit():
            magnitude = 0
            while i < len(s) and s[i].isdigit():
                magnitude = magnitude * 10 + int(s[i])
                i += 1
        else:
            magnitude = 1
            while i < len(s) and s[i] == ch:
                magnitude += 1
                i += 1
        charge = sign * magnitude
    if i >= len(s) or s[i] != "]":
        offset = i if i < len(s) else start
        raise SmilesParseError("unterminated or malformed bracket atom", offset)
    return ElementLabel(symbol, charge, aromatic), i + 1


def parse_smiles(s: str) -> Molecule:
    """Parse a restricted SMILES string into a Molecule.

    Raises SmilesParseError with the byte offset of the first problem.
    """
    if not s:
        raise SmilesParseError("empty SMILES string", 0)

    elements: list[ElementLabel] = []
    bonds: dict[tuple[int, int], int] = {}
    prev_atom: int | None = None
    pending_order: int | None = None
    pending_offset = 0
    branch_stack: list[tuple[int | None, int]] = []
    # ring number -> (atom index, declared order or None, opening offset)
    open_rings: dict[int, tuple[int, int | None, int]] = {}

    def add_bond(a: int, b: int, order: int, offset: int) -> None:
        key = (min(a, b), max(a, b))
        if a == b:
            raise SmilesParseError("ring closure bonds an atom to itself", offset)
        if key in bonds:
            raise SmilesParseError("duplicate bond between the same atoms", offset)
        bonds[key] = order

    def attach_atom(label: ElementLabel, offset: int) -> None:
        nonlocal prev_atom, pending_order
        idx = len(elements)
        elements.append(label)
        if prev_atom is not None:
            order = pending_order
            if order is None:
                both_aromatic = elements[prev_atom].aromatic and label.aromatic
                order = AROMATIC if both_aromatic else SINGLE
            add_bond(prev_atom, idx, order, offset)
        elif pending_order is not None:
            raise SmilesParseError("bond symbol with no preceding atom", pending_offset)
        pending_order = None
        prev_atom = idx

    def close_ring(number: int, offset: int) -> None:
        nonlocal pending_order
        if prev_atom is None:
            raise SmilesParseError("ring closure digit before any atom", offset)
        if number in open_rings:
            other, declared, _ = open_rings.pop(number)
            order = None
            for candidate in (declared, pending_order):
                if candidate is None:
                    continue
                if order is not None and candidate != order:
                    raise SmilesParseError(
                        f"conflicting bond orders for ring closure {number}", offset
                    )
                order = candidate
            if order is None:
                both_aromatic = elements[other].aromatic and elements[prev_atom].aromatic
                order = AROMATIC if both_aromatic else SINGLE
            add_bond(other, prev_atom, order, offset)
        else:
            open_rings[number] = (prev_atom, pending_order, offset)
        pending_order = None

    i = 0
    while i < len(s):
        ch = s[i]
        if s.startswith(_ORGANIC_TWO_CHAR, i):
            attach_atom(ElementLabel(s[i : i + 2]), i)
            i += 2
        elif ch in _ORGANIC_ONE_CHAR:
            attach_atom(ElementLabel(ch), i)
            i += 1
        elif ch in _AROMATIC_CHARS:
            attach_atom(ElementLabel(ch.upper(), aromatic=True), i)
            i += 1
        elif ch == "[":
            label, nxt = _parse_bracket_atom(s, i)
            attach_atom(label, i)
            i = nxt
        elif ch in _BOND_SYMBOLS:
            if pending_order is not None:
                raise SmilesParseError("two consecutive bond symbols", i)
            pending_order = _BOND_SYMBOLS[ch]
            pending_offset = i
            i += 1
        elif ch == "(":
            if prev_atom is None:
                raise SmilesParseError("branch opened before any atom", i)
            if pending_order is not None:
                raise SmilesParseError("bond symbol before branch opening", pending_offset)
            branch_stack.append((prev_atom, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesParseError("unbalanced closing parenthesis", i)
            if pending_order is not None:
                raise SmilesParseError("dangling bond symbol before ')'", pending_offset)
            prev_atom = branch_stack.pop()[0]
            i += 1
        elif ch.isdigit():
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if i + 2 >= len(s) or not (s[i + 1].isdigit() and s[i + 2].isdigit()):
                raise SmilesParseError("'%' ring closure needs two digits", i)
            close_ring(int(s[i + 1 : i + 3]), i)
            i += 3
        else:
            raise SmilesParseError(f"unknown atom token {ch!r}", i)

    if branch_stack:
        raise SmilesParseError("unbalanced opening parenthesis", branch_stack[-1][1])
    if open_rings:
        number, (_, _, offset) = min(open_rings.items(), key=lambda kv: kv[1][2])
        raise SmilesParseError(f"unmatched ring closure digit {number}", offset)
    if pending_order is not None:
        raise SmilesParseError("dangling bond symbol at end of input", pending_offset)
    if not elements:
        raise SmilesParseError("no atoms in SMILES string", 0)

    bond_list = tuple(sorted((i, j, order) for (i, j), order in bonds.items()))
    adjacency = np.zeros((len(elements), len(elements)))
    for i, j, _ in bond_list:
        adjacency[i, j] = adjacency[j, i] = 1.0
    graph = AttributedGraph(
        node_features=featurize(elements, adjacency),
        adjacency=adjacency,
        node_elements=tuple(elements),
    )
    return Molecule(graph=graph, bonds=bond_list, source_string=s)


def featurize(elements: list[ElementLabel], adjacency: np.ndarray) -> np.ndarray:
    """The N x D_IN node-feature rows of a molecule: exactly one bit in each
    one-hot block (element, degree, charge), then the aromatic flag."""
    degrees = adjacency.sum(axis=1).astype(int)
    rows = np.zeros((len(elements), D_IN))
    for idx, el in enumerate(elements):
        rows[idx, ELEMENT_VOCAB.index(el.symbol)] = 1.0
        rows[idx, len(ELEMENT_VOCAB) + min(degrees[idx], MAX_DEGREE)] = 1.0
        charge = min(max(el.formal_charge, CHARGE_MIN), CHARGE_MAX)
        rows[idx, _CHARGE_AT + charge - CHARGE_MIN] = 1.0
        rows[idx, -1] = 1.0 if el.aromatic else 0.0
    return rows


# ------------------------------------------------------------------ writing

_CONVENTIONAL_AROMATIC = {"C", "N", "O", "S"}


def _atom_token(el: ElementLabel) -> str:
    if el.symbol == "other":
        return "[*]"
    symbol = el.symbol
    if el.aromatic and symbol in _CONVENTIONAL_AROMATIC:
        symbol = symbol.lower()
    if el.formal_charge == 0:
        return symbol
    sign = "+" if el.formal_charge > 0 else "-"
    magnitude = abs(el.formal_charge)
    suffix = sign if magnitude == 1 else f"{sign}{magnitude}"
    return f"[{symbol}{suffix}]"


def _bond_token(order: int, a: ElementLabel, b: ElementLabel) -> str:
    if order == DOUBLE:
        return "="
    if order == TRIPLE:
        return "#"
    if order == AROMATIC:
        return "" if (a.aromatic and b.aromatic) else ":"
    return ""


def write_smiles(elements, bonds) -> str:
    """Serialize a connected labeled graph to the restricted SMILES grammar.

    The output re-parses to an isomorphic graph for every label/order the
    parser itself can produce ('other' elements render as a display-only
    wildcard). Each ring bond gets its own ring number, so a graph with
    more than 99 ring bonds raises ValueError; the walk is iterative, so
    long chains do not hit the recursion limit.
    """
    n = len(elements)
    if n == 0:
        raise ValueError("cannot serialize an empty molecule")
    order_of = {}
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j, order in bonds:
        order_of[(i, j)] = order_of[(j, i)] = order
        neighbors[i].append(j)
        neighbors[j].append(i)
    for adj in neighbors:
        adj.sort()

    # classify spanning-tree edges vs ring closures with an iterative DFS
    parent: dict[int, int | None] = {0: None}
    tree_children: list[list[int]] = [[] for _ in range(n)]
    ring_bonds: list[tuple[int, int]] = []
    seen_edges = set()
    stack = [0]
    visited = {0}
    while stack:
        u = stack.pop()
        for v in sorted(neighbors[u], reverse=True):
            if (u, v) in seen_edges:
                continue
            seen_edges.add((u, v))
            seen_edges.add((v, u))
            if v in visited:
                ring_bonds.append((min(u, v), max(u, v)))
            else:
                visited.add(v)
                parent[v] = u
                tree_children[u].append(v)
                stack.append(v)
    if len(visited) != n:
        raise ValueError("write_smiles requires a connected graph")

    if len(ring_bonds) > 99:
        # ring numbers are never reused, and the grammar stops at %99
        raise ValueError(f"write_smiles supports at most 99 ring bonds, got {len(ring_bonds)}")
    ring_digits: dict[int, list[tuple[str, int]]] = {i: [] for i in range(n)}
    for number, (a, b) in enumerate(sorted(ring_bonds), start=1):
        digit = str(number) if number <= 9 else f"%{number:02d}"
        order = order_of[(a, b)]
        token = _bond_token(order, elements[a], elements[b]) + digit
        ring_digits[a].append((token, b))
        ring_digits[b].append((digit, a))

    # a preorder walk of the spanning tree that follows each chain in a loop
    # and stacks the rest: atoms (int) still to write and literal tokens
    # (str), so a long chain needs no recursion
    out: list[str] = []
    todo: list[int | str] = [0]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        while True:
            out.append(_atom_token(elements[node]))
            for token, _ in ring_digits[node]:
                out.append(token)
            children = tree_children[node]
            if not children:
                break
            last = children[-1]
            last_bond = _bond_token(order_of[(node, last)], elements[node], elements[last])
            if len(children) == 1:
                out.append(last_bond)
                node = last
                continue
            # branches "(" bond child ")" in order, then the last child unbracketed
            todo.append(last)
            todo.append(last_bond)
            for child in reversed(children[:-1]):
                bond = _bond_token(order_of[(node, child)], elements[node], elements[child])
                todo.extend((")", child, "(" + bond))
            break
    return "".join(out)
