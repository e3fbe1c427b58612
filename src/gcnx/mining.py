"""Salient-substructure mining: turn explanation heatmaps into ranked
candidate functional groups.

Activated vertices (normalized saliency above a threshold) induce subgraphs
whose connected components are canonicalized into exact substructure keys;
a candidate is its key and its Fragment in canonical numbering. Each
candidate is then counted per molecule: how often it occurs inside an
explained region, and how often it occurs anywhere in the positive and
negative data. Node labels (element, charge, aromaticity) and bond orders
both participate in substructure equality.

Canonicalization is an individualization-refinement search that skips
subtrees which known automorphisms map onto searched ones. Containment is
a backtracking search on lookup tables that each fragment builds once.
mine gathers the distinct molecules and activated regions into one tally
and decides each of them once against every candidate.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from gcnx.graphs import ElementLabel, connected_components
from gcnx.smiles import Molecule, write_smiles

log = logging.getLogger(__name__)

MAX_SUBGRAPH_NODES = 64


class FragmentTooLargeError(ValueError):
    pass


LabelKey = tuple  # (symbol, formal_charge, aromatic)


@dataclass(frozen=True)
class Fragment:
    """Labeled subgraph with local vertex numbering. Candidates are connected;
    molecules and activated regions need not be. Equality and hashing see
    the labels and edges only, not the cached lookup tables."""

    node_labels: tuple[LabelKey, ...]
    edges: tuple[tuple[int, int, int], ...]  # (i, j, order), i < j

    @property
    def n_nodes(self) -> int:
        return len(self.node_labels)

    @cached_property
    def _tallies(self) -> tuple[Counter, Counter]:
        """Label and bond-order counts, the containment screen, built on first use."""
        return Counter(self.node_labels), Counter(order for _, _, order in self.edges)

    @cached_property
    def _tables(self) -> _Tables:
        """Containment lookup tables, built on first use past the screen."""
        return _build_tables(self)


def molecule_fragment(molecule: Molecule, vertices) -> Fragment:
    """Fragment induced by a vertex subset of a molecule (edges kept whenever
    both endpoints are selected)."""
    vertices = sorted(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    labels = tuple(molecule.elements[v].key() for v in vertices)
    edges = tuple(
        (index[i], index[j], order)
        for i, j, order in molecule.bonds
        if i in index and j in index
    )
    return Fragment(node_labels=labels, edges=edges)


def whole_molecule_fragment(molecule: Molecule) -> Fragment:
    return molecule_fragment(molecule, range(molecule.n_atoms))


# ------------------------------------------------------------ canonical form


def _refine(labels, adj, colors):
    """Iterate color refinement until the partition stabilizes. The signature
    of a node is its color, its label, and the multiset of (order, neighbor
    color) pairs."""
    while True:
        signatures = [
            (
                colors[i],
                labels[i],
                tuple(sorted((order, colors[j]) for j, order in adj[i])),
            )
            for i in range(len(labels))
        ]
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        new_colors = [ranking[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _certificate(fragment: Fragment, order) -> tuple:
    position = {node: pos for pos, node in enumerate(order)}
    labels = tuple(fragment.node_labels[node] for node in order)
    edges = tuple(
        sorted(
            (min(position[i], position[j]), max(position[i], position[j]), bond)
            for i, j, bond in fragment.edges
        )
    )
    return (labels, edges)


class _SearchState:
    """What the search has learned so far: the first and the best leaf, each
    as (certificate, order, path of pivots), and the automorphisms found by
    comparing later leaves with them (auto[v] is the image of node v)."""

    def __init__(self):
        self.first = None
        self.best = None
        self.automorphisms: list[list[int]] = []


def _same_orbit(pivot: int, searched: list[int], path: list[int], automorphisms) -> bool:
    """Is pivot in the orbit of an already searched pivot, under the group
    generated by the known automorphisms that fix every node of path?"""
    fixing = [auto for auto in automorphisms if all(auto[v] == v for v in path)]
    if not fixing:
        return False
    parent = list(range(len(fixing[0])))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for auto in fixing:
        for v, w in enumerate(auto):
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rv] = rw
    root = find(pivot)
    return any(find(s) == root for s in searched)


def _common_prefix(a: list[int], b: list[int]) -> int:
    depth = 0
    while depth < min(len(a), len(b)) and a[depth] == b[depth]:
        depth += 1
    return depth


def _leaf(fragment: Fragment, order: list[int], path: list[int], state: _SearchState) -> int:
    """Score one leaf; return the depth at which the search resumes. A leaf
    whose certificate equals the first or best one is an automorphism image
    of it, and so is the whole subtree below the node where their paths
    part: the search goes back to that node."""
    cert = _certificate(fragment, order)
    resume = len(path)
    if state.first is None:
        state.first = state.best = (cert, order, path)
        return resume
    references = (state.first,) if state.best is state.first else (state.first, state.best)
    for ref_cert, ref_order, ref_path in references:
        if cert == ref_cert:
            auto = [0] * len(order)
            for ref_node, node in zip(ref_order, order):
                auto[ref_node] = node
            state.automorphisms.append(auto)
            resume = min(resume, _common_prefix(path, ref_path))
    if cert < state.best[0]:
        state.best = (cert, order, path)
    return resume


def _search(fragment: Fragment, adj, colors, path: list[int], state: _SearchState) -> int:
    """Search the subtree of the node reached by individualizing path, and
    return the depth at which the search resumes (len(path) when it simply
    goes on with this node's parent)."""
    n = fragment.n_nodes
    counts = Counter(colors)
    if all(count == 1 for count in counts.values()):
        return _leaf(fragment, sorted(range(n), key=lambda i: colors[i]), path, state)
    depth = len(path)
    target = min(color for color, count in counts.items() if count > 1)
    searched: list[int] = []
    for pivot in [i for i in range(n) if colors[i] == target]:
        if searched and _same_orbit(pivot, searched, path, state.automorphisms):
            continue
        searched.append(pivot)
        branched = [c * 2 for c in colors]
        branched[pivot] -= 1  # individualize
        refined = _refine(fragment.node_labels, adj, branched)
        resume = _search(fragment, adj, refined, path + [pivot], state)
        if resume < depth:
            return resume
    return depth


def canonical_form(fragment: Fragment) -> tuple:
    """Lexicographically smallest (labels, edges) serialization over all
    label-refinement-compatible orderings; equal exactly for isomorphic
    fragments.

    The search individualizes one node of the first non-singleton color
    class at a time and refines again, as nauty and Traces do (McKay and
    Piperno 2014). Two leaves with equal certificates give an automorphism.
    Pivots that such automorphisms, fixing the current path, map onto an
    already searched pivot are skipped, and a leaf equal to the first or
    the best leaf sends the search back to where their paths part.
    Refinement and individualization commute with automorphisms, so the
    skipped subtrees hold only certificates already seen, and the minimum
    is that of the exhaustive search.
    """
    if fragment.n_nodes > MAX_SUBGRAPH_NODES:
        raise FragmentTooLargeError(
            f"fragment has {fragment.n_nodes} nodes (cap {MAX_SUBGRAPH_NODES})"
        )
    adj = fragment._tables.adj
    colors = _refine(fragment.node_labels, adj, [0] * fragment.n_nodes)
    state = _SearchState()
    _search(fragment, adj, colors, [], state)
    return state.best[0]


def _serialize(labels, edges) -> bytes:
    label_part = ";".join(f"{sym},{charge:+d},{int(arom)}" for sym, charge, arom in labels)
    edge_part = ";".join(f"{i}-{j}:{order}" for i, j, order in edges)
    return f"{len(labels)}|{label_part}|{edge_part}".encode("ascii")


def canonical_key(fragment: Fragment) -> bytes:
    return _serialize(*canonical_form(fragment))


# --------------------------------------------------------- activated regions


def activated_subgraphs(
    molecule: Molecule, values, tau: float = 0.0
) -> list[tuple[bytes, Fragment]]:
    """(canonical key, fragment in canonical numbering) of every activated
    connected component with at least two nodes. Oversized components are
    skipped with a warning."""
    mask = np.asarray(values, dtype=float) > tau
    out = []
    for component in connected_components(molecule.graph, mask):
        if len(component) < 2:
            continue
        if len(component) > MAX_SUBGRAPH_NODES:
            log.warning(
                "skipping activated component with %d nodes (cap %d)",
                len(component),
                MAX_SUBGRAPH_NODES,
            )
            continue
        labels, edges = canonical_form(molecule_fragment(molecule, component))
        out.append((_serialize(labels, edges), Fragment(node_labels=labels, edges=edges)))
    return out


# ---------------------------------------------------------------- containment


class _Tables(NamedTuple):
    """Lookup tables of one fragment, for containment on either side."""

    adj: list[list[tuple[int, int]]]  # node -> [(neighbor, bond order)]
    bond: dict[tuple[int, int], int]  # (i, j) and (j, i) -> bond order
    neighbor_tally: dict[tuple, int]  # (node, bond order, neighbor label) -> count
    placements: dict[int, list[tuple]]  # as a pattern: start node -> _placement steps


def _build_tables(fragment: Fragment) -> _Tables:
    labels = fragment.node_labels
    adj: list[list[tuple[int, int]]] = [[] for _ in labels]
    bond = {}
    neighbor_tally: dict[tuple, int] = {}
    for i, j, order in fragment.edges:
        adj[i].append((j, order))
        adj[j].append((i, order))
        bond[i, j] = bond[j, i] = order
        for key in ((i, order, labels[j]), (j, order, labels[i])):
            neighbor_tally[key] = neighbor_tally.get(key, 0) + 1
    return _Tables(adj=adj, bond=bond, neighbor_tally=neighbor_tally, placements={})


def _tallies_fit(pattern: Fragment, host: Fragment) -> bool:
    return all(
        host_tally[item] >= count
        for pattern_tally, host_tally in zip(pattern._tallies, host._tallies)
        for item, count in pattern_tally.items()
    )


def _placement(pattern: Fragment, tables: _Tables, start: int) -> list[tuple]:
    """The pattern's atoms in placement order, one step per atom: (label,
    depth of the placed neighbor it is drawn from or -1, that bond's order,
    ((depth, bond order) of its other placed neighbors), its (bond order,
    neighbor label) counts, depth of an interchangeable earlier leaf or -1).

    Non-leaf atoms come first, breadth-first from start; degree-1 atoms
    last. Leaves on the same atom with the same label and bond order are
    interchangeable in any embedding."""
    adj = tables.adj
    depth_of = {start: 0}
    order = [start]
    anchor: dict[int, tuple[int, int]] = {}
    for node in order:  # the skeleton, grown while it is walked
        for neighbor, bond in adj[node]:
            if neighbor not in depth_of and len(adj[neighbor]) > 1:
                depth_of[neighbor] = len(order)
                order.append(neighbor)
                anchor[neighbor] = (node, bond)
    last_twin: dict[tuple, int] = {}
    twin: dict[int, int] = {}
    for node in list(order):
        for neighbor, bond in adj[node]:
            if neighbor not in depth_of:
                depth_of[neighbor] = len(order)
                order.append(neighbor)
                anchor[neighbor] = (node, bond)
                group = (node, bond, pattern.node_labels[neighbor])
                twin[neighbor] = last_twin.get(group, -1)
                last_twin[group] = depth_of[neighbor]
    if len(order) < pattern.n_nodes:
        raise ValueError("containment patterns must be connected")
    steps = []
    for depth, node in enumerate(order):
        from_node, from_bond = anchor.get(node, (None, 0))
        steps.append(
            (
                pattern.node_labels[node],
                depth_of[from_node] if from_node is not None else -1,
                from_bond,
                tuple(
                    (depth_of[w], bond)
                    for w, bond in adj[node]
                    if depth_of[w] < depth and w != from_node
                ),
                # a leaf drawn from its one neighbor needs nothing more
                ()
                if node in twin
                else tuple(
                    (key[1:], count) for key, count in tables.neighbor_tally.items() if key[0] == node
                ),
                twin.get(node, -1),
            )
        )
    return steps


def contains_fragment(host: Fragment, pattern: Fragment) -> bool:
    """Exact labeled subgraph containment: is there an injective map of the
    pattern into the host preserving node labels and bond orders on every
    pattern edge? The host may have more edges than the image of the pattern.

    Each fragment's lookup tables are built on first use and live as long
    as the fragment. Label and bond-order tallies screen the pair. Then the
    pattern's non-leaf atoms are placed breadth-first from the one whose
    label is rarest in the host, and its degree-1 atoms last (in the spirit
    of VF2, Cordella et al. 2004). Every atom after the first is drawn from
    the host neighbors of a placed neighbor, and a host atom whose (bond
    order, neighbor label) counts do not cover the pattern atom's is
    rejected. Interchangeable leaves take host atoms in increasing order
    only. A disconnected pattern that passes the screens raises ValueError.
    """
    if pattern.n_nodes > host.n_nodes:
        return False
    if not _tallies_fit(pattern, host):
        return False
    host_tables, pattern_tables = host._tables, pattern._tables
    label_tally = host._tallies[0]
    adj = pattern_tables.adj
    skeleton = [i for i in range(pattern.n_nodes) if len(adj[i]) > 1] or range(pattern.n_nodes)
    start = min(
        skeleton, key=lambda i: (label_tally[pattern.node_labels[i]], -len(adj[i]), i)
    )
    steps = pattern_tables.placements.get(start)
    if steps is None:
        steps = pattern_tables.placements[start] = _placement(pattern, pattern_tables, start)
    host_adj, host_bond = host_tables.adj, host_tables.bond
    host_labels, host_tally = host.node_labels, host_tables.neighbor_tally
    image = [-1] * len(steps)
    used = [False] * host.n_nodes

    def place(depth: int) -> bool:
        if depth == len(steps):
            return True
        label, from_depth, from_bond, back, needs, twin_depth = steps[depth]
        if from_depth < 0:
            candidates = range(len(host_labels))
        else:
            candidates = [x for x, bond in host_adj[image[from_depth]] if bond == from_bond]
        floor = image[twin_depth] if twin_depth >= 0 else -1
        for x in candidates:
            if x <= floor or used[x] or host_labels[x] != label:
                continue
            if any(host_bond.get((x, image[d])) != bond for d, bond in back):
                continue
            if any(host_tally.get((x, *key), 0) < count for key, count in needs):
                continue
            image[depth] = x
            used[x] = True
            if place(depth + 1):
                return True
            used[x] = False
        return False

    return place(0)


def molecule_contains(molecule: Molecule, pattern: Fragment) -> bool:
    return contains_fragment(whole_molecule_fragment(molecule), pattern)


def count_dataset_occurrences(pattern: Fragment, dataset_entries) -> tuple[int, int]:
    """(N_p, N_n): molecules containing the pattern, counted at most once per
    molecule, split by label. Entries are (id, Molecule, label) triples."""
    n_pos = n_neg = 0
    for _, molecule, label in dataset_entries:
        if molecule_contains(molecule, pattern):
            if label == 1:
                n_pos += 1
            else:
                n_neg += 1
    return n_pos, n_neg


# -------------------------------------------------------------------- mining


@dataclass(frozen=True)
class SubstructureRecord:
    key: bytes
    pattern: Fragment  # in canonical numbering
    n_explained: int
    n_pos: int
    n_neg: int

    @property
    def r_e(self) -> float:
        return self.n_explained / (self.n_pos + self.n_neg)

    @property
    def r_p(self) -> float:
        return self.n_pos / (self.n_pos + self.n_neg)

    def to_dict(self) -> dict:
        elements = [ElementLabel(*label) for label in self.pattern.node_labels]
        return {
            "substructure": write_smiles(elements, self.pattern.edges),
            "canonical_key": self.key.decode("ascii"),
            "node_count": self.pattern.n_nodes,
            "n_explained": self.n_explained,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "r_e": self.r_e,
            "r_p": self.r_p,
        }


def mine(
    dataset_entries,
    heatmaps: dict[str, np.ndarray],
    predictions: dict[str, int] | None = None,
    tau: float = 0.0,
    min_occurrence: int = 10,
    top_k: int = 10,
    true_positives_only: bool = True,
    stats: dict | None = None,
) -> list[SubstructureRecord]:
    """Rank substructures extracted from explanation heatmaps.

    Candidates are the activated components of qualifying molecules. For a
    candidate s: n_explained counts qualifying molecules whose activated
    region contains s; n_pos/n_neg count molecules anywhere in the dataset
    containing s. Only candidates with n_pos + n_neg > min_occurrence
    survive; ranking is by descending R_e, then R_p, node count, and key.

    Every molecule and every activated region goes into one tally of
    distinct fragments. A fragment carries [n_neg, n_pos, n_explained]: the
    negative and positive molecules equal to it, and the qualifying
    molecules whose region equals it. Each distinct fragment is tested once
    against every candidate, and one fragment's lookup tables are alive at
    a time. If stats is a dict, it receives the counts "candidates",
    "hosts" (distinct molecules) and "decisions" (containment tests run:
    candidates times distinct fragments).
    """
    if true_positives_only and predictions is None:
        raise ValueError("true_positives_only requires predictions")

    candidates: dict[bytes, Fragment] = {}
    tally: dict[Fragment, list[int]] = {}  # fragment -> [n_neg, n_pos, n_explained]
    for mol_id, molecule, label in dataset_entries:
        tally.setdefault(whole_molecule_fragment(molecule), [0, 0, 0])[label == 1] += 1
        if mol_id not in heatmaps:
            continue
        if true_positives_only and not (label == 1 and predictions.get(mol_id) == 1):
            continue
        values = heatmaps[mol_id]
        active = np.flatnonzero(np.asarray(values, dtype=float) > tau).tolist()
        tally.setdefault(molecule_fragment(molecule, active), [0, 0, 0])[2] += 1
        for key, pattern in activated_subgraphs(molecule, values, tau):
            candidates.setdefault(key, pattern)
    keys = sorted(candidates)
    patterns = [candidates[key] for key in keys]
    if stats is not None:
        stats.update(
            candidates=len(patterns),
            hosts=sum(1 for neg, pos, _ in tally.values() if neg + pos),
            decisions=len(patterns) * len(tally),
        )

    n_neg, n_pos, n_explained = ([0] * len(patterns) for _ in range(3))
    while tally:  # popped, so each fragment's tables die with it
        fragment, (neg, pos, explained) = tally.popitem()
        for c, pattern in enumerate(patterns):
            if contains_fragment(fragment, pattern):
                n_neg[c] += neg
                n_pos[c] += pos
                n_explained[c] += explained
    records = [
        SubstructureRecord(keys[c], patterns[c], n_explained[c], n_pos[c], n_neg[c])
        for c in range(len(patterns))
        if n_pos[c] + n_neg[c] > min_occurrence
    ]
    records.sort(key=lambda r: (-r.r_e, -r.r_p, -r.pattern.n_nodes, r.key))
    return records[:top_k]
