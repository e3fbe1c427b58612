"""Deterministic 2-D molecule depictions: a seeded force-directed layout,
run in lockstep over molecules of the same atom count, and for each
molecule one SVG sheet of saliency panels, a row per panel and a column per
class, with a DOT fallback of one cluster per panel."""

from __future__ import annotations

import math

import numpy as np

from gcnx.smiles import AROMATIC, DOUBLE, TRIPLE, Molecule

CANVAS = 360.0
MARGIN = 36.0

# Largest B * n * n of one lockstep batch, so each (B, n, n) work array
# stays within 512 KiB however many molecules share an atom count.
BATCH_ELEMENTS = 1 << 16


def _spring_embed(adjacency: np.ndarray, seed: int, iterations: int) -> np.ndarray:
    """Seeded spring embedding of B same-size graphs in lockstep; returns the
    raw positions as a (2, B, n) array of x and y.

    Every graph starts from the same seeded circle, so the batch changes no
    coordinate. The pair (i, j) is stored at [b, j, i] and each force is a
    sum over axis 1, an outer axis that numpy adds in index order, which is
    the order of the per-molecule (n, n, 2).sum(axis=1); a sum over the
    contiguous axis is pairwise and moves the last bits. x and y are kept
    as separate arrays, so that each force component is one such sum. The
    adjacency must be symmetric."""
    batch, n, _ = adjacency.shape
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n) / n
    noise = rng.normal(scale=0.01, size=(n, 2))
    x = np.repeat((np.cos(angles) + noise[:, 0])[None, :], batch, axis=0)
    y = np.repeat((np.sin(angles) + noise[:, 1])[None, :], batch, axis=0)
    k = 1.0 / np.sqrt(n)
    temperature = 0.1
    for _ in range(iterations):
        dx = x[:, None, :] - x[:, :, None]
        dy = y[:, None, :] - y[:, :, None]
        dist = np.sqrt(dx**2 + dy**2) + 1e-9
        # on the diagonal dx = dy = +0.0, so the repulsion there is +0.0
        repulsion = k * k / dist**2
        attraction = adjacency * dist / k
        fx = (repulsion * dx).sum(axis=1) + (attraction * (-dx / dist)).sum(axis=1)
        fy = (repulsion * dy).sum(axis=1) + (attraction * (-dy / dist)).sum(axis=1)
        norm = np.sqrt(fx**2 + fy**2) + 1e-9
        step = np.minimum(norm, temperature)
        x += fx / norm * step
        y += fy / norm * step
        temperature *= 0.98
    return np.stack([x, y])


def layout_molecules(
    molecules: list[Molecule], seed: int = 0, iterations: int = 200
) -> list[np.ndarray]:
    """Seeded spring embedding of each molecule, as (n_atoms, 2) positions
    scaled into the drawing canvas, in input order.

    Molecules of the same atom count run the layout loop together, in
    batches of at most BATCH_ELEMENTS // n**2; a molecule's positions depend
    only on the molecule, the seed and the iteration count, bit for bit, and
    not on the batch around it. A single atom sits at the centre."""
    layouts: list[np.ndarray] = [None] * len(molecules)
    by_size: dict[int, list[int]] = {}
    for index, molecule in enumerate(molecules):
        by_size.setdefault(molecule.n_atoms, []).append(index)
    for n, indices in by_size.items():
        if n == 1:
            for index in indices:
                layouts[index] = np.array([[CANVAS / 2.0, CANVAS / 2.0]])
            continue
        chunk = max(1, BATCH_ELEMENTS // (n * n))
        for start in range(0, len(indices), chunk):
            batch = indices[start : start + chunk]
            adjacency = np.stack([molecules[i].graph.adjacency for i in batch])
            pos = _spring_embed(adjacency, seed, iterations)
            low = pos.min(axis=2, keepdims=True)
            span = pos.max(axis=2, keepdims=True) - low
            span[span == 0.0] = 1.0
            scaled = MARGIN + (pos - low) / span * (CANVAS - 2.0 * MARGIN)
            for b, index in enumerate(batch):
                layouts[index] = scaled[:, b, :].T.copy()
    return layouts


def layout_molecule(molecule: Molecule, seed: int = 0, iterations: int = 200) -> np.ndarray:
    """Seeded spring embedding of one molecule, scaled into the drawing
    canvas; the same positions layout_molecules gives it in any batch."""
    return layout_molecules([molecule], seed, iterations)[0]


def _escape(text: str) -> str:
    """XML character data; a local helper, because xml.sax.saxutils pulls in
    urllib.request and its dependencies on import."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# Perpendicular offsets, in pixels, of the strokes that draw each bond order.
_BOND_OFFSETS = {1: (0.0,), DOUBLE: (-2.2, 2.2), TRIPLE: (-3.0, 0.0, 3.0), AROMATIC: (-2.2, 2.2)}


def _bond_lines(p1, p2, order) -> list[tuple[float, float, float, float, bool]]:
    """Line segments (x1, y1, x2, y2, dashed) for one bond; multiple orders
    draw parallel offsets, and the second stroke of an aromatic bond is
    dashed."""
    (x1, y1), (x2, y2) = p1, p2
    dx, dy = x2 - x1, y2 - y1
    length = math.sqrt(dx * dx + dy * dy) + 1e-9
    nx, ny = -dy / length, dx / length
    dashed = order == AROMATIC
    return [
        (x1 + nx * off, y1 + ny * off, x2 + nx * off, y2 + ny * off, dashed and i == 1)
        for i, off in enumerate(_BOND_OFFSETS.get(order, (0.0,)))
    ]


def molecule_svg(
    molecule: Molecule,
    panels: list[tuple[str, dict[int, np.ndarray]]],
    positions: np.ndarray,
    title: str = "",
) -> str:
    """One sheet of saliency panels: a row per (label, values_by_class) of
    panels, in order, and a column per class; blue disk intensity is
    proportional to saliency. Each panel is labelled '<label> class <c>',
    and a panel that lacks a class leaves that cell empty. The title and the
    labels are XML-escaped. The bonds and each atom's position and label are
    formatted once and repeated in every panel."""
    coords = positions.tolist()
    bonds = []
    for i, j, order in molecule.bonds:
        for x1, y1, x2, y2, dash in _bond_lines(coords[i], coords[j], order):
            dash_attr = ' stroke-dasharray="4,3"' if dash else ""
            bonds.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                f'y2="{y2:.2f}" stroke="#444" stroke-width="1.5"{dash_attr}/>'
            )
    # each atom's disk and label, split around the disk's fill opacity
    atoms = []
    for idx, el in enumerate(molecule.elements):
        x, y = coords[idx]
        symbol = el.symbol if el.symbol != "other" else "*"
        atoms.append(
            (
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="13" fill="#1f77d0" fill-opacity="',
                f'" stroke="#888" stroke-width="0.7"/>\n'
                f'<text x="{x:.2f}" y="{y + 4:.2f}" font-size="11" '
                f'font-family="monospace" text-anchor="middle">{symbol}</text>',
            )
        )
    bond_block = "\n".join(bonds)
    columns = {c: k for k, c in enumerate(sorted({c for _, by_class in panels for c in by_class}))}
    width = CANVAS * len(columns)
    height = CANVAS * len(panels) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    if title:
        parts.append(
            f'<text x="6" y="14" font-size="12" font-family="monospace">{_escape(title)}</text>'
        )
    for row, (label, values_by_class) in enumerate(panels):
        caption = _escape(label)
        top = row * CANVAS + 20
        for class_id in sorted(values_by_class):
            values = np.asarray(values_by_class[class_id], dtype=float)
            peak = values.max() if values.size and values.max() > 0.0 else 1.0
            opacities = (values / peak).tolist() if values.size else [0.0] * len(atoms)
            parts.append(f'<g transform="translate({columns[class_id] * CANVAS:.2f},{top:.2f})">')
            parts.append(
                f'<text x="6" y="14" font-size="11" font-family="monospace">'
                f"{caption} class {class_id}</text>"
            )
            if bond_block:
                parts.append(bond_block)
            for (disk, text), opacity in zip(atoms, opacities, strict=True):
                parts.append(f"{disk}{opacity:.3f}{text}")
            parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def molecule_dot(molecule: Molecule, panels: list[tuple[str, dict[int, np.ndarray]]]) -> str:
    """Graphviz fallback: one cluster per (label, values_by_class) of panels,
    in order, labelled with the label, which holds no double quote, and
    filled by the positive-class values. Node ids carry the cluster index,
    so each is unique in the file; the atom labels and bond edges are
    formatted once for all clusters."""
    symbols = [el.symbol if el.symbol != "other" else "*" for el in molecule.elements]
    order_labels = {DOUBLE: " [label=2]", TRIPLE: " [label=3]", AROMATIC: " [label=ar]"}
    edges = [(i, j, order_labels.get(order, "")) for i, j, order in molecule.bonds]
    lines = ["graph molecule {", "  node [style=filled fontname=monospace];"]
    for k, (label, values_by_class) in enumerate(panels):
        values = np.asarray(values_by_class.get(1, np.zeros(molecule.n_atoms)), dtype=float)
        peak = values.max() if values.size and values.max() > 0.0 else 1.0
        intensities = (255 * (1.0 - 0.8 * values / peak)).astype(int).tolist()
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="{label}";')
        for idx, (symbol, intensity) in enumerate(zip(symbols, intensities, strict=True)):
            lines.append(
                f'    c{k}n{idx} [label="{symbol}" fillcolor="#{intensity:02x}{intensity:02x}ff"];'
            )
        for i, j, order_label in edges:
            lines.append(f"    c{k}n{i} -- c{k}n{j}{order_label};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
