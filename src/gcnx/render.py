"""Deterministic 2-D molecule depictions: force-directed layout, SVG output
with saliency disks, and a DOT fallback."""

from __future__ import annotations

import numpy as np

from gcnx.smiles import AROMATIC, DOUBLE, TRIPLE, Molecule

CANVAS = 360.0
MARGIN = 36.0


def layout_molecule(molecule: Molecule, seed: int = 0, iterations: int = 200) -> np.ndarray:
    """Seeded spring embedding; positions scaled into the drawing canvas."""
    n = molecule.n_atoms
    rng = np.random.default_rng(seed)
    if n == 1:
        return np.array([[CANVAS / 2.0, CANVAS / 2.0]])
    angles = 2.0 * np.pi * np.arange(n) / n
    pos = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pos += rng.normal(scale=0.01, size=pos.shape)
    adjacency = molecule.graph.adjacency
    k = 1.0 / np.sqrt(n)
    temperature = 0.1
    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=2)) + 1e-9
        repulsion = (k * k / dist**2)[:, :, None] * delta
        diag = np.arange(n)
        repulsion[diag, diag, :] = 0.0
        attraction = (adjacency * dist / k)[:, :, None] * (-delta / dist[:, :, None])
        force = repulsion.sum(axis=1) + attraction.sum(axis=1)
        norm = np.sqrt((force**2).sum(axis=1, keepdims=True)) + 1e-9
        pos += force / norm * np.minimum(norm, temperature)
        temperature *= 0.98
    span = pos.max(axis=0) - pos.min(axis=0)
    span[span == 0.0] = 1.0
    scaled = (pos - pos.min(axis=0)) / span
    return MARGIN + scaled * (CANVAS - 2.0 * MARGIN)


def _escape(text: str) -> str:
    """XML character data; a local helper, because xml.sax.saxutils pulls in
    urllib.request and its dependencies on import."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _bond_lines(p1, p2, order):
    """Line segments for one bond; multiple orders draw parallel offsets."""
    direction = p2 - p1
    length = np.sqrt((direction**2).sum()) + 1e-9
    normal = np.array([-direction[1], direction[0]]) / length
    offsets = {1: [0.0], DOUBLE: [-2.2, 2.2], TRIPLE: [-3.0, 0.0, 3.0], AROMATIC: [-2.2, 2.2]}
    dashed = order == AROMATIC
    lines = []
    for i, off in enumerate(offsets.get(order, [0.0])):
        a = p1 + normal * off
        b = p2 + normal * off
        dash = dashed and i == 1
        lines.append((a, b, dash))
    return lines


def molecule_svg(
    molecule: Molecule,
    values_by_class: dict[int, np.ndarray],
    positions: np.ndarray,
    title: str = "",
) -> str:
    """One panel per class, blue disk intensity proportional to saliency.
    The title is XML-escaped."""
    panels = sorted(values_by_class)
    width = CANVAS * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(CANVAS + 20)}" viewBox="0 0 {_fmt(width)} {_fmt(CANVAS + 20)}">'
    ]
    if title:
        parts.append(
            f'<text x="6" y="14" font-size="12" font-family="monospace">{_escape(title)}</text>'
        )
    for panel_index, class_id in enumerate(panels):
        values = np.asarray(values_by_class[class_id], dtype=float)
        peak = values.max() if values.size and values.max() > 0.0 else 1.0
        shift = panel_index * CANVAS
        parts.append(f'<g transform="translate({_fmt(shift)},20)">')
        parts.append(
            f'<text x="6" y="14" font-size="11" font-family="monospace">class {class_id}</text>'
        )
        for i, j, order in molecule.bonds:
            for a, b, dash in _bond_lines(positions[i], positions[j], order):
                dash_attr = ' stroke-dasharray="4,3"' if dash else ""
                parts.append(
                    f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                    f'y2="{_fmt(b[1])}" stroke="#444" stroke-width="1.5"{dash_attr}/>'
                )
        for idx, el in enumerate(molecule.elements):
            x, y = positions[idx]
            opacity = float(values[idx] / peak) if values.size else 0.0
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="13" fill="#1f77d0" '
                f'fill-opacity="{opacity:.3f}" stroke="#888" stroke-width="0.7"/>'
            )
            symbol = el.symbol if el.symbol != "other" else "*"
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y + 4)}" font-size="11" '
                f'font-family="monospace" text-anchor="middle">{symbol}</text>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def molecule_dot(molecule: Molecule, values_by_class: dict[int, np.ndarray]) -> str:
    """Graphviz fallback: fill intensity from the positive-class values."""
    values = np.asarray(
        values_by_class.get(1, np.zeros(molecule.n_atoms)), dtype=float
    )
    peak = values.max() if values.size and values.max() > 0.0 else 1.0
    lines = ["graph molecule {", "  node [style=filled fontname=monospace];"]
    for idx, el in enumerate(molecule.elements):
        intensity = int(255 * (1.0 - 0.8 * values[idx] / peak))
        color = f"#{intensity:02x}{intensity:02x}ff"
        symbol = el.symbol if el.symbol != "other" else "*"
        lines.append(f'  n{idx} [label="{symbol}" fillcolor="{color}"];')
    for i, j, order in molecule.bonds:
        label = {DOUBLE: " [label=2]", TRIPLE: " [label=3]", AROMATIC: ' [label=ar]'}.get(
            order, ""
        )
        lines.append(f"  n{i} -- n{j}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
