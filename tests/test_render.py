"""Depictions against the per-molecule oracle in _oracles: the lockstep
layout must give every molecule the oracle's positions bit for bit, in any
batch, and every panel of an SVG sheet must hold the bytes of the oracle's
panel for that class."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnx.datasets import synth_motif_set
from gcnx.render import (
    BATCH_ELEMENTS,
    layout_molecule,
    layout_molecules,
    molecule_dot,
    molecule_svg,
)
from gcnx.smiles import parse_smiles

import _oracles
from test_explainers import SYMMETRIC_POSITIVES

# double, triple and aromatic bonds, an element outside the vocabulary
# (drawn as '*'), and the one- and two-atom special cases
SVG_SMILES = ("C=CC#N", "c1ccccc1O", "C[Si](C)=O", "C", "CC", "N#N")


def assert_layouts_match(molecules, seed, iterations=200):
    layouts = layout_molecules(molecules, seed=seed, iterations=iterations)
    assert len(layouts) == len(molecules)
    for molecule, positions in zip(molecules, layouts):
        assert positions.shape == (molecule.n_atoms, 2)
        expected = _oracles.layout_molecule(molecule, seed=seed, iterations=iterations)
        assert np.array_equal(positions, expected), molecule.source_string


class TestLayout:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_symmetric_positives(self, seed):
        assert_layouts_match([parse_smiles(s) for s in SYMMETRIC_POSITIVES], seed)

    def test_synth_corpus(self):
        molecules = [m for _, m, _ in synth_motif_set(60, "NO", seed=3).entries]
        assert_layouts_match(molecules, seed=3)

    def test_group_larger_than_one_batch(self):
        # 48-atom chains with the branch moved along them: one size, more
        # molecules than fit in one batch of that size
        molecules = [parse_smiles("C" * k + "(C)" + "C" * (47 - k)) for k in range(1, 47)]
        assert {m.n_atoms for m in molecules} == {48}
        assert len(molecules) > BATCH_ELEMENTS // 48**2
        assert_layouts_match(molecules, seed=5, iterations=40)

    def test_one_and_two_atoms(self):
        molecules = [parse_smiles(s) for s in ("C", "CC", "O", "N#N", "CCO")]
        assert_layouts_match(molecules, seed=0)
        centre = _oracles.CANVAS / 2.0
        assert np.array_equal(layout_molecules(molecules[:1])[0], [[centre, centre]])

    def test_permuted_order(self):
        molecules = [m for _, m, _ in synth_motif_set(30, "NO", seed=4).entries]
        molecules += [parse_smiles(s) for s in SYMMETRIC_POSITIVES]
        layouts = layout_molecules(molecules, seed=2)
        order = np.random.default_rng(0).permutation(len(molecules))
        permuted = layout_molecules([molecules[i] for i in order], seed=2)
        for position, index in enumerate(order):
            assert np.array_equal(permuted[position], layouts[index])

    @pytest.mark.parametrize("smiles", ["C", "CC", "c1ccccc1"])
    def test_layout_molecule_matches_oracle(self, smiles):
        molecule = parse_smiles(smiles)
        positions = layout_molecule(molecule, seed=9, iterations=50)
        assert np.array_equal(positions, _oracles.layout_molecule(molecule, seed=9, iterations=50))

    def test_empty_input(self):
        assert layout_molecules([]) == []


@st.composite
def branched_smiles(draw):
    """A chain of 2 to 40 carbons in all, with side branches of 1 to 3 atoms
    and at most one ring closure between main-chain atoms, as SMILES."""
    main = draw(st.integers(2, 40))
    budget = 40 - main
    atoms = []
    for i in range(main):
        branch = min(budget, draw(st.integers(0, 3))) if i < main - 1 else 0
        budget -= branch
        atoms.append(["C", "(" + "C" * branch + ")" if branch else ""])
    if main >= 3 and draw(st.booleans()):
        start = draw(st.integers(0, main - 3))
        end = draw(st.integers(start + 2, main - 1))
        atoms[start][0] += "1"
        atoms[end][0] += "1"
    return "".join(symbol + branch for symbol, branch in atoms)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(branched_smiles(), min_size=1, max_size=3),
    st.integers(0, 2**16),
    st.integers(1, 200),
)
def test_layout_equals_oracle_in_any_batch(smiles_list, seed, iterations):
    molecules = [parse_smiles(s) for s in smiles_list]
    # a straight chain of each size puts every molecule in a shared batch
    molecules += [parse_smiles("C" * m.n_atoms) for m in molecules]
    assert_layouts_match(molecules, seed, iterations)


def sample_values(rng, n):
    """Saliency maps of the kinds explain renders: positive, signed, all zero
    and negative, and a map of one class."""
    return [
        {0: rng.random(n), 1: rng.random(n)},
        {0: rng.normal(size=n), 1: np.abs(rng.normal(size=n))},
        {0: np.zeros(n), 1: -np.ones(n)},
        {1: rng.random(n)},
    ]


# panel labels as explain writes them, and one to escape
PANEL_LABELS = ("gradient", "grad_cam-l2", "eb", "a&b<c>")


def panel_bodies(svg):
    """Each panel of a sheet as (translate, label text, lines between the
    label and the panel's </g>), in sheet order."""
    lines = svg.split("\n")
    panels = []
    for k, line in enumerate(lines):
        if line.startswith('<g transform="translate('):
            label = lines[k + 1]
            assert label.startswith('<text x="6" y="14" font-size="11"')
            text = label[label.index(">") + 1 : label.rindex("</text>")]
            end = lines.index("</g>", k)
            panels.append((line[len('<g transform="translate(') : -3], text, lines[k + 2 : end]))
    return panels


class TestSvg:
    @pytest.mark.parametrize("smiles", SVG_SMILES + SYMMETRIC_POSITIVES)
    def test_bytes_match_oracle(self, smiles):
        molecule = parse_smiles(smiles)
        positions = layout_molecule(molecule, seed=5)
        rng = np.random.default_rng(molecule.n_atoms)
        panels = list(zip(PANEL_LABELS, sample_values(rng, molecule.n_atoms)))
        for title in ("", "a&b<c> grad_cam-l2"):
            got = molecule_svg(molecule, panels, positions, title=title)
            root = ET.fromstring(got)
            assert root.get("width") == f"{2 * 360:.2f}"
            assert root.get("height") == f"{len(panels) * 360 + 20:.2f}"
            if title:
                assert got.split("\n")[1] == (
                    '<text x="6" y="14" font-size="12" font-family="monospace">'
                    f"{_oracles._escape(title)}</text>"
                )
            sheet = iter(panel_bodies(got))
            for row, (label, values_by_class) in enumerate(panels):
                oracle = {
                    text: body
                    for _, text, body in panel_bodies(
                        _oracles.molecule_svg(molecule, values_by_class, positions)
                    )
                }
                for class_id in sorted(values_by_class):
                    translate, text, body = next(sheet)
                    # class c sits in column c, whether or not the row has class 0
                    assert translate == f"{class_id * 360:.2f},{row * 360 + 20:.2f}"
                    assert text == f"{_oracles._escape(label)} class {class_id}"
                    assert body == oracle[f"class {class_id}"]
            assert next(sheet, None) is None

    @pytest.mark.parametrize(
        "smiles, strokes, dashed",
        [("C=CC#N", 2 + 1 + 3, 0), ("c1ccccc1O", 6 * 2 + 1, 6), ("C[Si](C)=O", 1 + 1 + 2, 0)],
    )
    def test_bond_strokes_in_every_panel(self, smiles, strokes, dashed):
        molecule = parse_smiles(smiles)
        n = molecule.n_atoms
        panels = [(label, {0: np.ones(n), 1: np.ones(n)}) for label in ("gradient", "cam", "eb")]
        svg = molecule_svg(molecule, panels, layout_molecule(molecule))
        n_panels = 3 * 2
        assert svg.count("<line ") == n_panels * strokes
        assert svg.count('stroke-dasharray="4,3"') == n_panels * dashed
        assert svg.count("<circle ") == n_panels * n


class TestDot:
    @pytest.mark.parametrize("smiles", SVG_SMILES + SYMMETRIC_POSITIVES)
    def test_one_cluster_per_panel(self, smiles):
        molecule = parse_smiles(smiles)
        rng = np.random.default_rng(molecule.n_atoms)
        panels = list(zip(PANEL_LABELS, sample_values(rng, molecule.n_atoms)))
        dot = molecule_dot(molecule, panels)
        assert dot.startswith("graph molecule {\n") and dot.endswith("\n}\n")
        clusters = dot.split("  subgraph cluster_")[1:]
        assert len(clusters) == len(panels)
        node_ids = []
        for k, ((label, _), cluster) in enumerate(zip(panels, clusters)):
            lines = cluster.split("\n")
            assert lines[0] == f"{k} {{"
            assert lines[1] == f'    label="{label}";'
            nodes = [line.split()[0] for line in lines if "fillcolor=" in line]
            edges = [line for line in lines if " -- " in line]
            assert len(nodes) == molecule.n_atoms
            assert len(edges) == len(molecule.bonds)
            node_ids += nodes
        assert len(set(node_ids)) == len(node_ids)
