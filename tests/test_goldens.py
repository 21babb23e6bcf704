"""Byte-level outputs against the committed goldens.

``xmodlab table --verify --json`` must print exactly
``perfbench/golden/table_verify.json``, with ``--stats`` too, and
``induce --dump-xmod`` must
write the same bytes for table rows 6 and 7 as when they were recorded.
The presentations ``induced_presentation`` builds, and the path and coset
table counters ``induce`` reports, are pinned too.
"""

import hashlib
from pathlib import Path

import pytest

from xmodlab.cli import main
from xmodlab.induce import induce, induced_presentation, table_subgroup
from xmodlab.perm import PermGroup, cyclic, hom, parse_generator_list, symmetric
from xmodlab.xmod import CrossedModule, identity_xmod, xmod_from_json

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "table_verify.json"

# sha256 of the --dump-xmod file, re-recorded when M came to be read off
# the cosets of the copy of P at the identity coset (row 6's M on 24
# points, row 7's on 64), and again when M came to keep only the coset
# permutations that enlarge the group (row 6's 8 generators became 2, row
# 7's 12 became 6; DUMP_CONTENTS below held across that change);
# perfbench/fixtures/row6.json keeps row 6 as first written, on 72 points
DUMPS = {
    "row6": ("(1,2,3)",
             "229aca0ac04b160dfb4eb143d09b40b431ce4fe6a76c0810a239dba0cc82cad4"),
    "row7": ("(1,2)(3,4)",
             "8730f6930ea7be96539184dffc08d23f1b989b480085834e2625faa4c1a4c43a"),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("XMODLAB_LIMIT", raising=False)


def test_table_verify_json_matches_golden(capsys):
    assert main(["table", "--verify", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_stats_leave_stdout_alone(capsys):
    # --stats writes one line per row to stderr; stdout keeps the golden
    # bytes, and every row takes the path over H
    assert main(["table", "--verify", "--json", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN.read_text()
    lines = captured.err.splitlines()
    assert [line.split(";")[0] for line in lines] == [
        f"stats: row {row}: over H" for row in range(1, 8)]
    assert all("relator_letters=" in line and "phases presentation="
               in line for line in lines)


@pytest.mark.parametrize("row", sorted(DUMPS))
def test_dump_xmod_bytes_pinned(capsys, tmp_path, row):
    sub, digest = DUMPS[row]
    path = tmp_path / "xmod.json"
    assert main(["induce", "--sub", sub, "--dump-xmod", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of what a dump says about the module, whatever generators it
# lists for M: M's elements in sorted order, and the boundary and each
# action entry as sorted (m, image) pairs, read back with xmod_from_json.
# The bytes above change with M's generating set; these must not
DUMP_CONTENTS = {
    "row6": "1f6aac34f34744496759709f40de692814e86a3fb863a15959755b0a0f8ce9f5",
    "row7": "23c313f04337b0c032f1516d616a16e2f214f08593083374d8a052637f8480be",
}


def sorted_pairs(h):
    return sorted((p.images, v.images) for p, v in h.element_map.items())


@pytest.mark.parametrize("row", sorted(DUMP_CONTENTS))
def test_dump_xmod_content_pinned(capsys, tmp_path, row):
    sub, _ = DUMPS[row]
    path = tmp_path / "xmod.json"
    assert main(["induce", "--sub", sub, "--dump-xmod", str(path)]) == 0
    X = xmod_from_json(path.read_text())
    content = repr((
        [p.images for p in X.M.elements()],
        sorted_pairs(X.boundary),
        [sorted_pairs(a) for a in X.action],
    ))
    assert hashlib.sha256(content.encode()).hexdigest() == DUMP_CONTENTS[row]


# sha256 of ``induced_presentation(identity_xmod(P), P <= Q)``'s
# ``presentation.to_json()``: the seven S4 rows, the three S5 jobs of
# perfbench/workloads.py and two more subgroups of S5.  Each copy of M is
# generated by M's own generators; where those are not closed under P's
# action (S4 rows 2 and 4, S5 S4, the twisted S3 and D8) the pins were
# re-recorded when the action came to be spelled as words, with the modules
# backed by the reference module (tests/test_induce_paths.py)
PRESENTATIONS = {
    ("S4", "row 1"):
        "2440133b371a7e3c56985f9db634fd7b1b0d22120eed71ab9f9ebb3bb036b227",
    ("S4", "row 2"):
        "2aefed68040a3fc7f9a9cb1aff02bf50dd27dce03486cf8ab3b835e3f2be5890",
    ("S4", "row 3"):
        "9b1b877f4a9f768aa8414ddc2f87a379cfaec834c786170950b204af618eb91e",
    ("S4", "row 4"):
        "d1ad604223a4a0a4233c1c6e98bf4a114cf6ecc65e73bc9a860871d7115e46a8",
    ("S4", "row 5"):
        "e2c84afc8f4393510811f7bbf24f71faee3246e2107e2795c4adb17db833037c",
    ("S4", "row 6"):
        "6a8d92f241e65c0e8a8ced1169df98078358094553368d413e4e7201e9a41b05",
    ("S4", "row 7"):
        "c038123040bf7ea235212705b5c2f055a31925819e9a2ed36122950ca6a2b196",
    ("S5", "(1,2,3,4),(1,2)"):
        "45add4c109bf108e6a9c5f0c3968d2e102128c016b07530e84e771d50257ff70",
    ("S5", "(1,2)"):
        "0128efab95969dca21c5ae77869eab4364f0dff55ccaa4990378241f320c8c93",
    ("S5", "(1,2,3,4,5)"):
        "1111d7d4029593589453db30c6e43438edbaa1a0386aafc5280ee94bedcf4a87",
    ("S5", "(1,2,3),(1,2)(4,5)"):
        "f8d363536174defa91e7bc41535b240fbd1dd304bc0c108bd191cfe90e4299f7",
    ("S5", "(1,2,3,4),(1,3)"):
        "30e1baa3c2a7d710a1d26cc4793828514aa81d3a9b5253fa1841b07ed797a7b1",
}


@pytest.mark.parametrize("case", sorted(PRESENTATIONS))
def test_induced_presentation_bytes_pinned(case):
    group, sub = case
    if group == "S4":
        Q = symmetric(4)
        P = table_subgroup(int(sub.split()[1]))
    else:
        Q = PermGroup(5, parse_generator_list("(1,2,3,4,5),(1,2)", 5))
        P = Q.subgroup(parse_generator_list(sub, 5))
    ip = induced_presentation(identity_xmod(P), hom(P, Q, P.generators))
    digest = hashlib.sha256(ip.presentation.to_json().encode()).hexdigest()
    assert digest == PRESENTATIONS[case]


def _stats(path, ncosets, defined, peak_live, generators, relators,
           relator_letters, degree):
    return {"path": path, "ncosets": ncosets, "defined": defined,
            "peak_live": peak_live, "generators": generators,
            "relators": relators, "relator_letters": relator_letters,
            "degree": degree}


# Report.stats of the seven S4 rows; rows 2 and 4, whose M generators are
# not closed under P's action, re-recorded when the action came to be
# spelled as words
ROW_STATS = (
    _stats("over H", 24, 112, 76, 12, 144, 552, 24),
    _stats("over H", 8, 22, 20, 8, 84, 367, 8),
    _stats("over H", 12, 62, 52, 12, 162, 624, 12),
    _stats("over H", 6, 18, 18, 6, 57, 296, 6),
    _stats("over H", 24, 67, 48, 6, 36, 144, 24),
    _stats("over H", 24, 86, 67, 8, 64, 248, 24),
    _stats("over H", 64, 232, 122, 12, 144, 552, 64),
)


@pytest.mark.parametrize("row", range(1, 8))
def test_table_row_stats_pinned(table_results, row):
    assert table_results[row - 1][1].stats == ROW_STATS[row - 1]


def test_p_equal_to_q_stats_pinned():
    # one coset of H: the attempt over H falls short, the regular one runs;
    # two generators, S4's own
    S4 = symmetric(4)
    _, report = induce(identity_xmod(S4), hom(S4, S4, S4.generators))
    assert report.stats == _stats("regular", 24, 24, 24, 2, 27, 228, 24)


def test_trivial_boundary_stats_pinned():
    # C3 inverted by P = <(1,2)> <= S3, boundary trivial: only the regular
    # attempt is offered; one generator per copy, its inverse spelled as a
    # word of two letters
    S3 = symmetric(3)
    P = S3.subgroup(parse_generator_list("(1,2)", 3))
    M = cyclic(3)
    X = CrossedModule(M, P, hom(M, P, [P.identity]),
                      [hom(M, M, [M.generators[0].inverse()])])
    _, report = induce(X, hom(P, S3, P.generators))
    assert report.stats == _stats("regular", 27, 28, 28, 3, 9, 33, 27)
