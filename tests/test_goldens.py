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
from xmodlab.xmod import CrossedModule, identity_xmod

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "table_verify.json"

# sha256 of the --dump-xmod file, re-recorded when M came to be read off
# the cosets of the copy of P at the identity coset (row 6's M on 24
# points, row 7's on 64); perfbench/fixtures/row6.json keeps row 6 as
# first written, on 72 points
DUMPS = {
    "row6": ("(1,2,3)",
             "44bee9dca43759a44bc052f444268b90f45c100f00d163c11034e35b1da79ea1"),
    "row7": ("(1,2)(3,4)",
             "b449394fdbbd0d593705f8eaa5535a409f35f8a35574716e8fda218af8b2e8fd"),
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


# sha256 of ``induced_presentation(identity_xmod(P), P <= Q)``'s
# ``presentation.to_json()``: the seven S4 rows, the three S5 jobs of
# perfbench/workloads.py and two more subgroups of S5
PRESENTATIONS = {
    ("S4", "row 1"):
        "2440133b371a7e3c56985f9db634fd7b1b0d22120eed71ab9f9ebb3bb036b227",
    ("S4", "row 2"):
        "e294bad2274ae3b996d8acec7e5f1f5bdff98da883f3ce1b298b8241549d5ef4",
    ("S4", "row 3"):
        "9b1b877f4a9f768aa8414ddc2f87a379cfaec834c786170950b204af618eb91e",
    ("S4", "row 4"):
        "91b3f613579ccee76263c4bb82a1387788e56d8c0eee39f29cd742505629c99e",
    ("S4", "row 5"):
        "e2c84afc8f4393510811f7bbf24f71faee3246e2107e2795c4adb17db833037c",
    ("S4", "row 6"):
        "6a8d92f241e65c0e8a8ced1169df98078358094553368d413e4e7201e9a41b05",
    ("S4", "row 7"):
        "c038123040bf7ea235212705b5c2f055a31925819e9a2ed36122950ca6a2b196",
    ("S5", "(1,2,3,4),(1,2)"):
        "8cda76ea07fe46719261f540a66d5fe663afe7aa331947289302e23a20d777f7",
    ("S5", "(1,2)"):
        "0128efab95969dca21c5ae77869eab4364f0dff55ccaa4990378241f320c8c93",
    ("S5", "(1,2,3,4,5)"):
        "1111d7d4029593589453db30c6e43438edbaa1a0386aafc5280ee94bedcf4a87",
    ("S5", "(1,2,3),(1,2)(4,5)"):
        "0671d49893f4a6defce1a1830a2f55afe6cf55adb95edea4624e8fa801499725",
    ("S5", "(1,2,3,4),(1,3)"):
        "9cb9f3d00747596a9d37a36c1434325b8a43dc278b25a62d220e258f19dc49fc",
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


ROW_STATS = (
    _stats("over H", 24, 112, 76, 12, 144, 552, 24),
    _stats("over H", 8, 26, 26, 20, 480, 1800, 8),
    _stats("over H", 12, 62, 52, 12, 162, 624, 12),
    _stats("over H", 6, 21, 20, 12, 207, 804, 6),
    _stats("over H", 24, 67, 48, 6, 36, 144, 24),
    _stats("over H", 24, 86, 67, 8, 64, 248, 24),
    _stats("over H", 64, 232, 122, 12, 144, 552, 64),
)


@pytest.mark.parametrize("row", range(1, 8))
def test_table_row_stats_pinned(table_results, row):
    assert table_results[row - 1][1].stats == ROW_STATS[row - 1]


def test_p_equal_to_q_stats_pinned():
    # one coset of H: the attempt over H falls short, the regular one runs
    S4 = symmetric(4)
    _, report = induce(identity_xmod(S4), hom(S4, S4, S4.generators))
    assert report.stats == _stats("regular", 24, 24, 24, 12, 397, 1564, 24)


def test_trivial_boundary_stats_pinned():
    # C3 inverted by P = <(1,2)> <= S3, boundary trivial: only the regular
    # attempt is offered
    S3 = symmetric(3)
    P = S3.subgroup(parse_generator_list("(1,2)", 3))
    M = cyclic(3)
    X = CrossedModule(M, P, hom(M, P, [P.identity]),
                      [hom(M, M, [M.generators[0].inverse()])])
    _, report = induce(X, hom(P, S3, P.generators))
    assert report.stats == _stats("regular", 27, 47, 39, 6, 42, 150, 27)
