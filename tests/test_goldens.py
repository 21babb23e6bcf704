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
# 7's 12 became 6; DUMP_CONTENTS below held across that change), and
# with DUMP_CONTENTS when the Peiffer relators each cycle of copies implies
# were left out (the enumeration defines cosets in another order, so M
# comes back as a point-conjugate of the old M, with equal fingerprints and
# an xmod_isomorphic witness to it); perfbench/fixtures/row6.json keeps
# row 6 as first written, on 72 points
DUMPS = {
    "row6": ("(1,2,3)",
             "d3c74c5c171bab6dfc4b91adb80c83c848a00924aa2add71f9766213a56728c1"),
    "row7": ("(1,2)(3,4)",
             "9a0728afc58977f5eac0b4c6701c9d3e8bf010969fd3dc58859ef646140f1353"),
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
    "row6": "b41855ca11585bf14b28aa547cbc2be98f98870c6d349543f86f99210c52044c",
    "row7": "36b7b354847d96f6a8e49eac0dfc334b4c06bba28d29a0d3e268f07a5276ce45",
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
# backed by the reference module (tests/test_induce_paths.py), and all of
# them when the Peiffer relators each cycle of copies implies were left out
# (tests/test_induce.py::TestImpliedPeiffer)
PRESENTATIONS = {
    ("S4", "row 1"):
        "6f6c6d94d48a53cd1f4db4911cb0bdf52aa75f097d1e499c9ce91f10b1d53773",
    ("S4", "row 2"):
        "fb7470c1954abaf472ccbf5275903520b85864b5713f48ea5d391fa7bbe31053",
    ("S4", "row 3"):
        "c6f2fd4d252c671ea957f9a3bdb105cde2145845f53444fde508ccfae057262c",
    ("S4", "row 4"):
        "b46abecb21a9f6bdaed8f7db7284fe013117e9b9c48b85365005d0a05564c6cc",
    ("S4", "row 5"):
        "428421bf95475ed068cadb9bb92c86757e6335bc8af7354cf843e9e05decb9b2",
    ("S4", "row 6"):
        "050437a294e0eed183f29498541cd7164c526f9fdea513a4362044f074d795c3",
    ("S4", "row 7"):
        "65710a9a71356b8e116615817248f1ddff4ff030fa50142eb521490ad4a433e6",
    ("S5", "(1,2,3,4),(1,2)"):
        "5d88cf9146e73343cf999ef7577fa89aaa0ad30f285bf3d00d18ceb8abf7d6f8",
    ("S5", "(1,2)"):
        "20bc17fe3a958eef046f2627b0722b8379819d1715f855b2cdbde4c2136a380c",
    ("S5", "(1,2,3,4,5)"):
        "7eb0e3cbdb8f4fdf340efcab6092a60a912b26f9ce081edaed0f6fb14c24a2cd",
    ("S5", "(1,2,3),(1,2)(4,5)"):
        "9727d79117af7b186d759e56cabf4f77487d3ebe39883c0544059f81c94ade3d",
    ("S5", "(1,2,3,4),(1,3)"):
        "58198f758b27aaf5373366fa8c01f51cf18dddef68f2ab1293d6a61cc3cf82e0",
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


def _stats(path, ncosets, defined, peak_live, skipped, generators, relators,
           relator_letters, degree):
    return {"path": path, "ncosets": ncosets, "defined": defined,
            "peak_live": peak_live, "skipped": skipped,
            "generators": generators,
            "relators": relators, "relator_letters": relator_letters,
            "degree": degree}


# Report.stats of the seven S4 rows; rows 2 and 4, whose M generators are
# not closed under P's action, re-recorded when the action came to be
# spelled as words, and all seven when the Peiffer relators each cycle of
# copies implies were left out; ``skipped`` (the live cosets the early stop
# of Todd-Coxeter left unscanned) added with that stop, no other value
# moved; ``defined``, ``peak_live`` and ``skipped`` of rows 1, 2, 3 and 7
# re-recorded when an involution came to have one coset-table column
ROW_STATS = (
    _stats("over H", 24, 56, 38, 15, 12, 84, 312, 24),
    _stats("over H", 8, 21, 18, 5, 8, 68, 296, 8),
    _stats("over H", 12, 46, 36, 7, 12, 114, 432, 12),
    _stats("over H", 6, 25, 18, 2, 6, 51, 262, 6),
    _stats("over H", 24, 70, 44, 9, 6, 30, 120, 24),
    _stats("over H", 24, 87, 60, 16, 8, 48, 184, 24),
    _stats("over H", 64, 111, 66, 10, 12, 96, 360, 64),
)


@pytest.mark.parametrize("row", range(1, 8))
def test_table_row_stats_pinned(table_results, row):
    assert table_results[row - 1][1].stats == ROW_STATS[row - 1]


def test_p_equal_to_q_stats_pinned():
    # one coset of H: the chain over the cosets falls short, so M acts on
    # S4's 4 points as well, degree 1 + 4; two generators, S4's own
    S4 = symmetric(4)
    _, report = induce(identity_xmod(S4), hom(S4, S4, S4.generators))
    assert report.stats == _stats("over H", 1, 1, 1, 0, 2, 27, 228, 5)


def test_trivial_boundary_stats_pinned():
    # C3 inverted by P = <(1,2)> <= S3, boundary trivial: the regular path
    # runs; one generator per copy, its inverse spelled as a
    # word of two letters
    S3 = symmetric(3)
    P = S3.subgroup(parse_generator_list("(1,2)", 3))
    M = cyclic(3)
    X = CrossedModule(M, P, hom(M, P, [P.identity]),
                      [hom(M, M, [M.generators[0].inverse()])])
    _, report = induce(X, hom(P, S3, P.generators))
    assert report.stats == _stats("regular", 27, 28, 28, 13, 3, 9, 33, 27)


# sha256 of ``xmodlab induce --degree 5 --group S5 --sub SUB --json`` for
# the three subgroups of perfbench/workloads.py's s5_induce, and of the
# ``--dump-xmod`` file of C5 (|M| = 3000 on the 600 cosets of H), recorded
# before the Cayley walk came to run on keys alone: the fingerprint of the
# order-3000 M, its histogram, centre and abelianization, is pinned with
# the rest of the report
S5 = "(1,2,3,4,5),(1,2)"
S5_JSON = {
    "(1,2,3,4),(1,2)":
        "2094e5075b5680843ec27ff9d0d7ce1abc0447305a228561fcee362435674b61",
    "(1,2)":
        "a7a29798ca75fbd8ea87f2bd303f965ccb3a71a25f7937ef06b39d4375f1d4a8",
    "(1,2,3,4,5)":
        "3e52181b639e9158291108c6198d5ccd59958900a0a2f8982edb7a45648437d5",
}
S5_C5_DUMP = "bd03ea973bd5ac1c8652f77164d3278ff6a50256873973f68664c06fe81ef4cd"


@pytest.mark.parametrize("sub", sorted(S5_JSON))
def test_s5_induce_json_pinned(capsys, sub):
    argv = ["induce", "--degree", "5", "--group", S5, "--sub", sub, "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == S5_JSON[sub]


def test_s5_c5_dump_xmod_bytes_pinned(capsys, tmp_path):
    path = tmp_path / "xmod.json"
    assert main(["induce", "--degree", "5", "--group", S5, "--sub",
                 "(1,2,3,4,5)", "--dump-xmod", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == S5_C5_DUMP
