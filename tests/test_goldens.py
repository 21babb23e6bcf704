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
# an xmod_isomorphic witness to it), and again with DUMP_CONTENTS, for the
# same reason and with the same checks, when G came to be presented on the
# generators of the copies T0 alone; perfbench/fixtures/row6.json keeps
# row 6 as first written, on 72 points
DUMPS = {
    "row6": ("(1,2,3)",
             "7872f885b075a7a5e7ae14372bed28ad4bd42c565ce91635b4ad11cc0aed6084"),
    "row7": ("(1,2)(3,4)",
             "de278ced1666b4fec536dcb64432ca21f52191fb492c950d80948cccb11c650f"),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("XMODLAB_LIMIT", raising=False)


def test_table_verify_json_matches_golden(capsys):
    assert main(["table", "--verify", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_stats_leave_stdout_alone(capsys):
    # --stats writes one line per row to stderr; stdout keeps the golden
    # bytes, and every row is read over H: |L| = |P|
    assert main(["table", "--verify", "--json", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN.read_text()
    lines = captured.err.splitlines()
    assert [line.split(" ncosets=")[0] for line in lines] == [
        f"stats: row {row}: subgroup_order={table_subgroup(row).order()}"
        for row in range(1, 8)]
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
    "row6": "b4874b72163d7d2ed724c4cd2fd241474c6859fed05a0218964c34ab5c6a2780",
    "row7": "c3817d4e4e41f9d8ff107cab981ebc3b3b2977b208beea8cc58eda8a43395ea2",
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
# them when the Peiffer relators each cycle of copies implies were left
# out, and all of them again when G came to be presented on the generators
# of the copies T0 alone (tests/test_induce.py::TestElimination backs each
# against the copower relators and the reference module)
PRESENTATIONS = {
    ("S4", "row 1"):
        "2a119a54fd73fe235f37e6bbb37cf7ef1bf9e4ce05d4191e613dc56ec002bf86",
    ("S4", "row 2"):
        "2a077e9e666d86506291d9676f446881388625bd1b6ddd41f018f2c2f20007f8",
    ("S4", "row 3"):
        "0e42a23499aa661529088da85a5be5a0f9c8e49992416b43c6ef0d792d0e20f6",
    ("S4", "row 4"):
        "3897a2bf56ff4f8569e413850f6dc6126f0edc742f0db035886ee8b7887ae488",
    ("S4", "row 5"):
        "21fbe4e4d3fd0c6b07449928870820b1caca012784b157ce23992f90e9557f08",
    ("S4", "row 6"):
        "f748058ee57bdff226a81765fbd573caed46e7dfd9b7b9678966e645d79b1f8c",
    ("S4", "row 7"):
        "cf9e5fb198b7f0e814c474cc9ed9e038436174198a6f8d138e90cf90f16be507",
    ("S5", "(1,2,3,4),(1,2)"):
        "9a4dc87f3599df9cd4ad6fb6644b86096dc872bfeef82cafd964c8cfa5cc2b8c",
    ("S5", "(1,2)"):
        "564c2105e8941ca5ad722a6bae0711594b09feeb8330285828c51ed8643cc437",
    ("S5", "(1,2,3,4,5)"):
        "fa7b1bcbfe33a8422500cbc02b714868dc644f1b50e1c40e86c219fb689930c8",
    ("S5", "(1,2,3),(1,2)(4,5)"):
        "81dc8219a2abf37c88274e18c7e2c0c17daca41a33ef5ddda14d492d45a4670e",
    ("S5", "(1,2,3,4),(1,3)"):
        "27e73feb1e1a9471390bb973c967b18726a58fd4452da6470dbd2da39df84cc0",
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


def _stats(subgroup_order, ncosets, defined, peak_live, generators, relators,
           relator_letters, degree):
    return {"subgroup_order": subgroup_order, "ncosets": ncosets,
            "defined": defined, "peak_live": peak_live,
            "generators": generators, "relators": relators,
            "relator_letters": relator_letters, "degree": degree}


# Report.stats of the seven S4 rows; rows 2 and 4, whose M generators are
# not closed under P's action, re-recorded when the action came to be
# spelled as words, and all seven when the Peiffer relators each cycle of
# copies implies were left out; ``defined`` and ``peak_live`` of rows 1, 2,
# 3 and 7 re-recorded when an involution came to have one coset-table
# column; every row's counters and sizes (not its path, ncosets or degree)
# when G came to be presented on the generators of the copies T0 alone.
# The path ("over H") became ``subgroup_order``, |L| = |P|, when M came to
# be read over the copy of a subgroup L of M on which the boundary is
# injective
ROW_STATS = (
    _stats(2, 24, 39, 31, 3, 17, 138, 24),
    _stats(6, 8, 20, 13, 4, 30, 182, 8),
    _stats(4, 12, 27, 22, 4, 36, 264, 12),
    _stats(8, 6, 40, 22, 4, 26, 162, 6),
    _stats(4, 24, 35, 30, 2, 7, 54, 24),
    _stats(3, 24, 41, 29, 2, 8, 78, 24),
    _stats(2, 64, 81, 65, 6, 48, 276, 64),
)


@pytest.mark.parametrize("row", range(1, 8))
def test_table_row_stats_pinned(table_results, row):
    assert table_results[row - 1][1].stats == ROW_STATS[row - 1]


def test_p_equal_to_q_stats_pinned():
    # one coset of H: the chain over the cosets falls short, so M acts on
    # S4's 4 points as well, degree 1 + 4; two generators, S4's own; the
    # Schreier relators that are cyclic conjugates of others are dropped
    S4 = symmetric(4)
    _, report = induce(identity_xmod(S4), hom(S4, S4, S4.generators))
    assert report.stats == _stats(24, 1, 1, 1, 2, 14, 114, 5)


def test_trivial_boundary_stats_pinned():
    # C3 inverted by P = <(1,2)> <= S3, boundary trivial: L = 1, so G
    # acts regularly on the cosets; one generator per copy, its inverse
    # spelled as a word of two letters
    S3 = symmetric(3)
    P = S3.subgroup(parse_generator_list("(1,2)", 3))
    M = cyclic(3)
    X = CrossedModule(M, P, hom(M, P, [P.identity]),
                      [hom(M, M, [M.generators[0].inverse()])])
    _, report = induce(X, hom(P, S3, P.generators))
    assert report.stats == _stats(1, 27, 28, 28, 3, 9, 33, 27)


# sha256 of ``xmodlab induce --degree 5 --group S5 --sub SUB --json`` for
# the three subgroups of perfbench/workloads.py's s5_induce, and of the
# ``--dump-xmod`` file of C5 (|M| = 3000 on the 600 cosets of H), recorded
# before the Cayley walk came to run on keys alone: the fingerprint of the
# order-3000 M, its histogram, centre and abelianization, is pinned with
# the rest of the report.  The dump re-recorded when G came to be presented
# on the generators of the copies T0 alone: M comes back as a
# point-conjugate, with the report's bytes (both fingerprints) unchanged
S5 = "(1,2,3,4,5),(1,2)"
S5_JSON = {
    "(1,2,3,4),(1,2)":
        "2094e5075b5680843ec27ff9d0d7ce1abc0447305a228561fcee362435674b61",
    "(1,2)":
        "a7a29798ca75fbd8ea87f2bd303f965ccb3a71a25f7937ef06b39d4375f1d4a8",
    "(1,2,3,4,5)":
        "3e52181b639e9158291108c6198d5ccd59958900a0a2f8982edb7a45648437d5",
}
S5_C5_DUMP = "e83611dc03d9d54054b851831b3f68fb68ea8c5da141984edf93835c83dfcee8"


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
