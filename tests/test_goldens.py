"""Byte-level outputs against the committed goldens.

``xmodlab table --verify --json`` must print exactly
``perfbench/golden/table_verify.json``, with ``--stats`` too, and
``induce --dump-xmod`` must
write the same bytes for table rows 6 and 7 as when they were recorded.
"""

import hashlib
from pathlib import Path

import pytest

from xmodlab.cli import main

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
