"""Byte-level outputs against the committed goldens.

``xmodlab table --verify --json`` must print exactly
``perfbench/golden/table_verify.json``, and ``induce --dump-xmod`` must
write the same bytes for table rows 6 and 7 as when they were recorded.
"""

import hashlib
from pathlib import Path

import pytest

from xmodlab.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "table_verify.json"

# sha256 of the --dump-xmod file, recorded before every derived subgroup
# was grown by one sifting loop; row 6's also equals
# perfbench/fixtures/row6.json
DUMPS = {
    "row6": ("(1,2,3)",
             "8176c9cb98acd362bdf289a57054eca3b41d4265368717094c99d11c0cf397dd"),
    "row7": ("(1,2)(3,4)",
             "85f36df5c88ae7ca2aee0452b0449ae5982495ac2df23f7fe0f581bd287121be"),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("XMODLAB_LIMIT", raising=False)


def test_table_verify_json_matches_golden(capsys):
    assert main(["table", "--verify", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


@pytest.mark.parametrize("row", sorted(DUMPS))
def test_dump_xmod_bytes_pinned(capsys, tmp_path, row):
    sub, digest = DUMPS[row]
    path = tmp_path / "xmod.json"
    assert main(["induce", "--sub", sub, "--dump-xmod", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
