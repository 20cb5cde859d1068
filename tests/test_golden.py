"""Groups of the golden sweep (``tests/golden.py``) against their digests in
``tests/golden.json``; CI runs the whole sweep."""

import json
from pathlib import Path

import pytest

import golden

COMMITTED = json.loads((Path(__file__).parent / "golden.json").read_text())
GROUPS = golden.groups()
#: Every group of the quick kinds but the CLI's two ``verify`` suites, and
#: one of each other kind: about 1 s.
QUICK = ("partials", "fuzz", "cli", "known")
TIER1 = [name for name in GROUPS if name.split("/")[0] in QUICK and "-verify-" not in name] + [
    "optima/hinge/gamma=1.0/beta=0.7/unweighted",
    "curves/squared/gamma=1.0/beta=1/gamma/unweighted",
    "verdict/sigmoid/gamma=2.0/beta=0.5/tagged",
]


def test_every_kind_and_every_group_is_committed():
    assert {name.split("/")[0] for name in TIER1} == {name.split("/")[0] for name in GROUPS}
    assert sorted(COMMITTED["groups"]) == sorted(GROUPS)


@pytest.mark.parametrize("name", TIER1)
def test_digest_equals_the_committed_one(name):
    here = golden.fingerprint()
    if here != COMMITTED["fingerprint"]:
        pytest.skip(f"tests/golden.json was written under {COMMITTED['fingerprint']}; this runs under {here}")
    assert golden.digest(name, GROUPS) == COMMITTED["groups"][name]


def test_diff_fails_on_a_moved_group_unless_its_committed_digest_changed(monkeypatch, tmp_path, capsys):
    table = {"a/x": (lambda: ["1"],), "b/y": (lambda: ["2"],)}
    monkeypatch.setattr(golden, "groups", lambda: table)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    assert golden.main(["--write", str(old)]) == 0 and golden.main(["--diff", str(old)]) == 0
    table["b/y"] = (lambda: ["3"],)
    assert golden.main(["--write", str(new)]) == 0
    capsys.readouterr()
    assert golden.main(["--diff", str(old)]) == 1
    assert golden.main(["--diff", str(old), "--committed", str(old), str(new)]) == 0
    assert golden.main(["--diff", str(old), "--committed", str(old), str(old)]) == 1
    moved = "moved b/y\n"
    assert capsys.readouterr().out == moved + "moved b/y (its committed digest changed too)\n" + moved
