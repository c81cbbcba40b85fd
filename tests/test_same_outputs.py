"""The file comparison of scripts/same_outputs.py, on two temporary directories."""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import same_outputs  # noqa: E402


def test_differing_names_changed_and_one_sided_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.csv").write_bytes(b"1,2\n")
        (root / "sub" / "same.json").write_bytes(b"{}")
    assert same_outputs.differing(a, b) == []
    (a / "report.json").write_bytes(b'{"x": 0.1}')
    (b / "report.json").write_bytes(b'{"x": 0.10000000000000002}')
    (a / "sub" / "only_a.svg").write_bytes(b"<svg/>")
    (b / "only_b.exit").write_bytes(b"0\n")
    # a trailing newline is a difference too
    (b / "sub" / "same.json").write_bytes(b"{}\n")
    assert same_outputs.differing(a, b) == ["only_b.exit", "report.json",
                                            "sub/only_a.svg", "sub/same.json"]
    assert same_outputs.differing(b, a) == same_outputs.differing(a, b)

