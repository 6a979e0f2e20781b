"""The byte-for-byte comparison of two source trees' ``speclab`` runs."""

from __future__ import annotations

from pathlib import Path

from probes import REASK_PROBES
from same_outputs import compare, runs

SRC = Path(__file__).resolve().parent.parent / "src"

#: A stand-in ``speclab.cli`` that prints, complains, writes two files and exits 3.
FAKE_CLI = """\
import sys
from pathlib import Path

out = Path(sys.argv[sys.argv.index("--out") + 1])
out.mkdir()
(out / "a.txt").write_text("a")
(out / "b.txt").write_text({b!r})
print(sys.argv[1])
print("warned", file=sys.stderr)
sys.exit(3)
"""


def fake_tree(root: Path, b: str) -> Path:
    (root / "speclab").mkdir(parents=True)
    (root / "speclab" / "__init__.py").write_text("")
    (root / "speclab" / "cli.py").write_text(FAKE_CLI.format(b=b))
    return root


def test_a_tree_matches_itself_on_the_rectangle_probe():
    config = {"experiments": [REASK_PROBES["rectangle"]]}
    assert compare(SRC, SRC, "report", config) == (0, [])


def test_a_differing_file_is_named_and_the_rest_match(tmp_path):
    old, new = fake_tree(tmp_path / "old", "b"), fake_tree(tmp_path / "new", "B")
    assert compare(old, new, "verify", {}) == (3, ["b.txt"])
    assert compare(old, old, "verify", {}) == (3, [])


def test_the_runs_cover_the_variants_the_probes_and_three_verbs():
    labels = [(label, verb) for label, verb, _ in runs()]
    assert labels == [
        *[(f"variant{i}", "report") for i in range(9)],
        ("reask-rectangle", "report"),
        ("reask-disk", "report"),
        ("all-checks", "report"),
        ("all-checks", "verify"),
        ("all-checks", "weyl"),
    ]
