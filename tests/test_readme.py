"""README.md names only code that exists: every backticked identifier in it
with an underscore, each dotted part of it, occurs as a word in the
sources, tests, benchmarks or demos, so a rename or a deletion that leaves
the README behind fails here."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "tests", "benchmarks", "demos")


def test_readme_names_only_words_of_the_code():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = {n for n in re.findall(r"`([A-Za-z_][\w.]*)`", readme) if "_" in n}
    words = set()
    for d in CODE_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    stale = sorted(n for n in names
                   if not all(part in words for part in n.split(".") if part))
    assert not stale, f"README.md names code that is gone: {stale}"
