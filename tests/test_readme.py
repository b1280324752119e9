"""README.md names only code that exists: every backticked identifier in it
with an underscore, each dotted part of it, occurs as a word in the
sources, tests, benchmarks or demos, and every backticked dotted name that
starts at ``specmul``, one of its modules or a name in one resolves
attribute by attribute, so a rename or a deletion that leaves the README
behind fails here."""

import importlib
import pkgutil
import re
from pathlib import Path

import specmul

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "tests", "benchmarks", "demos")
README = (ROOT / "README.md").read_text(encoding="utf-8")
NAMES = set(re.findall(r"`([A-Za-z_][\w.]*)`", README))
# file names, such as ``errors.py``, are dotted too but name no attribute
FILE_SUFFIXES = {"py", "toml", "json", "md"}


def test_readme_names_only_words_of_the_code():
    names = {n for n in NAMES if "_" in n}
    words = set()
    for d in CODE_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    stale = sorted(n for n in names
                   if not all(part in words for part in n.split(".") if part))
    assert not stale, f"README.md names code that is gone: {stale}"


def _resolves(obj, parts) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_dotted_names_resolve():
    modules = {m.name: importlib.import_module(f"specmul.{m.name}")
               for m in pkgutil.iter_modules(specmul.__path__)}
    roots = {"specmul": specmul, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            roots.setdefault(name, value)
    checked, stale = [], []
    for name in sorted(NAMES):
        head, *rest = name.split(".")
        if not rest or head not in roots or rest[-1] in FILE_SUFFIXES:
            continue
        checked.append(name)
        if not _resolves(roots[head], rest):
            stale.append(name)
    assert checked, "README.md names no dotted specmul code"
    assert not stale, f"README.md names attributes that are gone: {stale}"
