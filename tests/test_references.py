"""Every function, class and method that src/grasschur defines is referenced
somewhere in src/, tests/ or bench/ besides its own definition."""
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITION = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+(\w+)", re.M)


def test_every_defined_name_is_referenced():
    sources = {path: path.read_text() for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")}
    package = ROOT / "src" / "grasschur"
    defined = collections.Counter(name for path, text in sources.items() if package in path.parents
                                  for name in DEFINITION.findall(text))
    assert defined, "no definitions found under src/grasschur"
    words = collections.Counter(word for text in sources.values() for word in re.findall(r"\w+", text))
    # a dunder method is called by the language, not by name
    unreferenced = sorted(name for name, count in defined.items()
                          if words[name] <= count and not (name.startswith("__") and name.endswith("__")))
    assert not unreferenced, f"defined in src/grasschur and referenced nowhere else: {unreferenced}"
