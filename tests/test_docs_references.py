"""Every code reference in the prose docs must resolve.

README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md name modules, files
and CLI subcommands; a deletion that leaves one of them pointing at
nothing fails here. Checked forms:

- a backticked ``repro.<dotted.name>`` imports (longest module prefix)
  and the rest resolves by ``getattr``;
- a backticked ``src/repro/**.py``, ``tests/*.py``, ``benchmarks/*.py``
  or ``examples/*.py`` path (optionally with a ``::test`` suffix, or a
  ``*`` glob) names at least one existing file;
- every ``python -m repro <subcommand>`` is a registered subparser.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.__main__ import main

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)

_BACKTICKED = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"repro(\.[A-Za-z_]\w*)+")
_PATH = re.compile(r"(src/repro|tests|benchmarks|examples)/[\w/*.-]+\.py")
_SUBCOMMAND = re.compile(r"python -m repro ([a-z][\w-]*)")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _references(text: str):
    """Yield ``(kind, reference)`` for every checked form in ``text``."""
    for token in _BACKTICKED.findall(text):
        token = token.split("(")[0].split("::")[0].strip()
        if _DOTTED.fullmatch(token):
            yield "name", token
        elif _PATH.fullmatch(token):
            yield "path", token
    for sub in _SUBCOMMAND.findall(text):
        yield "subcommand", sub


def _subcommand_registered(sub: str) -> bool:
    with pytest.raises(SystemExit) as exit_info:
        main([sub, "--help"])
    return exit_info.value.code == 0


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_doc_references_resolve(doc, capsys):
    dangling = []
    for kind, ref in sorted(set(_references(doc.read_text()))):
        if kind == "name":
            ok = _resolves(ref)
        elif kind == "path":
            ok = any(ROOT.glob(ref))
        else:
            ok = _subcommand_registered(ref)
        if not ok:
            dangling.append(f"{kind}: {ref}")
    capsys.readouterr()  # drop the --help text argparse printed
    assert not dangling, f"{doc.name} references nothing: {dangling}"


def test_checker_catches_each_dangling_form(capsys):
    text = (
        "`repro.engine.no_such_module`, `repro.engine.kernel.NoSuchClass`, "
        "`tests/test_no_such_file.py::TestX`, python -m repro nosuchcommand"
    )
    refs = sorted(set(_references(text)))
    assert [kind for kind, _ in refs] == ["name", "name", "path", "subcommand"]
    assert not any(_resolves(ref) for kind, ref in refs if kind == "name")
    assert not any(ROOT.glob("tests/test_no_such_file.py"))
    assert not _subcommand_registered("nosuchcommand")
    capsys.readouterr()
