"""Docs cannot rot silently: every ```python block in docs/*.md executes,
every relative link in docs/*.md + README.md resolves, and every
``python -m repro`` / ``python -m repro.bench`` command they show names
a verb the real parser accepts.

Blocks in one file share a namespace and run top to bottom (so later
blocks may reuse earlier imports, like a reader following along).  Code
that is illustrative rather than runnable belongs in ```text / ```sh
fences.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOCS = sorted((REPO / "docs").glob("*.md"))
LINKED = DOCS + [REPO / "README.md"]

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.M | re.S)
# [text](target) links, ignoring images and in-page anchors
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
# `python -m repro <verb>` / `python -m repro.bench <report>`; the
# submodule CLIs (`repro.verify`, `repro.serve`) do not match
_COMMAND = re.compile(r"python -m repro(\.bench)? ([a-z][\w-]*)")


def _python_blocks(path: Path):
    return [match.group(1) for match in _FENCE.finditer(path.read_text())]


def test_docs_tree_exists():
    names = {path.name for path in DOCS}
    assert {"architecture.md", "formats.md", "routing.md",
            "performance.md", "plans.md", "serve.md"} <= names


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_docs_code_blocks_execute(path, monkeypatch):
    blocks = _python_blocks(path)
    assert blocks, f"{path.name} has no executable python blocks"
    monkeypatch.chdir(REPO)  # blocks read benchmarks/harness/baseline.json
    namespace = {"__name__": f"docs_{path.stem}"}
    for index, block in enumerate(blocks):
        try:
            exec(compile(block, f"{path.name}[block {index}]", "exec"),
                 namespace)
        except Exception as exc:  # pragma: no cover - the assert is the report
            pytest.fail(
                f"{path.name} block {index} failed: {type(exc).__name__}: {exc}"
            )


@pytest.mark.parametrize("path", LINKED, ids=lambda p: p.name)
def test_docs_links_resolve(path):
    broken = []
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue  # pure in-page anchor
        if not (path.parent / relative).exists():
            broken.append(target)
    assert not broken, f"{path.name}: broken links {broken}"


def _documented_commands():
    found = set()
    for path in LINKED:
        for bench, verb in _COMMAND.findall(path.read_text()):
            found.add(("repro.bench" if bench else "repro", verb))
    return sorted(found)


@pytest.mark.parametrize("module,verb", _documented_commands())
def test_documented_commands_parse(module, verb):
    if module == "repro.bench":
        from repro.bench.__main__ import main
    else:
        from repro.__main__ import main
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"])
    assert exit_info.value.code == 0, f"python -m {module} {verb}: not a command"
