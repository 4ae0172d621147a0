"""The surface that outside code reads: every function the benchmark tracer
wraps, every name the package exports, README's Library example with the
results its comments state, README's command lines, and the console script
that pyproject.toml installs."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import entrank
from entrank import cli

ROOT = Path(__file__).resolve().parent.parent


def tracer_targets():
    """``TARGETS`` of perfbench/tracer.py, read from its source without
    importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


def test_every_tracer_target_resolves():
    """A traced run leaves out the metrics of a target that is missing."""
    targets = tracer_targets()
    assert targets
    missing = [
        span for module, attr, span in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in entrank.__all__ if not hasattr(entrank, name)] == []
    assert len(set(entrank.__all__)) == len(entrank.__all__)


def matches(comment, value):
    """Whether repr(value) reads as ``comment``, where "..." stands for any text."""
    pattern = ".*".join(re.escape(piece) for piece in comment.split("..."))
    return re.fullmatch(pattern, repr(value)) is not None


def test_readme_library_example_gives_its_commented_results():
    """Each line of the example runs in order. A comment after an expression,
    or on the line after one, states repr of its value."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    start = library.index("```python\n") + len("```python\n")
    block = library[start : library.index("```", start)]
    namespace: dict = {}
    checked, value = 0, None
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code:
            try:
                value = eval(compile(code, "README.md", "eval"), namespace)
            except SyntaxError:
                exec(compile(code, "README.md", "exec"), namespace)
                value = None
        if comment:
            assert matches(comment, value), (line, repr(value))
            checked += 1
    assert checked >= 5


def readme_command_lines():
    """The ``entrank`` lines of README's Command line block, without their
    comments, split as a shell would."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Command line"):]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start : section.index("```", start)]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("entrank ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """In order, in an empty directory: gen writes the file the others read."""
    monkeypatch.chdir(tmp_path)
    lines = readme_command_lines()
    assert [argv[1] for argv in lines] == [
        "gen", "analyze", "factorize", "check-partition", "ppt", "bench"
    ]
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
    assert "verdict: ENTANGLED" in capsys.readouterr().out


def test_console_script_is_cli_main():
    """``[project.scripts]`` installs ``entrank`` as ``entrank.cli:main``."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", pyproject, re.M)
    assert section is not None
    entry = re.fullmatch(r'entrank\s*=\s*"([\w.]+):(\w+)"', section.group(1).strip())
    assert entry is not None, section.group(1)
    target = getattr(importlib.import_module(entry.group(1)), entry.group(2))
    assert callable(target) and target is cli.main
