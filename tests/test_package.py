"""The package loads its modules on first use, and each command only the
modules it runs.  The README's Library example and its list of removed
names hold, every module uses each name it imports, and no line of the
package is longer than 100 characters."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rrsched

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rrsched"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from rrsched import *", namespace)
    assert set(rrsched.__all__) <= set(namespace)
    assert set(rrsched.__all__) <= set(dir(rrsched))


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rrsched.no_such_name
    with pytest.raises(ImportError):
        from rrsched import no_such_name  # noqa: F401


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_search_names_the_function_whatever_loads_first():
    # Importing the submodule rrsched.search would bind the module to the
    # package's "search", the name of the exported function.
    out = _fresh("import sys, rrsched.search, rrsched.claims\n"
                 "from rrsched import search\n"
                 "print(rrsched.search is search is sys.modules['rrsched.search'].search)")
    assert out == "True\n"


# Runs ``python -m rrsched ARGS`` and prints the modules loaded at exit.  It
# imports nothing the commands might, json included, so that what it prints
# is what the command loaded.
_RUN = """
import runpy, sys
sys.argv = ["rrsched", *sys.argv[1:]]
try:
    runpy.run_module("rrsched", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.stdout.write("\\n" + repr(sorted(sys.modules)))
"""

_NEVER = {"dataclasses", "inspect"}


@pytest.mark.parametrize("args,runs,absent", [
    (["generate", "--teams", "7", "--method", "odd-optimal"], "rrsched.generators",
     {"rrsched.metrics", "rrsched.search", "rrsched.claims", "json"}),
    (["generate", "--teams", "7", "--method", "circle", "--format", "structured"], "json",
     {"rrsched.metrics", "rrsched.search", "rrsched.claims"}),
    (["evaluate", "SCHEDULE"], "rrsched.metrics",
     {"rrsched.generators", "rrsched.search", "rrsched.claims", "json"}),
    (["search", "--teams", "5", "--min-rest", "1", "--mode", "count"], "rrsched.search",
     {"rrsched.claims", "json"}),
    (["verify", "--claim", "figure-fixtures"], "rrsched.claims", {"json"}),
], ids=["generate", "generate-structured", "evaluate", "search", "verify"])
def test_each_command_imports_only_what_it_runs(tmp_path, args, runs, absent):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("n 3\n1 2\n1 3\n2 3\n")
    args = [str(schedule) if arg == "SCHEDULE" else arg for arg in args]
    # What the interpreter loads before any rrsched code (site hooks, say)
    # does not count against a command.
    before = set(ast.literal_eval(_fresh("import sys; print(sorted(sys.modules))")))
    proc = subprocess.run([sys.executable, "-c", _RUN, *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout.rsplit("\n", 1)[1])) - before
    assert runs in loaded
    assert not loaded & (absent | _NEVER)


def test_readme_library_example_gives_the_values_in_its_comments():
    block = re.search(r"^```python\n(.*?)^```", README, re.M | re.S).group(1)
    lines = block.splitlines()
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        _, hash_, comment = lines[node.end_lineno - 1].partition("#")
        if isinstance(node, ast.Expr) and hash_:
            # "expr  # value" or "expr  # value: remark"
            want = ast.literal_eval(comment.split(":", 1)[0].strip())
            assert eval(code, namespace) == want, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3


def test_no_removed_name_is_an_attribute():
    section = README.split("Removed names and what replaces them:", 1)[1]
    items = re.findall(r"^- (.*?) →", section.split("\n\n#", 1)[0], re.M | re.S)
    removed = {name for item in items for name in re.findall(r"`([A-Za-z_]\w*)", item)}
    assert {"round_of", "slot_of", "report_from_json", "make_schedule",
            "round_structure", "RoundStructure"} <= removed
    assert not {name for name in removed if hasattr(rrsched, name)}
    assert not removed & set(rrsched.__all__)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


def test_no_line_is_longer_than_100_characters():
    long = [f"{path.relative_to(PACKAGE)}:{number}: {len(line)}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []
