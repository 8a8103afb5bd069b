"""Import guards: the package loads nothing, no command loads scipy, and no
module imports a name it never uses.

A bare ``import thermalmimic`` holds only ``__version__``: it loads no numpy
and no submodule, and gives no name a second, package-level home. scipy is a
test dependency only: importing ``scipy.optimize`` costs about 0.5 s and
44 MB of a fresh process, more than a small ``tomo-end2end`` run spends on its
MLE, and the one fit that used it, ``mimic.optimize_weights``' nonnegative
least squares, is numpy's now. ``import thermalmimic.cli`` loads no
``numpy.random`` either, which would add about 4 ms to a 57 ms import; the
sampler first touches it when it draws. Each check runs in a fresh
interpreter, since this test process has scipy and numpy.random loaded
already.

A ``_``-prefixed name is its module's own: no module of the package imports
one from a sibling or reads one as a sibling module's attribute.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Records, for the first scipy module the child imports, the first frame
# outside importlib and scipy: the module (and line) that pulled scipy in.
_CHILD = r"""
import json, sys

first = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if (name == "scipy" or name.startswith("scipy.")) and not first:
            frame = sys._getframe(1)
            while frame is not None:
                module = frame.f_globals.get("__name__", "")
                if not module.startswith(("importlib", "scipy", "_frozen_importlib")):
                    first.append(f"{module}:{frame.f_lineno} (importing {name})")
                    break
                frame = frame.f_back
        return None

def report(stage, **extra):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({"stage": stage, "scipy": loaded, "importer": first[:1],
                      "numpy_random": "numpy.random" in sys.modules, **extra}))

sys.meta_path.insert(0, Watch())
import thermalmimic
report(
    "import thermalmimic",
    loaded=sorted(m for m in sys.modules
                  if m.split(".")[0] == "numpy" or m.startswith("thermalmimic.")),
    public=sorted(name for name in vars(thermalmimic) if not name.startswith("_")),
)

import thermalmimic.cli
report("import thermalmimic.cli")

out = sys.argv[1]
tomo = ["tomo-end2end", "--source", "thermal", "--nbar", "1.35", "--phases", "8",
        "--samples-per-phase", "25", "--cutoff", "6", "--runs", "2", "--seed", "1",
        "--out-dir", out + "/tomo"]
assert thermalmimic.cli.main(tomo) == 0
report("tomo-end2end --source thermal")

export = ["codebook-export", "--nbar", "1.0", "--codebook-amplitudes", "4",
          "--codebook-phases", "4", "--out-dir", out + "/export"]
assert thermalmimic.cli.main(export) == 0
report("codebook-export")

ensemble = out + "/tomo/ensemble.json"
assert thermalmimic.cli.main(["metrics", ensemble, ensemble, "--out", out + "/m.json"]) == 0
report("metrics")

sweep = ["mimic-sweep", "--scheme", "optimized", "--nbars", "1.0", "--samples", "4,16",
         "--cutoff", "20", "--out-dir", out + "/sweep"]
assert thermalmimic.cli.main(sweep) == 0
report("mimic-sweep --scheme optimized")
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    stages = [json.loads(line) for line in child.stdout.splitlines() if line.startswith("{")]
    assert [s["stage"] for s in stages] == [
        "import thermalmimic", "import thermalmimic.cli", "tomo-end2end --source thermal",
        "codebook-export", "metrics", "mimic-sweep --scheme optimized",
    ]
    bare = stages[0]
    assert not bare["loaded"], f"import thermalmimic loaded {bare['loaded'][:5]}"
    assert not bare["public"], f"the package holds public names {bare['public'][:5]}"
    assert not stages[1]["numpy_random"], "import thermalmimic.cli loaded numpy.random"
    for s in stages:
        assert not s["scipy"], (
            f"{s['stage']} loaded {len(s['scipy'])} scipy modules, first pulled in by "
            f"{s['importer']}: {s['scipy'][:5]}"
        )


def _unused_imports(path: Path) -> list[str]:
    """The names that ``path``'s module-level imports bind and nothing in it reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [(alias.asname or alias.name.split(".")[0], alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(alias.asname or alias.name, alias.name) for alias in node.names]
        else:
            continue
        for name, imported in names:
            bound[name] = f"{path.relative_to(ROOT)}:{node.lineno} imports {imported}"
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [where for name, where in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for top in ("src", "tests", "tools") for p in (ROOT / top).rglob("*.py"))
    assert modules
    unused = [where for path in modules for where in _unused_imports(path)]
    assert not unused, unused


def _sibling(node: ast.ImportFrom) -> str | None:
    """The package module ``node`` imports from ("" for the package itself),
    or None for an import from outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "thermalmimic":
        return node.module.partition(".")[2]
    return None


def _private_reaches(path: Path, siblings: set[str]) -> list[str]:
    """Where ``path`` imports a private name from a sibling module, or reads one
    as an attribute of a sibling module it imported."""
    tree = ast.parse(path.read_text())
    where = path.relative_to(ROOT)
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or (source := _sibling(node)) is None:
            continue
        for alias in node.names:
            if source == "" and alias.name in siblings:
                modules.add(alias.asname or alias.name)
            elif source in siblings and alias.name.startswith("_"):
                found.append(f"{where}:{node.lineno} imports {source}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{where}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_a_private_name_of_a_sibling():
    package = sorted((SRC / "thermalmimic").glob("*.py"))
    siblings = {path.stem for path in package} - {"__init__"}
    assert {"fock", "mimic", "tomo"} <= siblings
    reaches = [where for path in package for where in _private_reaches(path, siblings)]
    assert not reaches, reaches
