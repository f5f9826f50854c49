"""The package runs on the Python standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radii

PACKAGE = Path(radii.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def imported_top_level_names(path: Path) -> set[str]:
    """Top-level module names of every absolute import statement in a file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    names = imported_top_level_names(path)
    assert names - set(sys.stdlib_module_names) - {"radii"} == set()


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--only", "zerosum"],
        ["verify", "--only", "mle"],
        ["explore-interlace", "--nu=0.25", "--count", "20"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_runs_with_numpy_and_scipy_unimportable(argv):
    script = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None  # any import raises\n"
        "from radii.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def fresh_child(body: str) -> str:
    """Stdout of ``body`` in a fresh ``-S`` interpreter that imports this package.

    ``-S`` skips site hooks that might load modules on their own.
    """
    script = f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{body}"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # Start-up cost guard: `dataclasses` pulls in `inspect`, and the two add
    # tens of milliseconds to every cold CLI call.
    out = fresh_child(
        "import radii.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert out == "[]\n"


def test_one_point_commands_leave_the_claim_suite_and_json_unloaded():
    # radii.verify, json and csv load on first use; `import radii` and the
    # radius/bounds commands use neither of the first two, and text output
    # needs no csv.
    out = fresh_child(
        "import radii\n"
        "unused = {'radii.verify', 'json', 'csv'}\n"
        "print(sorted(unused & set(sys.modules)))\n"
        "import radii.cli\n"
        "radii.cli.main(['radius', '--family', 'bessel-circle', '--param', '0.3'])\n"
        "print(sorted(unused & set(sys.modules)))\n"
        "radii.cli.main(['bounds', '--family', 'all', '--param', '0.3', '--format', 'csv'])\n"
        "print(sorted(unused & set(sys.modules)))\n"
    )
    lines = out.splitlines()
    assert (lines[0], lines[2], lines[-1]) == ("[]", "[]", "['csv']")
    assert len(lines) == 3 + 1 + 1 + 6 * 3  # three checks, one radius row, header and 18 bounds


@pytest.mark.parametrize(
    "body, loaded",
    [
        ("import radii", ["radii"]),
        ("from radii import Family, radius_bracket",
         ["radii", "radii.errors", "radii.families", "radii.series", "radii.sums"]),
    ],
    ids=("bare-import", "core-names"),
)
def test_a_name_loads_only_the_layers_it_needs(body, loaded):
    out = fresh_child(f"{body}\nprint(*sorted(m for m in sys.modules if m.startswith('radii')))\n")
    assert out.split() == loaded


def test_submodule_resolves_without_an_import():
    out = fresh_child(
        "import radii\n"
        "print(radii.roots.__name__, radii.roots.find_radius is radii.find_radius)\n"
    )
    assert out == "radii.roots True\n"


def test_every_exported_name_resolves():
    for name in radii.__all__:
        assert getattr(radii, name) is not None, name
    homes = radii._HOME
    for name, module in homes.items():
        obj = getattr(radii, name)
        assert obj is getattr(getattr(radii, module), name), name
        assert obj.__module__ == f"radii.{module}", name  # defined there, not re-exported
    assert sorted([*homes, "__version__"]) == sorted(radii.__all__)
    assert set(radii.__all__) <= set(dir(radii))
    assert radii.run_verify is radii.verify.run_verify


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        radii.no_such_name
