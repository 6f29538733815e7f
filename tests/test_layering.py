"""The modules form one acyclic layering: value types, algorithms, then IO/CLI.

Each module may import only crowdmot modules of an earlier layer. The check
reads the sources with ast, so it sees every import statement, including
ones inside functions, without importing anything.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crowdmot"

# Modules in one layer do not import each other.
LAYERS = [
    {"records"},
    {"geometry"},
    {"targets", "tracker", "evaluator", "sparsegrid"},
    {"simulator"},
    {"formats"},
    {"cli"},
]
LAYER = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def crowdmot_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) for every crowdmot module an import statement names.

    Covers `from .x import y`, `from . import x`, `from crowdmot.x import y`,
    `from crowdmot import x` and `import crowdmot.x`. A name imported from
    the package itself counts only when it is a module, so `from . import
    __version__` names none.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            parent = (["crowdmot"] if node.level else []) + (node.module or "").split(".")
            parent = [part for part in parent if part]
            paths = [parent[:2]] if len(parent) > 1 else [parent + [a.name] for a in node.names]
        else:
            continue
        found += [
            (node.lineno, path[1])
            for path in paths
            if path[0] == "crowdmot" and len(path) > 1 and path[1] in MODULES
        ]
    return found


def back_edges(name: str, source: str) -> list[str]:
    return [
        f"{name}.py:{line} imports {target}"
        for line, target in crowdmot_imports(ast.parse(source))
        if LAYER.get(target, len(LAYERS)) >= LAYER[name]
    ]


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_earlier_layers(name):
    assert back_edges(name, (SRC / f"{name}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, target",
    [
        ("from .formats import write_grid", "formats"),
        ("from . import formats", "formats"),
        ("from crowdmot.formats import write_grid", "formats"),
        ("from crowdmot import formats", "formats"),
        ("import crowdmot.formats", "formats"),
        ("import crowdmot.formats as f", "formats"),
        ("def f():\n    from .formats import write_grid", "formats"),
        ("from . import __version__", None),
        ("from .records import Box3D", "records"),
        ("import numpy", None),
        ("from numpy import zeros", None),
    ],
)
def test_import_forms_are_recognised(source, target):
    found = [module for _, module in crowdmot_imports(ast.parse(source))]
    assert found == ([target] if target else [])


def test_planted_back_edge_is_reported():
    source = (SRC / "simulator.py").read_text() + "\nfrom .formats import write_grid\n"
    line = len(source.splitlines())
    assert back_edges("simulator", source) == [f"simulator.py:{line} imports formats"]
    assert back_edges("records", "from .records import Box3D\n") == ["records.py:1 imports records"]
    assert back_edges("cli", "from . import __version__, formats\n") == []


def assigned_lines(tree: ast.Module, name: str) -> list[int]:
    """The lines of every statement that assigns to `name`, at any depth."""
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets += [(node.lineno, target) for target in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets.append((node.lineno, node.target))
    return sorted(
        line
        for line, target in targets
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Name) and leaf.id == name
    )


def test_the_cell_snap_is_assigned_only_in_geometry():
    # geometry.to_cells is the one cell rule of BEV grids and voxel grids.
    owners = [
        name for name in MODULES if assigned_lines(ast.parse((SRC / f"{name}.py").read_text()), "_SNAP")
    ]
    assert owners == ["geometry"]


@pytest.mark.parametrize(
    "source, lines",
    [
        ("_SNAP = 1e-9", [1]),
        ("x = 1\n_SNAP: float = 1e-9", [2]),
        ("a, _SNAP = 1, 1e-9", [1]),
        ("def f():\n    _SNAP = 1e-9", [2]),
        ("if (_SNAP := 1e-9):\n    pass", [1]),
        ("from .geometry import _SNAP", []),
        ("y = _SNAP + 1", []),
    ],
)
def test_snap_assignments_are_recognised(source, lines):
    assert assigned_lines(ast.parse(source), "_SNAP") == lines


def output_rule_breaks(source: str) -> list[str]:
    """Where cli's source gets around _Output.

    _Output is the one writer of a command's files and its manifest.json,
    and `main` builds it from args.out, so no cmd_* function needs that flag.
    Outside _Output, cli names manifest.json and sha256_file nowhere, and a
    formats writer (write_*, atomic_write_text) only as an argument of out.write.
    """
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        passed = {
            id(arg)
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "out.write"
            for arg in node.args
        }
        for node in ast.walk(top):
            if owner != "_Output" and isinstance(node, ast.Constant) and node.value == "manifest.json":
                found.append(f"{node.lineno}: 'manifest.json' outside _Output")
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            names |= {alias.name for alias in getattr(node, "names", ())}
            if owner != "_Output" and "sha256_file" in names:
                found.append(f"{node.lineno}: sha256_file outside _Output")
            writers = sorted(n for n in names if n and (n.startswith("write_") or n == "atomic_write_text"))
            if owner != "_Output" and writers and id(node) not in passed:
                found += [f"{node.lineno}: {name} outside out.write" for name in writers]
            if (
                owner and owner.startswith("cmd_") and isinstance(node, ast.Attribute)
                and node.attr == "out" and isinstance(node.value, ast.Name) and node.value.id == "args"
            ):
                found.append(f"{node.lineno}: {owner} reads args.out")
    return found


def test_only_the_output_object_writes_the_manifest():
    assert output_rule_breaks((SRC / "cli.py").read_text()) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("class _Output:\n    MANIFEST = 'manifest.json'", []),
        ("class _Output:\n    def done(self, p):\n        return formats.sha256_file(p)", []),
        ("MANIFEST = 'manifest.json'", ["1: 'manifest.json' outside _Output"]),
        ("def _beside(p):\n    return p.parent / 'manifest.json'", ["2: 'manifest.json' outside _Output"]),
        ("def cmd_x(args, out):\n    return formats.sha256_file(p)", ["2: sha256_file outside _Output"]),
        ("from .formats import sha256_file", ["1: sha256_file outside _Output"]),
        ("def cmd_x(args, out):\n    return Path(args.out)", ["2: cmd_x reads args.out"]),
        ("def main(argv):\n    return _Output(args.out, args.command)", []),
        ("def cmd_x(args, out):\n    return out.root, args.outdir", []),
        ("def cmd_x(args, out):\n    out.write('a.grid', formats.write_grid, grid)", []),
        ("class _Output:\n    def done(self):\n        formats.atomic_write_text(p, text)", []),
        ("def _job(out):\n    formats.write_grid(out.root / 'a.grid', grid)", ["2: write_grid outside out.write"]),
        ("def _job(out):\n    out.write('a.pgm', partial(formats.write_pgm), grid)", ["2: write_pgm outside out.write"]),
        ("def _job(out):\n    save(formats.write_grid)", ["2: write_grid outside out.write"]),
        ("from .formats import atomic_write_text", ["1: atomic_write_text outside out.write"]),
        ("def cmd_x(args, out):\n    writer.write(b'')\n    os.write(fd, b'')", []),
    ],
)
def test_output_rule_breaks_are_recognised(source, found):
    assert output_rule_breaks(source) == found


def test_records_uses_only_the_standard_library():
    tree = ast.parse((SRC / "records.py").read_text())
    roots = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ]
    assert roots and all(root.split(".")[0] in sys.stdlib_module_names for root in roots)


def test_every_public_name_resolves():
    import crowdmot

    assert [name for name in crowdmot.__all__ if not hasattr(crowdmot, name)] == []
    assert len(set(crowdmot.__all__)) == len(crowdmot.__all__)


def library_names_on(module) -> list[str]:
    """The names of crowdmot.__all__ that resolve on module, but __version__, which names no library code."""
    import crowdmot

    return sorted(name for name in crowdmot.__all__ if name != "__version__" and hasattr(module, name))


def test_cli_reexports_only_gen_scene():
    # Each library name is read from its own module. crowdmot.cli.gen_scene
    # stays until bench/test_bench.py reads crowdmot.simulator.gen_scene.
    import crowdmot.cli

    assert library_names_on(crowdmot.cli) == ["gen_scene"]


def test_planted_reexports_are_reported():
    import types

    import crowdmot

    table = types.ModuleType("table")
    exec(
        "from crowdmot import evaluator\n"
        "def __getattr__(name):\n"
        "    if name in ('MatchConfig', 'density_stats'):\n"
        "        return getattr(evaluator, name)\n"
        "    raise AttributeError(name)\n",
        table.__dict__,
    )
    assert library_names_on(table) == ["MatchConfig", "density_stats"]
    plain = types.ModuleType("plain")
    plain.__version__, plain.tracker = crowdmot.__version__, crowdmot.tracker
    plain.TrackerConfig = crowdmot.tracker.TrackerConfig
    assert library_names_on(plain) == ["TrackerConfig"]
