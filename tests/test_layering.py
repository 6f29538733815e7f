"""The modules form one acyclic layering: geometry, algorithms, then IO/CLI.

Each module may import only crowdmot modules of an earlier layer. The check
reads the sources with ast, so it sees every import statement, including
ones inside functions, without importing anything.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crowdmot"

# Modules in one layer do not import each other.
LAYERS = [
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
        ("from .geometry import Frame", "geometry"),
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
    assert back_edges("geometry", "from .geometry import Frame\n") == ["geometry.py:1 imports geometry"]
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

    _Output is the one reader of a command's input files and writer of its
    files and its manifest.json, and `main` builds it from args.out, so no
    cmd_* function needs that flag. Outside _Output, cli names manifest.json
    and sha256_file nowhere, a formats writer (write_*, atomic_write_text)
    only as an argument of out.write, and a formats reader (formats.read_*)
    only as an argument of out.read, which keeps the digest of what it read.
    """
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        passed = {
            method: {
                id(arg)
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == method
                for arg in node.args
            }
            for method in ("out.write", "out.read")
        }
        for node in ast.walk(top):
            if owner != "_Output" and isinstance(node, ast.Constant) and node.value == "manifest.json":
                found.append(f"{node.lineno}: 'manifest.json' outside _Output")
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            names |= {alias.name for alias in getattr(node, "names", ())}
            if owner != "_Output" and "sha256_file" in names:
                found.append(f"{node.lineno}: sha256_file outside _Output")
            writers = sorted(n for n in names if n and (n.startswith("write_") or n == "atomic_write_text"))
            if owner != "_Output" and writers and id(node) not in passed["out.write"]:
                found += [f"{node.lineno}: {name} outside out.write" for name in writers]
            if (
                owner != "_Output" and isinstance(node, ast.Attribute) and node.attr.startswith("read_")
                and ast.unparse(node.value) == "formats" and id(node) not in passed["out.read"]
            ):
                found.append(f"{node.lineno}: formats.{node.attr} outside out.read")
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
        ("def cmd_x(args, out):\n    frames, _ = out.read(args.gt, formats.read_scene_jsonl)", []),
        ("def cmd_x(args, out):\n    frames, _ = formats.read_scene_jsonl(Path(args.gt))",
         ["2: formats.read_scene_jsonl outside out.read"]),
        ("def cmd_x(args, out):\n    raw = out.write('a', formats.read_npy)", ["2: formats.read_npy outside out.read"]),
        ("def _header(stream):\n    return npy.read_magic(stream)", []),
    ],
)
def test_output_rule_breaks_are_recognised(source, found):
    assert output_rule_breaks(source) == found


def box_rule_breaks(name: str, source: str) -> list[str]:
    """Where a module's source takes over a rule of the box rows.

    A box is a BOX_FIELDS row of a geometry.Frame, so no class declares a
    cx field, in its body or as self.cx; and geometry.wrap_yaw is the one
    yaw wrap, so no other function calls fmod (math.fmod, np.fmod or an
    imported fmod).
    """
    tree = ast.parse(source)
    allowed = set()
    if name == "geometry":
        allowed = {
            id(node)
            for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == "wrap_yaw"
            for node in ast.walk(top)
        }
    found = [
        f"{name}.py:{node.lineno} calls fmod outside geometry.wrap_yaw"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in allowed
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "fmod"
    ]
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        fields = [t.id for stmt in cls.body for t in assignment_targets(stmt) if isinstance(t, ast.Name)]
        fields += [
            t.attr
            for node in ast.walk(cls)
            for t in assignment_targets(node)
            if isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self"
        ]
        if "cx" in fields:
            found.append(f"{name}.py:{cls.lineno} class {cls.name} declares a cx field")
    return found


def assignment_targets(node: ast.AST) -> list[ast.expr]:
    """The targets of an assignment statement; none for any other node."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, ast.AnnAssign) else []


@pytest.mark.parametrize("name", MODULES)
def test_boxes_are_rows_and_wrap_yaw_is_the_one_yaw_wrap(name):
    assert box_rule_breaks(name, (SRC / f"{name}.py").read_text()) == []


@pytest.mark.parametrize(
    "name, source, found",
    [
        ("geometry", "def wrap_yaw(yaw):\n    return np.fmod(yaw + math.pi, 2.0 * math.pi)", []),
        ("simulator", "def wrap_yaw(yaw):\n    return np.fmod(yaw, 2.0)",
         ["simulator.py:2 calls fmod outside geometry.wrap_yaw"]),
        ("geometry", "def footprints(b):\n    return math.fmod(b, 2.0)",
         ["geometry.py:2 calls fmod outside geometry.wrap_yaw"]),
        ("formats", "from math import fmod\nyaw = fmod(a, b)",
         ["formats.py:2 calls fmod outside geometry.wrap_yaw"]),
        ("formats", "yaw = math.remainder(a, b)\nfmod = 1", []),
        ("records", "@dataclass\nclass BoxBEV:\n    cx: float\n    cy: float",
         ["records.py:2 class BoxBEV declares a cx field"]),
        ("formats", "class P:\n    cx = 0.0", ["formats.py:1 class P declares a cx field"]),
        ("formats", "class P:\n    def __init__(self, x):\n        self.cx = x",
         ["formats.py:1 class P declares a cx field"]),
        ("formats", "class P:\n    x: float\n\ncx = 1.0", []),
        ("formats", "class P:\n    def f(self, box):\n        cx = box[0]\n        box.cx = cx", []),
        ("formats", "def f(box):\n    cx = box[0]", []),
    ],
)
def test_box_rule_breaks_are_recognised(name, source, found):
    assert box_rule_breaks(name, source) == found


def unique_rule_breaks(name: str, source: str) -> list[str]:
    """Where a module's source sorts out distinct values with numpy instead of geometry.distinct.

    geometry.distinct is the one sort-unique: no module names a numpy
    unique* function (unique, and numpy 2's unique_values, unique_inverse,
    unique_counts and unique_all), as an attribute of numpy or any alias of
    it, or imported from numpy. np.unique's first call also imports numpy.ma.
    """
    tree = ast.parse(source)
    numpy = {"np", "numpy"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr.startswith("unique")
            and ast.unparse(node.value).split(".")[0] in numpy
        ):
            found.append(f"{name}.py:{node.lineno} uses {ast.unparse(node)} instead of geometry.distinct")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy" and not node.level:
            found += [
                f"{name}.py:{node.lineno} imports {node.module}.{alias.name} instead of geometry.distinct"
                for alias in node.names
                if alias.name.startswith("unique")
            ]
    return found


@pytest.mark.parametrize("name", MODULES)
def test_distinct_is_the_one_sort_unique(name):
    assert unique_rule_breaks(name, (SRC / f"{name}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("import numpy as np\nkeys = np.unique(a)", ["sparsegrid.py:2 uses np.unique instead of geometry.distinct"]),
        ("import numpy\nnumpy.unique(a, return_counts=True)",
         ["sparsegrid.py:2 uses numpy.unique instead of geometry.distinct"]),
        ("from numpy import unique\nunique(a)", ["sparsegrid.py:1 imports numpy.unique instead of geometry.distinct"]),
        ("from numpy import sort, unique as uq", ["sparsegrid.py:1 imports numpy.unique instead of geometry.distinct"]),
        ("np.unique_values(a)", ["sparsegrid.py:1 uses np.unique_values instead of geometry.distinct"]),
        ("np.unique_inverse(a)", ["sparsegrid.py:1 uses np.unique_inverse instead of geometry.distinct"]),
        ("np.unique_counts(a)", ["sparsegrid.py:1 uses np.unique_counts instead of geometry.distinct"]),
        ("np.unique_all(a)", ["sparsegrid.py:1 uses np.unique_all instead of geometry.distinct"]),
        ("import numpy as xp\nkeys = list(map(xp.unique, rows))",
         ["sparsegrid.py:2 uses xp.unique instead of geometry.distinct"]),
        ("def encoder_chain(a):\n    import numpy as np\n    return np.lib.arraysetops.unique(a)",
         ["sparsegrid.py:3 uses np.lib.arraysetops.unique instead of geometry.distinct"]),
        ("from numpy.lib.arraysetops import unique_all",
         ["sparsegrid.py:1 imports numpy.lib.arraysetops.unique_all instead of geometry.distinct"]),
        ("from .geometry import distinct\nkeys = distinct(a, return_inverse=True)", []),
        ("from numpy import sort\nids_unique = table.unique(ids)", []),
        ("raise ValueError('coordinates must be unique')\n# np.unique imports numpy.ma", []),
    ],
)
def test_unique_rule_breaks_are_recognised(source, found):
    assert unique_rule_breaks("sparsegrid", source) == found


def key_rule_breaks(source: str) -> list[str]:
    """Where sparsegrid's source computes more than the cells of its grids.

    A sparse grid is its sorted keys and a channel count, so sparsegrid
    draws no random numbers: it names numpy.random nowhere, as an attribute
    of numpy or any alias of it, or in an import (which default_rng needs).
    Nor does it define a __getattr__, at module level or in a class, that
    could build a field on first read.
    """
    tree = ast.parse(source)
    numpy = {"np", "numpy"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" and ast.unparse(node.value) in numpy:
            found.append(f"sparsegrid.py:{node.lineno} uses {ast.unparse(node)}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [f"{module}.{a.name}" if module else a.name for a in node.names]
            found += [
                f"sparsegrid.py:{node.lineno} imports {name}"
                for name in names
                if name == "numpy.random" or name.startswith("numpy.random.")
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__getattr__":
            found.append(f"sparsegrid.py:{node.lineno} defines __getattr__")
    return found


def test_sparse_grids_are_keys():
    assert key_rule_breaks((SRC / "sparsegrid.py").read_text()) == []


def test_planted_random_draw_is_reported():
    source = (SRC / "sparsegrid.py").read_text() + "\nW = np.random.default_rng(0).standard_normal(3)\n"
    line = len(source.splitlines())
    assert key_rule_breaks(source) == [f"sparsegrid.py:{line} uses np.random"]


@pytest.mark.parametrize(
    "source, found",
    [
        ("import numpy as np\nrng = np.random.default_rng(0)", ["sparsegrid.py:2 uses np.random"]),
        ("import numpy as xp\nw = xp.random.standard_normal(3)", ["sparsegrid.py:2 uses xp.random"]),
        ("from numpy.random import default_rng", ["sparsegrid.py:1 imports numpy.random.default_rng"]),
        ("from numpy import random", ["sparsegrid.py:1 imports numpy.random"]),
        ("import numpy.random as npr", ["sparsegrid.py:1 imports numpy.random"]),
        ("def __getattr__(name):\n    raise AttributeError(name)", ["sparsegrid.py:1 defines __getattr__"]),
        ("class SparseGrid:\n    def __getattr__(self, name):\n        return 0",
         ["sparsegrid.py:2 defines __getattr__"]),
        ("from numpy import sort\nkeys = distinct(a)\ngrid.random = 1", []),
        ("def coords_of(grid):\n    return getattr(grid, 'keys')", []),
    ],
)
def test_key_rule_breaks_are_recognised(source, found):
    assert key_rule_breaks(source) == found


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
