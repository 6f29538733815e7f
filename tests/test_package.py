"""Package-wide contracts: what each CLI call runs, and exceptions that cross a process boundary."""

import importlib
import inspect
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from crowdmot.cli import main

SUBMODULES = ("records", "geometry", "targets", "tracker", "evaluator", "sparsegrid", "simulator", "formats")

# Constructor arguments after the message, for the exception classes that take more.
EXTRA_ARGS = {"FrameError": (2,)}


def exception_classes() -> list[type]:
    found = []
    for name in (*SUBMODULES, "cli"):
        module = importlib.import_module(f"crowdmot.{name}")
        found += [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        ]
    return found


def test_exception_classes_are_found():
    names = {cls.__name__ for cls in exception_classes()}
    assert {"ConfigError", "FormatError", "FrameError", "OutOfBoundsError"} <= names


@pytest.mark.parametrize("cls", exception_classes(), ids=lambda cls: cls.__name__)
def test_every_exception_class_survives_pickle(cls):
    # targets' forked workers send a frame's exception back as a pickle.
    exc = cls("duplicate instance_id 3 in frame", *EXTRA_ARGS.get(cls.__name__, ()))
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc) and copy.args == exc.args
    assert vars(copy) == vars(exc)


CONFIG = """\
[sim]
n_pedestrians = 10
n_frames = 6
x_min = -30
x_max = 30
y_min = -20
y_max = 20
target_density2 = 2.5
seed = 4
"""

# Runs in a fresh interpreter. argv None imports crowdmot alone, [] crowdmot.cli
# alone; otherwise main(argv) runs, on a 2-CPU pool that starts at any work
# size when pool is true. Prints the crowdmot submodules that ran (a module
# not yet run is still a lazy module object, and type() does not run it),
# whether numpy is loaded, the top-level modules loaded and the fork count.
PROBE = """\
import json, os, sys, types
argv, pool = json.loads(sys.argv[1])
forks = []
if argv is None:
    import crowdmot
else:
    import crowdmot.cli
    if pool:
        os.sched_getaffinity = lambda pid: {0, 1}
        crowdmot.cli._PARALLEL_MIN_CELLS = 0
        fork = os.fork
        os.fork = lambda: forks.append(1) or fork()
    if argv:
        try:
            code = crowdmot.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2, None), code
ran = sorted(
    name.split(".")[1] for name, module in sys.modules.items()
    if name.startswith("crowdmot.") and name != "crowdmot.cli" and type(module) is types.ModuleType
)
roots = sorted({name.split(".")[0] for name in sys.modules})
print(json.dumps([ran, "numpy" in sys.modules, roots, len(forks)]))
"""


def probe(argv, pool=False):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([argv, pool])], capture_output=True, text=True,
        env={**os.environ, "CROWDMOT_LOG": "quiet"}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    ran, numpy_loaded, roots, forks = json.loads(result.stdout.splitlines()[-1])
    return set(ran), numpy_loaded, set(roots), forks


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "scene.ini").write_text(CONFIG)
    assert main(["gen", "--config", str(root / "scene.ini"), "--out", str(root / "gen")]) == 0
    assert main(["track", "--det", str(root / "gen" / "det.jsonl"), "--out", str(root / "track")]) == 0
    np.save(root / "cloud.npy", np.random.default_rng(0).uniform(-20.0, 20.0, (200, 3)))
    return root


@pytest.mark.parametrize(
    "argv", [None, [], ["--help"], ["--version"], ["track"], ["no-such-command"]],
    ids=["import-crowdmot", "import-cli", "help", "version", "missing-flags", "unknown-command"],
)
def test_start_up_runs_no_submodule_and_imports_no_numpy(argv):
    ran, numpy_loaded, _, _ = probe(argv)
    assert ran == set() and not numpy_loaded


BASE = {"records", "geometry", "formats"}
COMMANDS = {
    "gen": (["gen", "--config", "{i}/scene.ini"], BASE | {"targets", "simulator"}),
    "targets": (
        ["targets", "--gt", "{i}/gen/gt.jsonl", "--grid", "1,1", "--extent=-30,30,-20,20"],
        BASE | {"targets"},
    ),
    "track": (["track", "--det", "{i}/gen/det.jsonl"], BASE | {"tracker"}),
    "eval": (["eval", "--gt", "{i}/gen/gt.jsonl", "--traj", "{i}/track/traj.jsonl"], BASE | {"evaluator"}),
    "density": (["density", "--gt", "{i}/gen/gt.jsonl"], BASE | {"evaluator"}),
    "voxelshapes": (["voxelshapes", "--points", "{i}/cloud.npy", "--topology", "c"], BASE | {"sparsegrid"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_runs_only_its_modules(command, inputs, tmp_path):
    argv, expected = COMMANDS[command]
    argv = [arg.format(i=inputs) for arg in argv] + ["--out", str(tmp_path / "out")]
    ran, numpy_loaded, _, _ = probe(argv)
    assert ran == expected and numpy_loaded
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_the_targets_pool_imports_no_process_machinery(inputs, tmp_path):
    argv, expected = COMMANDS["targets"]
    argv = [arg.format(i=inputs) for arg in argv] + ["--out", str(tmp_path / "out")]
    ran, _, roots, forks = probe(argv, pool=True)
    assert forks == 2 and ran == expected
    assert roots.isdisjoint({"multiprocessing", "concurrent", "logging", "socket", "subprocess"})
    assert (tmp_path / "out" / "manifest.json").is_file()
