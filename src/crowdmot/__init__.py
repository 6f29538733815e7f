"""Crowded-pedestrian 3D multi-object-tracking workbench.

The submodules load on first use. ``import crowdmot`` runs none of them and
imports no numpy: it places each submodule in ``sys.modules`` as a module
object that runs its source, and so its own imports, the first time one of
its attributes is read. A name of ``__all__`` read from the package loads its
module then; each CLI call therefore runs only the modules its subcommand uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    # DenseGrid2D comes last, so that __all__ lists it just before the targets' names.
    "geometry": ("Frame", "GridSpec", "bev_iou", "cell_center", "quantize_to_grid", "DenseGrid2D"),
    "targets": (
        "LossParams",
        "focal_daw_loss",
        "make_daw",
        "make_heatmap",
        "make_motion_offsets",
        "make_relationship_offsets",
    ),
    "tracker": ("TrackerConfig", "TrackerState", "associate", "run_sequence", "step"),
    "simulator": ("NoiseConfig", "SimConfig", "corrupt", "density_sweep", "gen_scene"),
    "evaluator": (
        "EvalCounts",
        "MatchConfig",
        "density_stats",
        "evaluate_sequence",
        "match_frame",
        "mota",
        "mtr_mlr",
    ),
    "sparsegrid": (
        "PointCloud",
        "SparseGrid",
        "VoxelSpec",
        "downsample",
        "encoder_chain",
        "fuse_hr",
        "fuse_ms",
        "voxelize",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def _register_lazily(name: str) -> None:
    """Put crowdmot.<name> in sys.modules and on the package, to run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    globals()[name] = module


for _name in (*_EXPORTS, "formats"):
    _register_lazily(_name)
del _name


def __getattr__(name: str):
    # Not cached: a wrapper later set on the submodule is what this returns.
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
