"""Crowded-pedestrian 3D multi-object-tracking workbench."""

__version__ = "0.1.0"

from .records import Box3D, BoxBEV
from .geometry import Frame, GridSpec, bev_iou, cell_center, quantize_to_grid
from .targets import (
    DenseGrid2D,
    LossParams,
    focal_daw_loss,
    make_daw,
    make_heatmap,
    make_motion_offsets,
    make_relationship_offsets,
)
from .tracker import TrackerConfig, TrackerState, associate, run_sequence, step
from .simulator import NoiseConfig, SimConfig, corrupt, density_sweep, gen_scene
from .evaluator import (
    EvalCounts,
    MatchConfig,
    density_stats,
    evaluate_sequence,
    match_frame,
    mota,
    mtr_mlr,
)
from .sparsegrid import (
    ChannelMap,
    PointCloud,
    SparseGrid,
    VoxelSpec,
    downsample,
    encoder_chain,
    fuse_hr,
    fuse_ms,
    voxelize,
)

__all__ = [
    "__version__",
    "Box3D",
    "BoxBEV",
    "Frame",
    "GridSpec",
    "bev_iou",
    "cell_center",
    "quantize_to_grid",
    "DenseGrid2D",
    "LossParams",
    "focal_daw_loss",
    "make_daw",
    "make_heatmap",
    "make_motion_offsets",
    "make_relationship_offsets",
    "TrackerConfig",
    "TrackerState",
    "associate",
    "run_sequence",
    "step",
    "NoiseConfig",
    "SimConfig",
    "corrupt",
    "density_sweep",
    "gen_scene",
    "EvalCounts",
    "MatchConfig",
    "density_stats",
    "evaluate_sequence",
    "match_frame",
    "mota",
    "mtr_mlr",
    "ChannelMap",
    "PointCloud",
    "SparseGrid",
    "VoxelSpec",
    "downsample",
    "encoder_chain",
    "fuse_hr",
    "fuse_ms",
    "voxelize",
]
