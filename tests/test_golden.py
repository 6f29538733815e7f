"""Golden digests: the whole CLI pipeline on a small dense crowd, pinned byte for byte.

Reruns are compared with themselves elsewhere; this test compares them with
fixed SHA-256 digests, so a refactor that changes a number in them fails here.
The crowd is dense enough that every neighbour search has work to do: 300
pedestrians in 60 m x 40 m with a density target of 3 neighbours within 2 m,
with clutter and relationship offsets on. The heatmap and weight grids and
their PGM dumps are pinned together by one digest over their sorted
(name, digest) list. A second eval at IoU threshold 0.05 links many GT
objects and predictions into shared matching components. Three more gen
runs pin simulator branches that crowd misses: a density at the uniform
floor, so every pedestrian sits on its own anchor; a long run in a narrow
strip, where anchors bounce off the walls hundreds of times, several times
within one frame; and heavy clutter, misses and score clipping with
relationship offsets on. voxelshapes is pinned for each topology on a fixed
seeded point cloud.
"""

import hashlib

import numpy as np
import pytest

from crowdmot import sparsegrid
from crowdmot.cli import main
from crowdmot.formats import sha256_file
from crowdmot.geometry import distinct

CONFIG = """\
[sim]
n_pedestrians = 300
n_frames = 4
x_min = -30
x_max = 30
y_min = -20
y_max = 20
target_density2 = 3
seed = 0

[noise]
pos_sigma = 0.1
offset_sigma = 0.05
p_miss = 0.05
clutter_rate = 3
emit_rel = true
seed = 1
"""

GOLDEN = {
    "gen/gt.jsonl": "c979c2236010aeed26db49c9ced8d27a68afe207460e5bb95fd3189fad95b305",
    "gen/det.jsonl": "fec64121749fab6cc24013cd401c57494281581c72ae5a96ab1e982191fd43d3",
    "targets/offsets.jsonl": "b1fea7e7dcb5997bea3c866307e34d22abdb309795adeaaadf53d50e47829b77",
    "track/traj.jsonl": "b8109c79d88809ab922bc4f1609bc34747c6212e4a5b8e3626f9e59bb9f321e8",
    "eval/report.txt": "710b65ac1bd755b21dfb36b43455c258a89def2fed27fb33dc04705409753069",
    "density/density.txt": "6f1916e98ef5b0bdd2e0dd357275efe128a9178156b75433f759f51e9234c5ea",
    "eval_low/report.txt": "447e4e0a6839891509683c07f11d34af5b3433f1ad91e5015952da966d5152ae",
}

# SHA-256 of the "name digest" lines, sorted by name, of every heatmap_* and
# weights_* .grid and .pgm file that targets writes (4 frames, 16 files).
GOLDEN_GRIDS = "6da539df8ca22fd0f7ea151c64f6898b371f2faa7fe42cd2550b87e231d590f1"


def test_pipeline_outputs_match_golden_digests(tmp_path, monkeypatch):
    # Relative paths: the eval report names its inputs.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "crowd.ini").write_text(CONFIG)
    for argv in (
        ["gen", "--config", "crowd.ini", "--out", "gen"],
        ["targets", "--gt", "gen/gt.jsonl", "--out", "targets",
         "--extent=-30,30,-20,20", "--grid", "0.5,0.5", "--dump-pgm"],
        ["track", "--det", "gen/det.jsonl", "--out", "track"],
        ["eval", "--gt", "gen/gt.jsonl", "--traj", "track/traj.jsonl", "--out", "eval"],
        ["eval", "--gt", "gen/gt.jsonl", "--traj", "track/traj.jsonl", "--out", "eval_low",
         "--iou-th", "0.05"],
        ["density", "--gt", "gen/gt.jsonl", "--out", "density"],
    ):
        assert main(argv) == 0, argv
    assert {name: sha256_file(tmp_path / name) for name in GOLDEN} == GOLDEN
    grids = sorted(
        path
        for pattern in ("heatmap_*", "weights_*")
        for path in (tmp_path / "targets").glob(pattern)
    )
    assert [path.suffix for path in grids] == [".grid", ".pgm"] * 8
    listing = "".join(f"{path.name} {sha256_file(path)}\n" for path in grids)
    assert hashlib.sha256(listing.encode()).hexdigest() == GOLDEN_GRIDS


GEN_SCENES = {
    "uniform": (
        "[sim]\nn_pedestrians = 200\nn_frames = 5\nx_min = -30\nx_max = 30\ny_min = -20\n"
        "y_max = 20\ntarget_density2 = 1.05\nseed = 3\n\n"
        "[noise]\npos_sigma = 0.05\np_miss = 0.1\nseed = 4\n",
        "0b09990cc76464b627c4e8cb60d9a3e2eabd68c40ce12ae28789c17a4f84b344",
        "e598b8844e6902fa4f750809bdab6929ae5fa8cc3bcd40730c0abae8c289db4a",
    ),
    "narrow": (
        "[sim]\nn_pedestrians = 24\nn_frames = 120\nx_min = 0\nx_max = 40\ny_min = 0\n"
        "y_max = 2.5\ntarget_density2 = 3\nspeed_min = 1.0\nspeed_max = 3.0\nframe_rate = 2\n"
        "seed = 5\n\n"
        "[noise]\npos_sigma = 0.05\noffset_sigma = 0.02\nseed = 6\n",
        "c40ed353b40a385bc1f68f6ce996f6b037bcd02dad51d192db045884eb373d18",
        "91e3a5d9c6b3071799f7584323a8fd0c36ea083c1c26afe9e7670fbc4ea190c2",
    ),
    "clutter": (
        "[sim]\nn_pedestrians = 60\nn_frames = 6\nx_min = -15\nx_max = 15\ny_min = -10\n"
        "y_max = 10\ntarget_density2 = 2\nseed = 7\n\n"
        "[noise]\npos_sigma = 0.2\noffset_sigma = 0.1\np_miss = 0.3\nclutter_rate = 12\n"
        "score_true_mean = 0.95\nscore_true_sigma = 0.2\nscore_clutter_mean = 0.2\n"
        "score_clutter_sigma = 0.3\nemit_rel = true\nseed = 8\n",
        "96483433dd16add670f85a41102669a00cee67a674a8c8ff2e7ebbd2de806dc4",
        "de172bd96b3e42bf5e3ab1e4cecac67b7f19005800c0064ef99e900e2be22689",
    ),
}


@pytest.mark.parametrize("scene", sorted(GEN_SCENES))
def test_gen_scene_matches_golden_digests(tmp_path, scene):
    config, gt_digest, det_digest = GEN_SCENES[scene]
    (tmp_path / "scene.ini").write_text(config)
    out = tmp_path / "gen"
    assert main(["gen", "--config", str(tmp_path / "scene.ini"), "--out", str(out)]) == 0
    assert sha256_file(out / "gt.jsonl") == gt_digest
    assert sha256_file(out / "det.jsonl") == det_digest


VOXELSHAPES = {
    "a": "4cc79ecedc55d9cc9a5ffb154d74fa15d69071b179ab946661eb6860622c33af",
    "b": "54a5c23bdc0c2de99e4efa1f4f802ec5f31e8e8cdc40fa092fd5054588d99151",
    "c": "69203049d7dd2c69697d3577d23a34f69e4b940769df9965b2c6367dc9a5a073",
}


def _cloud() -> np.ndarray:
    """Two 3000-point frames: ground returns and 40 person-sized clusters."""
    rng = np.random.default_rng(20)
    frames = []
    for flag in (0.0, 1.0):
        ground = np.column_stack([
            rng.uniform(-30.0, 30.0, 1500), rng.uniform(-20.0, 20.0, 1500),
            rng.normal(-1.8, 0.02, 1500),
        ])
        centres = np.random.default_rng(21).uniform(-25.0, 25.0, (40, 2))
        who = rng.integers(0, 40, 1500)
        body = np.column_stack([
            centres[who] + rng.normal(0.0, 0.2, (1500, 2)) + 0.1 * flag,
            rng.uniform(-1.8, -0.1, 1500),
        ])
        xyz = np.vstack([ground, body])
        frames.append(np.column_stack([xyz, rng.uniform(0.0, 1.0, 3000), np.full(3000, flag)]))
    return np.vstack(frames)


@pytest.mark.parametrize("topology", sorted(VOXELSHAPES))
def test_voxelshapes_table_matches_golden_digest(tmp_path, topology):
    np.save(tmp_path / "cloud.npy", _cloud())
    out = tmp_path / "vox"
    assert main(["voxelshapes", "--points", str(tmp_path / "cloud.npy"), "--out", str(out),
                 "--topology", topology]) == 0
    assert sha256_file(out / "voxelshapes.txt") == VOXELSHAPES[topology]


@pytest.mark.parametrize("topology", sorted(VOXELSHAPES))
def test_voxelshapes_table_computes_no_feature(tmp_path, monkeypatch, topology):
    # The table is planned from voxelize's keys alone: with the input grid's
    # coordinate unpacking, every stage function and the per-stride
    # coarsening made to raise, it still has the golden bytes. Past voxelize's own distinct, it sorts once more (_stage_counts
    # sorts its keys itself), so a per-stage distinct would show here.
    def refuse(*args, **kwargs):
        raise AssertionError("the voxelshapes table unpacked cells or built a stage")

    for name in ("_unpack", "_coarsen", "downsample", "encoder_chain", "fuse_hr", "fuse_ms"):
        monkeypatch.setattr(sparsegrid, name, refuse)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return distinct(*args, **kwargs)

    monkeypatch.setattr(sparsegrid, "distinct", counted)
    test_voxelshapes_table_matches_golden_digest(tmp_path, topology)
    assert len(calls) == 1
