"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every expected value is produced by an independent oracle coded
here (brute force, enumeration, finite differences) or is exact arithmetic.
"""

import time

import numpy as np
from oracles import Detection, GtObject, box_row, exhaustive_assignment, exhaustive_iou_match, frame_of
from oracles import iou_matrix
import pytest

from crowdmot.cli import main
from crowdmot.evaluator import MatchConfig, density_stats, evaluate_sequence, match_frame, mota
from crowdmot.evaluator import EvalCounts
from crowdmot.formats import sha256_file
from crowdmot.geometry import GridSpec
from crowdmot.simulator import NoiseConfig, SimConfig, corrupt, gen_scene
from crowdmot.sparsegrid import (
    PointCloud,
    VoxelSpec,
    downsample,
    encoder_chain,
    fuse_hr,
    voxelize,
)
from crowdmot.targets import (
    DenseGrid2D,
    LossParams,
    focal_daw_loss,
    make_daw,
    make_heatmap,
    make_relationship_offsets,
)
from crowdmot.tracker import TrackerConfig, associate, run_sequence

AREA = (-60.0, 60.0, -40.0, 40.0)


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def random_loss_grids(rng, nx=64, ny=64, n_objects=8):
    grid = GridSpec(0.0, float(nx), 0.0, float(ny), 1.0, 1.0)
    objs = [
        GtObject(i, box_row(rng.uniform(2, nx - 2), rng.uniform(2, ny - 2)))
        for i in range(n_objects)
    ]
    gt = make_heatmap(frame_of(objs), grid, sigma=1.0)
    weights = make_daw(frame_of(objs), grid, th=2.0)
    pred = DenseGrid2D(grid, rng.uniform(0.05, 0.95, (nx, ny)))
    return pred, gt, weights


def test_criterion_1_loss_gradient_matches_finite_differences():
    """Analytic gradient vs central differences (h=1e-5), rel err 1e-4,
    100 random 64x64 grids, under 10 seconds."""
    rng = np.random.default_rng(101)
    h = 1e-5
    params = LossParams()
    start = time.perf_counter()
    for case in range(100):
        pred, gt, weights = random_loss_grids(rng)
        _, grad = focal_daw_loss(pred, gt, weights, params)

        # Full-grid central differences, exploiting that the loss is a sum of
        # independent per-cell terms (reimplemented here as the oracle).
        n_pos = max(1, int((gt.values == 1.0).sum()))

        def total_terms(p):
            w = np.maximum(weights.values, params.weight_floor)
            pos = gt.values == 1.0
            pos_term = -w * (1.0 - p) ** params.alpha * np.log(p)
            neg_term = (
                -w * (1.0 - gt.values) ** params.gamma * p**params.alpha * np.log1p(-p)
            )
            return np.where(pos, pos_term, neg_term)

        fd = (total_terms(pred.values + h) - total_terms(pred.values - h)) / (2 * h) / n_pos
        denom = np.maximum(np.abs(fd), np.abs(grad.values))
        assert (np.abs(fd - grad.values) <= 1e-4 * denom).all()

        # Structure-blind spot check: perturb single cells through the real
        # loss function.
        for j, k in rng.integers(0, 64, size=(5, 2)):
            up, down = pred.values.copy(), pred.values.copy()
            up[j, k] += h
            down[j, k] -= h
            lu, _ = focal_daw_loss(DenseGrid2D(pred.grid, up), gt, weights, params)
            ld, _ = focal_daw_loss(DenseGrid2D(pred.grid, down), gt, weights, params)
            fd_cell = (lu - ld) / (2 * h)
            assert abs(fd_cell - grad.values[j, k]) <= 1e-4 * max(
                abs(fd_cell), abs(grad.values[j, k])
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    report("1 loss-gradient")


def test_criterion_2_reduces_to_plain_focal_loss():
    """With all weights 1 the loss equals the unweighted focal loss to 1e-12."""
    rng = np.random.default_rng(102)
    for _ in range(20):
        pred, gt, _ = random_loss_grids(rng, nx=48, ny=40, n_objects=6)
        ones = DenseGrid2D(pred.grid, np.ones_like(pred.values))
        loss, _ = focal_daw_loss(pred, gt, ones, LossParams(weight_floor=1.0))

        p = np.clip(pred.values, 1e-7, 1.0 - 1e-7)
        pos = gt.values == 1.0
        plain = np.where(
            pos,
            -((1.0 - p) ** 2.0) * np.log(p),
            -((1.0 - gt.values) ** 4.0) * p**2.0 * np.log1p(-p),
        ).sum() / max(1, int(pos.sum()))
        assert abs(loss - plain) <= 1e-12
    report("2 focal-loss-reduction")


def test_criterion_3_relationship_offsets_match_brute_force():
    """1,000 random scenes up to n=200 against an O(n^2) scan; antisymmetry
    for mutually-nearest pairs."""
    rng = np.random.default_rng(103)
    mutual_checked = 0
    for case in range(1000):
        n = int(rng.integers(0, 201))
        span = rng.uniform(5.0, 60.0)
        xs = rng.uniform(-span, span, n)
        ys = rng.uniform(-span, span, n)
        if case % 5 == 0:
            xs, ys = np.round(xs), np.round(ys)  # provoke exact distance ties
        objs = [GtObject(i, box_row(xs[i], ys[i])) for i in range(n)]
        rel = make_relationship_offsets(frame_of(objs))

        nearest = {}
        for i in range(n):
            d2 = (xs - xs[i]) ** 2 + (ys - ys[i]) ** 2
            d2[i] = np.inf
            order = np.lexsort((np.arange(n), d2))
            j = int(order[0]) if n > 1 else -1
            if n > 1 and d2[j] <= 9.0:
                nearest[i] = j
                assert tuple(rel[i]) == (xs[j] - xs[i], ys[j] - ys[i])
            else:
                nearest[i] = None
                assert np.isnan(rel[i]).all()

        for i, j in nearest.items():
            if j is not None and nearest.get(j) == i:
                assert tuple(rel[j]) == tuple(-rel[i])
                mutual_checked += 1
    assert mutual_checked > 1000
    report("3 relationship-offset-oracle")


def test_criterion_4_perfect_input_bijection():
    """Zero noise, exact offsets, 30 pedestrians, 100 frames, 10 seeds:
    MOTA=1.0 and IDS=FP=FN=0, under 30 seconds."""
    start = time.perf_counter()
    for seed in range(10):
        cfg = SimConfig(
            n_pedestrians=30, n_frames=100, area=AREA, target_density2=3.8, seed=seed
        )
        frames, _ = gen_scene(cfg)
        tracks = run_sequence(corrupt(frames, NoiseConfig(seed=seed)), TrackerConfig())
        metrics = evaluate_sequence(frames, tracks, MatchConfig())
        assert metrics.mota == 1.0
        assert metrics.counts.ids == 0
        assert metrics.counts.fp == 0
        assert metrics.counts.fn == 0
        assert len(set().union(*(f.ids.tolist() for f in tracks))) == 30
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"bijection check took {elapsed:.1f}s"
    report("4 tracker-perfect-input-bijection")


def test_criterion_5_greedy_association_matches_exhaustive():
    """Greedy equals exhaustive assignment on 10,000 random frames with up to
    5 detections/tracks whenever the optimum is unique."""
    rng = np.random.default_rng(105)
    cfg = TrackerConfig()
    ambiguous = 0
    for _ in range(10_000):
        n_tracks = int(rng.integers(0, 6))
        centers = []
        while len(centers) < n_tracks:
            cand = rng.uniform(-8, 8, 2)
            if all(np.hypot(*(cand - c)) >= 1.1 for c in centers):
                centers.append(cand)
        tracks = [(tid, (float(c[0]), float(c[1]))) for tid, c in enumerate(centers)]
        dets = []
        for c in centers:
            if rng.uniform() < 0.2:
                continue  # missed detection
            noise = rng.normal(0, 0.12, 2)
            noise = np.clip(noise, -0.3, 0.3)
            pos = rng.uniform(-8, 8, 2)
            target = c + noise
            dets.append(
                Detection(
                    box=box_row(float(pos[0]), float(pos[1])),
                    score=float(rng.uniform(0.5, 1.0)),
                    offset=(float(target[0] - pos[0]), float(target[1] - pos[1]), 0.0),
                )
            )
        for _ in range(rng.poisson(0.5)):
            while True:
                pos = rng.uniform(-10, 10, 2)
                if not centers or min(np.hypot(*(pos - c)) for c in centers) > 1.4:
                    break
            dets.append(
                Detection(
                    box=box_row(float(pos[0]), float(pos[1])),
                    score=float(rng.uniform(0.5, 1.0)),
                    offset=(0.0, 0.0, 0.0),
                )
            )
        greedy = {
            (i, tid) for i, tid in associate(frame_of(dets), tracks, cfg) if tid is not None
        }
        oracle, unique = exhaustive_assignment(dets, tracks, cfg.max_match_dist)
        if not unique:
            ambiguous += 1
            continue
        assert greedy == set(oracle)
    assert ambiguous < 100
    report("5 greedy-association-oracle")


def test_criterion_6_clear_mot_arithmetic_and_hungarian():
    """MOTA fixture is exact; frame matching equals brute force on 1,000
    random frames with up to 6 boxes per side."""
    assert mota(EvalCounts(ids=1, fp=1, fn=2, p=10)) == 0.6
    assert mota(EvalCounts(ids=0, fp=0, fn=0, p=7)) == 1.0

    rng = np.random.default_rng(106)
    for _ in range(1000):
        n_gt = int(rng.integers(0, 7))
        n_pr = int(rng.integers(0, 7))
        anchors = rng.uniform(-5, 5, size=(max(n_gt + n_pr, 1), 2))
        gts = [
            GtObject(i, box_row(*(anchors[i % len(anchors)] + rng.normal(0, 0.8, 2))))
            for i in range(n_gt)
        ]
        preds = [
            (j, box_row(*(anchors[j % len(anchors)] + rng.normal(0, 0.1, 2))))
            for j in range(n_pr)
        ]
        iou = iou_matrix([g.box for g in gts], [b for _, b in preds])
        result = match_frame(frame_of(gts), frame_of(preds), {}, MatchConfig())
        pairs, total, unique = exhaustive_iou_match(iou, 0.5)
        assert len(result.matches) == len(pairs)
        got_total = sum(iou[gid, tid] for gid, tid in result.matches)
        assert got_total == pytest.approx(total, abs=1e-9)
        if unique:
            assert {(g, t) for g, t in result.matches} == set(pairs)
        assert result.fp == n_pr - len(pairs)
        assert result.fn == n_gt - len(pairs)
    report("6 clear-mot-arithmetic")


def test_criterion_7_density_targets_hit_within_ten_percent():
    """Mean measured Density-2 within +-10% of targets 0.7 and 3.8 over 20
    seeds, under 60 seconds."""
    start = time.perf_counter()
    for target in (0.7, 3.8):
        measured = []
        for seed in range(20):
            cfg = SimConfig(
                n_pedestrians=40,
                n_frames=50,
                area=AREA,
                target_density2=target,
                seed=seed,
            )
            frames, _ = gen_scene(cfg)
            measured.append(density_stats(frames, radius=2.0))
        mean = float(np.mean(measured))
        assert abs(mean - target) <= 0.1 * target, f"target {target}: measured {mean:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"density check took {elapsed:.1f}s"
    report("7 density-control")


def test_criterion_8_crowding_degrades_tracking():
    """Mean MOTA over 20 seeds is non-increasing across density targets
    {0.5, 1, 2, 4} at the fixed noise setting."""
    noise_kw = dict(pos_sigma=0.15, p_miss=0.05, clutter_rate=2.0)
    means = []
    for density in (0.5, 1.0, 2.0, 4.0):
        motas = []
        for seed in range(20):
            cfg = SimConfig(
                n_pedestrians=40,
                n_frames=80,
                area=AREA,
                target_density2=density,
                seed=seed,
            )
            frames, _ = gen_scene(cfg)
            dets = corrupt(frames, NoiseConfig(seed=seed + 1000, **noise_kw))
            tracks = run_sequence(dets, TrackerConfig())
            motas.append(evaluate_sequence(frames, tracks).mota)
        means.append(float(np.mean(motas)))
    assert all(a >= b for a, b in zip(means, means[1:])), f"means not monotone: {means}"
    report("8 crowding-degradation-trend")


def test_criterion_9_voxel_resolution_algebra():
    """Dense bound 2560x1280x40; baseline chain 0.6 m; fused output 0.3 m at
    640x320; occupancy never grows under downsampling. All exact."""
    spec = VoxelSpec()
    assert spec.shape == (2560, 1280, 40)

    rng = np.random.default_rng(109)
    pts = np.column_stack(
        [
            rng.uniform(-90, 90, 600),
            rng.uniform(-45, 45, 600),
            rng.uniform(-4.5, 2.5, 600),
            rng.uniform(0, 1, 600),
            np.zeros(600),
        ]
    )
    base = voxelize(PointCloud(pts), spec)
    sf1, sf2, sf3, sf4 = encoder_chain(base)
    assert sf4.stride == 8 and sf4.resolution[:2] == (0.6, 0.6)

    fused = fuse_hr(sf2, sf4)
    assert fused.stride == 4 and fused.resolution[:2] == (0.3, 0.3)
    assert fused.bev_shape == (640, 320)

    grid = base
    while grid.stride < 8:
        coarser = downsample(grid, grid.channels)
        assert len(coarser) <= len(grid)
        assert {(x // 2, y // 2, z // 2) for x, y, z in grid.occupancy} == coarser.occupancy
        grid = coarser
    report("9 voxel-resolution-algebra")


def test_criterion_10_cli_determinism(tmp_path):
    """Every CLI command rerun with identical inputs writes byte-identical
    files, verified by digests over the full pipeline."""
    config = tmp_path / "scene.ini"
    config.write_text(
        "[sim]\n"
        "n_pedestrians = 12\n"
        "n_frames = 8\n"
        "x_min = -30\nx_max = 30\ny_min = -20\ny_max = 20\n"
        "target_density2 = 2.5\n"
        "seed = 11\n"
        "\n"
        "[noise]\n"
        "pos_sigma = 0.05\np_miss = 0.05\nclutter_rate = 0.5\nseed = 12\n"
    )
    points = tmp_path / "points.npy"
    rng = np.random.default_rng(110)
    np.save(
        points,
        np.column_stack(
            [rng.uniform(-50, 50, 200), rng.uniform(-30, 30, 200), rng.uniform(-3, 2, 200)]
        ),
    )

    # One shared pipeline provides the input files; every command then runs
    # twice against identical inputs into fresh directories.
    gen = tmp_path / "gen"
    assert main(["gen", "--config", str(config), "--out", str(gen)]) == 0
    track = tmp_path / "track"
    assert main(["track", "--det", str(gen / "det.jsonl"), "--out", str(track)]) == 0

    commands = {
        "gen": ["gen", "--config", str(config)],
        "targets": ["targets", "--gt", str(gen / "gt.jsonl"), "--grid", "0.5,0.5",
                    "--extent=-30,30,-20,20", "--dump-pgm"],
        "track": ["track", "--det", str(gen / "det.jsonl")],
        "eval": ["eval", "--gt", str(gen / "gt.jsonl"),
                 "--traj", str(track / "traj.jsonl")],
        "density": ["density", "--gt", str(gen / "gt.jsonl")],
        "voxelshapes": ["voxelshapes", "--points", str(points), "--topology", "c"],
    }

    def digest_dir(root):
        return {
            str(p.relative_to(root)): sha256_file(p)
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        first, second = digest_dir(out_a), digest_dir(out_b)
        assert first.keys() == second.keys()
        mismatched = [f for f in first if first[f] != second[f]]
        assert not mismatched, f"{name} outputs differ: {mismatched}"
    report("10 cli-determinism")
