"""Tests of the benchmark itself: span arithmetic, inputs, output checks, metric names."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans


def _tiny_inputs(seed: int) -> dict:
    sim = dict(n_pedestrians=6, n_frames=4, x_min=-15, x_max=15, y_min=-15, y_max=15,
               target_density2=1.0, seed=seed)
    noise = dict(pos_sigma=0.05, p_miss=0.0, clutter_rate=0.5, seed=seed + 1)
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(-10, 10, (200, 2)), rng.uniform(-2, 0, 200),
                              rng.uniform(0, 1, 200), np.repeat([0.0, 1.0], 100)])
    buffer = io.BytesIO()
    np.save(buffer, points)
    return {"tiny.ini": run._ini(sim, noise), "cloud.npy": buffer.getvalue()}


# Every stage once, at sizes that run in well under a second.
TINY = run.Workload("tiny", _tiny_inputs, (
    ("gen", ("gen", "--config", "tiny.ini", "--out", "run/gen")),
    ("targets", ("targets", "--gt", "run/gen/gt.jsonl", "--out", "run/targets",
                 "--grid", "1,1", "--extent=-15,15,-15,15", "--dump-pgm")),
    ("track", ("track", "--det", "run/gen/det.jsonl", "--out", "run/track")),
    ("eval", ("eval", "--gt", "run/gen/gt.jsonl", "--traj", "run/track/traj.jsonl",
              "--out", "run/eval")),
    ("density", ("density", "--gt", "run/gen/gt.jsonl", "--out", "run/density")),
    ("voxel_a", ("voxelshapes", "--points", "cloud.npy", "--out", "run/vox_a")),
))
DENSITY_CALL = 4


@pytest.fixture
def tiny_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CROWDMOT_LOG", "quiet")
    run.write_inputs(TINY, 3, tmp_path)
    return tmp_path


def test_self_time_subtracts_the_union_of_child_intervals():
    # name, start, end, parent, pass
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["a.child", 1.5, 2.5, 1, 0],
        ["b", 2.0, 5.0, 0, 0],  # overlaps a: the union [1, 5] is covered once
        ["c", 9.0, 12.0, 0, 0],  # runs past the root's end: only [9, 10] counts
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.0, 1.0, 3.0, 3.0])


def test_summary_takes_per_pass_calls_and_median_self_time():
    tracer = spans.Tracer(spans=[
        ["cli.track", 0.0, 4.0, -1, 1],
        ["tracker.step", 1.0, 2.0, 0, 1],
        ["tracker.step", 2.0, 4.0, 0, 1],
        ["cli.track", 10.0, 11.0, -1, 3],
        ["tracker.step", 10.0, 10.5, 3, 3],
        ["tracker.step", 10.5, 11.0, 3, 3],
    ])
    metrics, samples = spans.summarize(tracer, absent=["simulator._calibrate_spread"])
    assert metrics["tracker.step.calls"] == 2
    assert metrics["tracker.step.self_s"] == pytest.approx((3.0 + 1.0) / 2)
    assert metrics["cli.track.self_s"] == pytest.approx((1.0 + 0.0) / 2)
    assert metrics["tracker.step.p50_ms"] == pytest.approx(750.0)
    assert metrics["simulator._calibrate_spread.calls"] == 0
    assert samples["simulator._calibrate_spread.calls"] == 0


def test_a_removed_helper_is_reported_absent_and_others_still_wrapped():
    import crowdmot.cli

    probes = (
        spans.Probe("simulator", "crowdmot.simulator", "_no_such_helper"),
        spans.Probe("records", "crowdmot.no_such_module", "gen_scene"),
        spans.Probe("simulator", "crowdmot.simulator", "gen_scene"),
    )
    installed = spans.Installed(spans.Tracer(), probes)
    try:
        assert installed.absent == ["simulator._no_such_helper", "records.gen_scene"]
        assert hasattr(crowdmot.cli.gen_scene, "__wrapped__")
    finally:
        installed.remove()
    assert not hasattr(crowdmot.cli.gen_scene, "__wrapped__")


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name, tmp_path):
    workload = run.WORKLOADS[name]
    for seed in (0, 7):
        first, second = tmp_path / f"{seed}a", tmp_path / f"{seed}b"
        for where in (first, second):
            where.mkdir()
            run.write_inputs(workload, seed, where)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    assert workload.inputs(0) != workload.inputs(7)


def test_clean_passes_have_no_failed_calls(tiny_dir):
    reference = run.reference_for(TINY)
    first = run.run_pass(TINY)
    run.check_pass(TINY, first, None, reference)
    second = run.run_pass(TINY)
    run.check_pass(TINY, second, first, None)
    assert first.errors == {} and second.errors == {}
    assert first.codes == [0] * len(TINY.calls)


def test_pass_time_is_divided_by_the_mean_calibration_time(tiny_dir):
    done = run.run_pass(TINY)
    assert len(done.calibration) == len(TINY.calls) + 1
    assert done.total_s == pytest.approx(sum(done.seconds))
    timed = run.Pass(traced=False, seconds=[1.0, 2.0], codes=[0, 0],
                     calibration=[0.1, 0.2, 0.3], total_s=3.0)
    assert timed.relative == pytest.approx(15.0)


def test_corrupted_output_is_a_failed_call(tiny_dir):
    first = run.run_pass(TINY)
    run.check_pass(TINY, first, None, None)
    second = run.run_pass(TINY)
    density = Path("run/density/density.txt")
    density.write_text(density.read_text().replace("density@", "density @"))
    run.check_pass(TINY, second, first, None)
    assert list(second.errors) == [DENSITY_CALL]
    assert any("manifest" in msg for msg in second.errors[DENSITY_CALL])


def test_wrong_values_fail_the_first_pass_checks(tiny_dir):
    reference = run.reference_for(TINY)
    key = next(iter(reference["grids"]))
    reference["grids"][key] = "0" * 64
    done = run.run_pass(TINY)
    run.check_pass(TINY, done, None, reference)
    assert list(done.errors) == [1]
    assert "values differ" in done.errors[1][0]


def test_every_printed_metric_is_declared_in_benchmark_json(tiny_dir):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == dict(run.END_TO_END)
    assert per_layer == {name: unit for name, unit, _ in spans.layer_metrics()}

    passes, tracer, absent = run.measure(TINY, 3, 0.0, trace=True)
    assert passes[0].calibration == [] and not passes[0].traced
    untraced = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes if p.traced]
    assert untraced and traced and absent == []
    assert all(p.errors == {} for p in passes)
    layer, _ = run.layer_result(TINY, tracer, absent, untraced, traced)
    assert set(layer) == set(per_layer)
    assert layer["cli.voxel_a.wall_s"] > 0 and layer["sparsegrid.voxelize.calls"] == 1
    setup = [(0.5, 0.1), (0.7, 0.07), (0.6, 0.05)]
    e2e, _ = run.end_to_end_result(setup, passes[0], untraced)
    assert set(e2e) == set(end_to_end) and all(v > 0 for v in e2e.values())
    # scaled: 0.5 * 0.07 / 0.1, 0.7 * 0.07 / 0.07, 0.6 * 0.07 / 0.05
    assert e2e["setup_s"] == pytest.approx(0.7 * run.CAL_REFERENCE_S / 0.07)
