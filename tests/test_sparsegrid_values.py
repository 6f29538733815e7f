"""Pinned feature values of the encoder stages and both fusion topologies.

The shape tests elsewhere only see occupancy, so a wrong pooling or a wrong
lookup would pass them. These tests compare every coordinate exactly and
every feature within 1e-12 against values stored in
`data/sparsegrid_values.npz`.

The cloud has 50 points. Most sit in a cluster of about 0.7 m, so each stride-2,
-4 and -8 parent pools several children. Five lie far away. Fusing stages of
the whole cloud with stages of the cluster alone makes the resampling meet
empty cells, which must read as zero rows.

Regenerate the file with `python tests/test_sparsegrid_values.py` only when a
change to the values is intended.
"""

from pathlib import Path

import numpy as np
import pytest

from crowdmot.sparsegrid import PointCloud, encoder_chain, fuse_hr, fuse_ms, voxelize

DATA = Path(__file__).parent / "data" / "sparsegrid_values.npz"
N_CLUSTER = 45
WIDTHS = (8, 16, 24, 32)  # narrow, to keep the stored file small


def make_points():
    rng = np.random.default_rng(20)
    cluster = np.column_stack(
        [
            rng.uniform(-0.05, 0.65, N_CLUSTER),
            rng.uniform(-0.05, 0.65, N_CLUSTER),
            rng.uniform(0.3, 0.9, N_CLUSTER),
            rng.uniform(0, 1, N_CLUSTER),
            rng.integers(0, 2, N_CLUSTER).astype(float),
        ]
    )
    far = np.array(
        [
            [40.0, 20.0, 0.0, 0.3, 0.0],
            [40.1, 20.05, 0.1, 0.9, 1.0],
            [-70.0, -30.0, -2.0, 0.5, 1.0],
            [80.0, -40.0, 2.0, 0.1, 0.0],
            [-10.0, 35.0, -4.0, 0.7, 1.0],
        ]
    )
    return np.vstack([cluster, far])


def pinned_grids(points):
    """Every grid whose values are pinned, by name."""
    full = encoder_chain(voxelize(PointCloud(points)), WIDTHS)
    part = encoder_chain(voxelize(PointCloud(points[:N_CLUSTER])), WIDTHS)
    grids = dict(zip(("sf1", "sf2", "sf3", "sf4"), full))
    grids["hr"] = fuse_hr(full[1], full[3])
    grids["ms"] = fuse_ms(*full, width=16)
    # Mixed inputs: the far cells of one grid have no match in the other.
    grids["hr_missing"] = fuse_hr(full[1], part[3])
    grids["ms_missing"] = fuse_ms(part[0], full[1], part[2], full[3], width=24, seed=3)
    return grids


@pytest.fixture(scope="module")
def stored():
    with np.load(DATA) as data:
        return {name: data[name] for name in data.files}


@pytest.fixture(scope="module")
def computed(stored):
    return pinned_grids(stored["points"])


def test_points_are_the_documented_cloud(stored):
    np.testing.assert_array_equal(stored["points"], make_points())


@pytest.mark.parametrize("name", ["sf1", "sf2", "sf3", "sf4", "hr", "ms", "hr_missing", "ms_missing"])
def test_features_match_pins(stored, computed, name):
    coords, features = computed[name].coords, computed[name].features
    np.testing.assert_array_equal(coords, stored[f"{name}_coords"])
    assert features.shape == stored[f"{name}_features"].shape
    np.testing.assert_allclose(features, stored[f"{name}_features"], rtol=1e-12, atol=1e-12)


def test_pins_pool_several_children_and_meet_missing_cells(stored):
    # The cloud must keep exercising what the docstring promises.
    for fine, coarse in (("sf1", "sf2"), ("sf2", "sf3"), ("sf3", "sf4")):
        assert len(stored[f"{coarse}_coords"]) < len(stored[f"{fine}_coords"])
    hr_missing = stored["hr_missing_features"]
    assert (hr_missing[:, 16:] == 0).all(axis=1).any()
    assert not (stored["hr_features"][:, 16:] == 0).all(axis=1).any()


if __name__ == "__main__":
    points = make_points()
    arrays = {"points": points}
    for name, grid in pinned_grids(points).items():
        arrays[f"{name}_coords"], arrays[f"{name}_features"] = grid.coords, grid.features
    DATA.parent.mkdir(exist_ok=True)
    np.savez_compressed(DATA, **arrays)
    print(f"wrote {DATA}")
