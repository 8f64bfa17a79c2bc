"""What the benchmark reads of the package: the functions its traced run
wraps by name, and the fields of a render's image and ledger."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from sartrace.accel import build_bvh, uses_bvh
from sartrace.imaging import render
from sartrace.scatter import WaveConfig
from sartrace.scene import Mesh, ParamMap
from sartrace.scenes import cube_plane_scene, side_looking_radar

from conftest import grid_mesh

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, _ in tracing.BOUNDARIES
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert tracing.BOUNDARIES and missing == []


@pytest.mark.parametrize("path", ["scan", "bvh"])
def test_render_exposes_what_the_workloads_read(path):
    """The terrain and CLI workloads read a ledger's num_entries, weight and
    sigma, and an image's intensities, shape, radar and range_origin."""
    if path == "scan":
        mesh = cube_plane_scene()[0]
    else:       # the grid, centred on the radar's scene centre
        grid = grid_mesh(16)
        mesh = Mesh.from_arrays(grid.vertices - [5.0, 5.0, 0.0], grid.facets)
    bvh = build_bvh(mesh) if path == "bvh" else None
    assert uses_bvh(mesh) == (path == "bvh")
    radar = side_looking_radar(WaveConfig(9.6e9, "HH", "exponential"), distance=6.0,
                               incidence=math.radians(45.0), track_length=2.5, num_azimuth=8,
                               fan_halfwidth=math.radians(20.0), num_angles=16, range_res=0.05,
                               spua=2, seed=7)
    params = ParamMap.constant(mesh.num_vertices, 0.005, 0.01, 25.0, 0.05)
    image, ledger = render(mesh, params, radar, bvh=bvh)
    assert ledger.num_entries == ledger.row.size > 0
    expect = float(np.sum(ledger.weight * ledger.sigma))
    assert abs(float(image.intensities.sum()) - expect) <= 1e-9 * abs(expect)
    assert image.shape == image.intensities.shape
    assert image.radar is radar and image.range_origin == ledger.range_origin
