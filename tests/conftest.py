import importlib.util
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from sartrace import accel
from sartrace.imaging import RadarConfig
from sartrace.scatter import WaveConfig
from sartrace.scene import Mesh, ParamMap, write_obj
from sartrace.scenes import merge_meshes, plane_mesh


@pytest.fixture
def wave_hh():
    return WaveConfig(9.6e9, "HH", "gaussian")


@pytest.fixture
def two_facet_mesh():
    """Two side-by-side upward-facing triangles near the origin."""
    vertices = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [1.2, 0.0, 0.0], [2.2, 0.0, 0.0], [1.2, 1.0, 0.0],
    ])
    facets = np.array([[0, 1, 2], [3, 4, 5]])
    return Mesh.from_arrays(vertices, facets)


@pytest.fixture
def small_radar(wave_hh):
    """Fan aimed straight down-range at the patch around the origin."""
    return RadarConfig(
        wave=wave_hh,
        start_pos=np.array([-0.5, 4.0, 4.0]), end_pos=np.array([2.5, 4.0, 4.0]),
        num_azimuth=6, alpha0=math.radians(35.0), alpha1=math.radians(55.0),
        num_angles=10, range_res=0.1, azimuth_res=0.5, spua=2, seed=3)


# two-view experiment config over the mesh the workdir fixture writes
CONFIG = """\
[scene]
mesh = scene.obj
init = 0.004 0.02 9.0 0.3

[radar]
frequency_hz = 9.6e9
polarization = HH
psd = gaussian
start = -1.5 4.0 4.0
end = 1.5 4.0 4.0
num_azimuth = 6
alpha_start_deg = 35
alpha_stop_deg = 55
num_angles = 10
range_res = 0.1
azimuth_res = 0.6
spua = 2
seed = 3
view_azimuths_deg = 0 180
scene_center = 0 0 0

[loss]
lambda_sim = 1.0
lambda_mat = 0.0
normalize = true

[optim]
lr = 0.05
iters = 4
tie = true

[output]
dir = out
"""


# the config that scripts/make_demo_scene.py writes, as serialize_config formats it
DEMO_CONFIG = """\
[scene]
mesh = scene.obj
init = 0.005 0.01 25.0 0.05

[radar]
frequency_hz = 9600000000.0
polarization = HH
psd = exponential
start = -1.25 4.243 4.243
end = 1.25 4.243 4.243
num_azimuth = 16
alpha_start_deg = 25.0
alpha_stop_deg = 65.0
num_angles = 24
range_res = 0.05
azimuth_res = 0.1667
spua = 2
seed = 7
view_azimuths_deg = 0.0 120.0 240.0
scene_center = 0.0 0.0 0.0

[loss]
lambda_sim = 1.0
lambda_mat = 0.0
normalize = true

[optim]
lr = 0.05
iters = 150
beta1 = 0.9
beta2 = 0.99
eps_adam = 1e-08
lr_decay = 1.0
train_vertices = 4:12
tie = true
freeze_channels = tau

[output]
dir = out
"""

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """scripts/<name> as a module; its main() is not run."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(monkeypatch, name, *args):
    """Run scripts/<name> in this process with the given arguments."""
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """The conftest scene and CONFIG in tmp_path, also the working directory,
    where a relative --out lands."""
    monkeypatch.chdir(tmp_path)
    mesh = merge_meshes([plane_mesh(4.0, 4.0, z=0.0), plane_mesh(1.0, 1.0, z=0.5)])
    write_obj(mesh, tmp_path / "scene.obj")
    (tmp_path / "run.ini").write_text(CONFIG)
    return tmp_path


def rotated_radar(wave, yaw, pitch, alpha1, start=(0.0, 0.0, 0.0)):
    """Radar flying from start along the unit track at azimuth yaw and
    elevation pitch (|pitch| < pi/2), fan-top ray at alpha1."""
    track = np.array([math.cos(pitch) * math.cos(yaw),
                      math.cos(pitch) * math.sin(yaw), math.sin(pitch)])
    start = np.asarray(start, dtype=np.float64)
    return RadarConfig(wave=wave, start_pos=start, end_pos=start + track,
                       num_azimuth=2, alpha0=0.5 * alpha1, alpha1=alpha1,
                       num_angles=4, range_res=0.1, azimuth_res=1.0)


def map_frame_from_angles(gamma, beta, origin=(0.0, 0.0, 0.0)):
    """Mapping frame (rotation, translation) from relative pitch gamma and
    azimuth beta: gamma is the depression angle of the fan-top ray, beta
    the in-plane azimuth; (0, 0) is the canonical side-looking pose with
    flight along -X and the top ray along -Y."""
    cg, sg = math.cos(gamma), math.sin(gamma)
    cb, sb = math.cos(beta), math.sin(beta)
    rot = np.array([
        [-cb, -cg * sb, -sg * sb],
        [0.0, sg, -cg],
        [sb, -cg * cb, -sg * cb],
    ])
    return rot, -rot @ np.asarray(origin, dtype=np.float64)


@pytest.fixture
def flat_params(two_facet_mesh):
    return ParamMap.constant(two_facet_mesh.num_vertices, 0.004, 0.02, 9.0, 0.3)


def grid_mesh(n, extent=10.0):
    """n x n cells x 2 facets of a gently rippled grid over [0, extent]^2."""
    xs = np.linspace(0.0, extent, n + 1)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([x.ravel(), y.ravel(), 0.05 * np.sin(x + 2.0 * y).ravel()], axis=1)
    corner = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)[:n, :n].ravel()
    facets = np.concatenate([np.stack([corner, corner + n + 1, corner + n + 2], axis=1),
                             np.stack([corner, corner + n + 2, corner + 1], axis=1)])
    return Mesh.from_arrays(vertices, facets)


def oracle_nearest_hit(mesh, origin, direction, eps_t=1e-6):
    """Independent linear-scan nearest hit used as the traversal oracle.

    Straight transcription of the barycentric ray/plane solve; no reuse
    of the production kernel.
    """
    best = None
    for fid in range(mesh.num_facets):
        i, j, k = mesh.facets[fid]
        p1, p2, p3 = mesh.vertices[i], mesh.vertices[j], mesh.vertices[k]
        h1 = p1 - p3
        h2 = p2 - p3
        f1 = np.cross(direction, h2)
        det = float(np.dot(f1, h1))
        if det == 0.0:
            continue
        h = origin - p3
        f2 = np.cross(h, h1)
        m1 = float(np.dot(f1, h)) / det
        m2 = float(np.dot(f2, direction)) / det
        t = float(np.dot(f2, h2)) / det
        if m1 >= 0.0 and m2 >= 0.0 and m1 + m2 <= 1.0 and t > eps_t:
            if best is None or (t, fid) < (best[1], best[0]):
                best = (fid, t, m1, m2)
    return best


def oracle_build_bvh(mesh):
    """Independent BVH build: the same median split, one node at a time.

    Pops (node, lo, hi) ranges of `order` off a stack; each node takes the
    box of its facets, and an inner node sorts its range stably along the
    longest axis of its centroid bounds and splits it at the midpoint.
    Nodes are numbered in stack order.
    """
    tri = mesh.vertices[mesh.facets]
    fmin = tri.min(axis=1)
    fmax = tri.max(axis=1)
    with np.errstate(over="ignore"):            # centroids of +-1e308 corners
        centroids = tri.mean(axis=1)

    order = np.arange(mesh.num_facets, dtype=np.int64)
    box_min, box_max, left, right, start, count = [None], [None], [-1], [-1], [0], [0]
    stack = [(0, 0, mesh.num_facets)]
    while stack:
        node, lo, hi = stack.pop()
        ids = order[lo:hi]
        box_min[node] = fmin[ids].min(axis=0)
        box_max[node] = fmax[ids].max(axis=0)
        if hi - lo <= accel._LEAF_SIZE:
            start[node] = lo
            count[node] = hi - lo
            continue
        c = centroids[ids]
        with np.errstate(over="ignore", invalid="ignore"):     # centroids near +-1e308, or inf
            axis = int(np.argmax(c.max(axis=0) - c.min(axis=0)))
        order[lo:hi] = ids[np.argsort(c[:, axis], kind="stable")]
        mid = lo + (hi - lo) // 2
        for side, child_lo, child_hi in ((left, lo, mid), (right, mid, hi)):
            child = len(left)
            box_min.append(None); box_max.append(None)
            left.append(-1); right.append(-1); start.append(0); count.append(0)
            side[node] = child
            stack.append((child, child_lo, child_hi))
    return accel.Bvh(
        box_min=np.asarray(box_min), box_max=np.asarray(box_max),
        left=np.asarray(left, dtype=np.int64), right=np.asarray(right, dtype=np.int64),
        start=np.asarray(start, dtype=np.int64), count=np.asarray(count, dtype=np.int64),
        order=order, mesh=mesh)
