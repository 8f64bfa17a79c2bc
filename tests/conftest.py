import math

import numpy as np
import pytest

from sartrace.imaging import RadarConfig
from sartrace.scatter import WaveConfig
from sartrace.scene import Mesh, ParamMap


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
