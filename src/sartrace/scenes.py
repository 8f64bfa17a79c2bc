"""Procedural test scenes and radar placement helpers.

The recovery experiments use a ground plane with a target sitting on
it, observed by a side-looking linear trajectory whose incidence fan is
centered on a nominal angle.  Multi-view sets rotate the trajectory
about the vertical axis through the scene center.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from sartrace.imaging import RadarConfig
from sartrace.scatter import WaveConfig
from sartrace.scene import Mesh

_BOX_FACETS = np.array([
    [0, 2, 1], [0, 3, 2],      # bottom (z-)
    [4, 5, 6], [4, 6, 7],      # top (z+)
    [0, 1, 5], [0, 5, 4],      # y-
    [2, 3, 7], [2, 7, 6],      # y+
    [1, 2, 6], [1, 6, 5],      # x+
    [3, 0, 4], [3, 4, 7],      # x-
], dtype=np.int64)


def plane_mesh(size_x: float, size_y: float, z: float = 0.0) -> Mesh:
    """Two-triangle horizontal rectangle centered on the z axis."""
    hx, hy = size_x / 2.0, size_y / 2.0
    vertices = np.array([[-hx, -hy, z], [hx, -hy, z], [hx, hy, z], [-hx, hy, z]])
    facets = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    return Mesh.from_arrays(vertices, facets)


def box_mesh(size, center=(0.0, 0.0, 0.0)) -> Mesh:
    """Axis-aligned closed box (12 triangles)."""
    sx, sy, sz = (np.asarray(size, dtype=np.float64) / 2.0)
    cx, cy, cz = center
    vertices = np.array([
        [cx - sx, cy - sy, cz - sz], [cx + sx, cy - sy, cz - sz],
        [cx + sx, cy + sy, cz - sz], [cx - sx, cy + sy, cz - sz],
        [cx - sx, cy - sy, cz + sz], [cx + sx, cy - sy, cz + sz],
        [cx + sx, cy + sy, cz + sz], [cx - sx, cy + sy, cz + sz],
    ])
    return Mesh.from_arrays(vertices, _BOX_FACETS)


def merge_meshes(meshes) -> Mesh:
    """Concatenate meshes, offsetting facet indices."""
    vertices, facets, offset = [], [], 0
    for mesh in meshes:
        vertices.append(mesh.vertices)
        facets.append(mesh.facets + offset)
        offset += mesh.num_vertices
    return Mesh.from_arrays(np.concatenate(vertices), np.concatenate(facets))


def cube_plane_scene(plane_size: float = 10.0, cube_size: float = 1.0):
    """Ground plane with a cube resting on it at the origin.

    Returns (mesh, plane_vertex_ids, cube_vertex_ids); plane vertices
    come first in storage order.
    """
    plane = plane_mesh(plane_size, plane_size)
    cube = box_mesh((cube_size, cube_size, cube_size),
                    center=(0.0, 0.0, cube_size / 2.0))
    mesh = merge_meshes([plane, cube])
    plane_ids = np.arange(plane.num_vertices)
    cube_ids = np.arange(plane.num_vertices, mesh.num_vertices)
    return mesh, plane_ids, cube_ids


def building_scene():
    """14 m square ground plane with a simplified two-block building.

    Returns (mesh, plane_vertex_ids, building_vertex_ids).
    """
    plane = plane_mesh(14.0, 14.0)
    base = box_mesh((3.0, 2.0, 1.5), center=(0.0, 0.0, 0.75))
    tower = box_mesh((1.2, 1.0, 0.8), center=(-0.5, 0.2, 1.9))
    mesh = merge_meshes([plane, base, tower])
    plane_ids = np.arange(plane.num_vertices)
    building_ids = np.arange(plane.num_vertices, mesh.num_vertices)
    return mesh, plane_ids, building_ids


def side_looking_radar(wave: WaveConfig, distance: float, incidence: float,
                       track_length: float, num_azimuth: int, fan_halfwidth: float,
                       num_angles: int, range_res: float, spua: int = 1,
                       seed: int = 0, center=(0.0, 0.0, 0.0)) -> RadarConfig:
    """Canonical pose: flight along +X, looking -Y toward the center.

    distance is the slant standoff from the scene center along the fan
    center ray; incidence and fan_halfwidth are radians from vertical.
    """
    center = np.asarray(center, dtype=np.float64)
    offset = np.array([0.0, distance * math.sin(incidence), distance * math.cos(incidence)])
    mid = center + offset
    half = np.array([track_length / 2.0, 0.0, 0.0])
    spacing = track_length / max(num_azimuth - 1, 1)
    return RadarConfig(
        wave=wave, start_pos=mid - half, end_pos=mid + half,
        num_azimuth=num_azimuth,
        alpha0=incidence - fan_halfwidth, alpha1=incidence + fan_halfwidth,
        num_angles=num_angles, range_res=range_res, azimuth_res=spacing,
        spua=spua, seed=seed)


def rotate_radar(radar: RadarConfig, azimuth: float, center=(0.0, 0.0, 0.0)) -> RadarConfig:
    """Rotate the trajectory about the vertical axis through center."""
    c, s = math.cos(azimuth), math.sin(azimuth)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    center = np.asarray(center, dtype=np.float64)
    return replace(radar, start_pos=rot @ (radar.start_pos - center) + center,
                   end_pos=rot @ (radar.end_pos - center) + center)


def multiview_radars(base: RadarConfig, azimuths_deg, center=(0.0, 0.0, 0.0)):
    return [rotate_radar(base, math.radians(a), center) for a in azimuths_deg]
