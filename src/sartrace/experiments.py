"""Closed-loop parameter recovery experiments.

Each protocol renders reference images from known ground-truth tables,
re-initializes the target object's parameters, and recovers them by
phased Adam.  References and training renders share seeds, so the loss
at the truth is exactly zero and recovery quality measures only the
optimizer and gradient path.

Protocol notes, learned the hard way:

* The recovery uses the exponential roughness spectrum.  At the cube's
  truth (k l = 0.2) a Gaussian spectrum changes sigma by < 1% when l
  doubles, which makes l unrecoverable from single-frequency HH data;
  the exponential spectrum keeps a usable l signature.
* The cube carries a small fixed specular fraction (tau = 0.05, frozen,
  never learned).  The specular term's slope-driven shape and its
  normal-incidence Fresnel amplitude pin (h/l, eps_r) independently of
  the diffuse term, which otherwise trades eps_r against l along a
  shallow valley.
* The building starts effectively black (eps_r = 1, h = l = 1e-4), so
  the first gradients are ~1e-30.  Adam's epsilon is set to zero there
  (with a zero-variance guard) so the step size stays lr-scaled no
  matter how small the gradients are; with tau = 0 there is no specular
  shortcut for the optimizer to abuse.
* Schedules run a constant-lr travel phase before any decay: decaying
  too early strands the slide along the (eps_r, l) valley.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sartrace.imaging import render, trace
from sartrace.learn import LossConfig, OptimState, learn
from sartrace.scatter import WaveConfig
from sartrace.scene import ParamMap
from sartrace.scenes import (building_scene, cube_plane_scene, multiview_radars,
                             side_looking_radar)

PLANE_TRUTH = (0.005, 0.01, 25.0)       # h, l, eps_r of the ground plane
CUBE_TRUTH = (0.002, 0.001, 75.0)
CUBE_INIT = (0.005, 0.01, 25.0)
BUILDING_TRUTH = (0.02, 0.01, 6.885)
BUILDING_INIT = (0.0001, 0.0001, 1.0)


@dataclass(frozen=True)
class AdamPhase:
    lr: float
    iters: int
    lr_decay: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    freeze_channels: tuple[str, ...] = ("tau",)


@dataclass
class RecoveryProtocol:
    """Everything needed to reproduce one closed-loop recovery."""

    name: str
    mesh: object
    frozen_ids: np.ndarray          # vertices held at truth
    target_ids: np.ndarray          # tied group being recovered
    radars: list
    truth: ParamMap
    init: ParamMap
    phases: tuple[AdamPhase, ...]
    eps_adam: float
    truth_hle: tuple[float, float, float]
    loss: LossConfig = field(default_factory=lambda: LossConfig(1.0, 0.0, True))


def cube_recovery_protocol(view_azimuths=(0.0, 120.0, 240.0), seed=7) -> RecoveryProtocol:
    mesh, plane_ids, cube_ids = cube_plane_scene(plane_size=8.0, cube_size=2.0)
    wave = WaveConfig(9.6e9, "HH", "exponential")
    base = side_looking_radar(wave, distance=6.0, incidence=math.radians(45),
                              track_length=2.5, num_azimuth=16,
                              fan_halfwidth=math.radians(20), num_angles=24,
                              range_res=0.05, spua=2, seed=seed)
    radars = multiview_radars(base, view_azimuths)
    tau = 0.05
    truth = ParamMap.constant(mesh.num_vertices, *PLANE_TRUTH, tau)
    truth.values[cube_ids, :3] = CUBE_TRUTH[0], CUBE_TRUTH[1], CUBE_TRUTH[2]
    init = truth.copy()
    init.values[cube_ids, :3] = CUBE_INIT[0], CUBE_INIT[1], CUBE_INIT[2]
    phases = (
        AdamPhase(lr=0.10, iters=300, beta2=0.99),
        AdamPhase(lr=0.03, iters=150, beta2=0.99),
        AdamPhase(lr=0.01, iters=50, lr_decay=0.95),
    )
    return RecoveryProtocol(
        name="cube", mesh=mesh, frozen_ids=plane_ids, target_ids=cube_ids,
        radars=radars, truth=truth, init=init, phases=phases, eps_adam=1e-8,
        truth_hle=CUBE_TRUTH)


def building_recovery_protocol(view_azimuths=(0.0, 120.0, 240.0), seed=11) -> RecoveryProtocol:
    mesh, plane_ids, bld_ids = building_scene()
    wave = WaveConfig(9.6e9, "HH", "exponential")
    base = side_looking_radar(wave, distance=8.0, incidence=math.radians(45),
                              track_length=3.5, num_azimuth=16,
                              fan_halfwidth=math.radians(22), num_angles=28,
                              range_res=0.05, spua=2, seed=seed)
    radars = multiview_radars(base, view_azimuths)
    truth = ParamMap.constant(mesh.num_vertices, *PLANE_TRUTH, 0.0)
    truth.values[bld_ids, :3] = BUILDING_TRUTH[0], BUILDING_TRUTH[1], BUILDING_TRUTH[2]
    init = truth.copy()
    init.values[bld_ids, :3] = BUILDING_INIT[0], BUILDING_INIT[1], BUILDING_INIT[2]
    phases = (
        AdamPhase(lr=0.15, iters=120, beta1=0.85, beta2=0.99),
        AdamPhase(lr=0.10, iters=1200, beta1=0.95, beta2=0.99),
        AdamPhase(lr=0.02, iters=200),
        AdamPhase(lr=0.005, iters=80, lr_decay=0.97),
    )
    return RecoveryProtocol(
        name="building", mesh=mesh, frozen_ids=plane_ids, target_ids=bld_ids,
        radars=radars, truth=truth, init=init, phases=phases, eps_adam=0.0,
        truth_hle=BUILDING_TRUTH)


def render_references(proto: RecoveryProtocol):
    return [(radar, render(proto.mesh, proto.truth, radar)[0].intensities)
            for radar in proto.radars]


def run_recovery(proto: RecoveryProtocol, refs=None, progress=None):
    """Run the protocol, each view traced once; returns (params, histories, iterations)."""
    refs = refs if refs is not None else render_references(proto)
    views = [(trace(proto.mesh, radar), ref) for radar, ref in refs]
    params = proto.init.copy()
    results = []
    used = 0
    for phase in proto.phases:
        opt = OptimState.create(
            params.num_vertices, lr=phase.lr, beta1=phase.beta1, beta2=phase.beta2,
            eps_adam=proto.eps_adam, lr_decay=phase.lr_decay,
            freeze_channels=phase.freeze_channels, freeze_vertices=proto.frozen_ids,
            tie_groups=[proto.target_ids])
        res = learn(params, views, opt, proto.loss, iters=phase.iters, stop_patience=10 ** 9)
        used += res.iterations
        results.append(res)
        if progress is not None:
            progress(used, params)
    return params, results, used


def recovered_errors(proto: RecoveryProtocol, params: ParamMap):
    """Relative errors (h, l, eps_r) of the recovered tied target values."""
    vid = proto.target_ids[0]
    got = params.values[vid]
    th, tl, te = proto.truth_hle
    return (abs(got[0] - th) / th, abs(got[1] - tl) / tl, abs(got[2] - te) / te)
