"""Closed-loop parameter recovery experiments.

Each protocol renders reference images from known ground-truth tables,
re-initializes the target object's parameters, and recovers them by
phased Adam.  References and training renders share seeds, so the loss
at the truth is exactly zero and recovery quality measures only the
optimizer and gradient path.  Every phase minimizes RECOVERY_LOSS (the
normalized image loss, no material prior) with `RecoveryProtocol.optimizer`:
tau and the plane's vertices frozen at truth, the target's vertices tied
to one (h, l, eps_r) record.  Each phase hands the next its best table.
`scripts/recover_params.py` runs a protocol.

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
* The building starts effectively black (h = l = 1e-4, eps_r at the
  parameter box's floor 1 + 1e-6, where eps_r = 1 would give exactly
  zero gradients), so the first gradients are ~1e-30.  Adam's epsilon
  is set to zero there (with a zero-variance guard) so the step size
  stays lr-scaled no matter how small the gradients are; with tau = 0
  there is no specular shortcut for the optimizer to abuse.
* Schedules run a constant-lr travel phase before any decay: decaying
  too early strands the slide along the (eps_r, l) valley.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sartrace.imaging import render  # noqa: F401 -- the benchmark's tracer wraps it by name
from sartrace.imaging import shade_views, trace_views
from sartrace.learn import LossConfig, OptimState, learn
from sartrace.scatter import WaveConfig
from sartrace.scene import PARAM_LOWER, ParamMap
from sartrace.scenes import (building_scene, cube_plane_scene, multiview_radars,
                             side_looking_radar)

PLANE_TRUTH = (0.005, 0.01, 25.0)       # h, l, eps_r of the ground plane
RECOVERY_LOSS = LossConfig(lambda_sim=1.0, lambda_mat=0.0, normalize=True)


@dataclass(frozen=True)
class AdamPhase:
    lr: float
    iters: int
    lr_decay: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999


@dataclass
class RecoveryProtocol:
    """Everything needed to reproduce one closed-loop recovery."""

    mesh: object
    frozen_ids: np.ndarray          # vertices held at truth
    target_ids: np.ndarray          # tied group being recovered
    radars: list
    truth: ParamMap
    init: ParamMap
    phases: tuple[AdamPhase, ...]
    eps_adam: float

    def optimizer(self, phase: AdamPhase) -> OptimState:
        """Adam state for one phase: tau and the frozen vertices held, the target tied."""
        return OptimState.create(
            self.init.num_vertices, lr=phase.lr, beta1=phase.beta1, beta2=phase.beta2,
            eps_adam=self.eps_adam, lr_decay=phase.lr_decay, freeze_channels=("tau",),
            freeze_vertices=self.frozen_ids, tie_groups=[self.target_ids])


def _protocol(scene, truth, init, tau, radar, seed, phases, eps_adam):
    """A protocol on scene = (mesh, plane ids, target ids): the plane at PLANE_TRUTH,
    the target's (h, l, eps_r) from init to truth, tau everywhere, seen from
    azimuths 0, 120 and 240 degrees by a 45-degree X-band HH radar whose
    distance, track and fan radar holds."""
    mesh, plane_ids, target_ids = scene
    wave = WaveConfig(9.6e9, "HH", "exponential")
    base = side_looking_radar(wave, incidence=math.radians(45), num_azimuth=16,
                              range_res=0.05, spua=2, seed=seed, **radar)
    truth_map = ParamMap.constant(mesh.num_vertices, *PLANE_TRUTH, tau)
    truth_map.values[target_ids, :3] = truth
    init_map = truth_map.copy()
    init_map.values[target_ids, :3] = init
    return RecoveryProtocol(
        mesh=mesh, frozen_ids=plane_ids, target_ids=target_ids,
        radars=multiview_radars(base, (0.0, 120.0, 240.0)), truth=truth_map, init=init_map,
        phases=phases, eps_adam=eps_adam)


def cube_recovery_protocol(seed=7) -> RecoveryProtocol:
    return _protocol(
        cube_plane_scene(plane_size=8.0, cube_size=2.0),
        truth=(0.002, 0.001, 75.0), init=(0.005, 0.01, 25.0), tau=0.05,
        radar=dict(distance=6.0, track_length=2.5, fan_halfwidth=math.radians(20), num_angles=24),
        seed=seed, eps_adam=1e-8, phases=(
            AdamPhase(lr=0.10, iters=300, beta2=0.99),
            AdamPhase(lr=0.03, iters=150, beta2=0.99),
            AdamPhase(lr=0.01, iters=50, lr_decay=0.95),
        ))


def building_recovery_protocol(seed=11) -> RecoveryProtocol:
    return _protocol(
        building_scene(),
        truth=(0.02, 0.01, 6.885), init=(0.0001, 0.0001, PARAM_LOWER[2]), tau=0.0,
        radar=dict(distance=8.0, track_length=3.5, fan_halfwidth=math.radians(22), num_angles=28),
        seed=seed, eps_adam=0.0, phases=(
            AdamPhase(lr=0.15, iters=120, beta1=0.85, beta2=0.99),
            AdamPhase(lr=0.10, iters=1200, beta1=0.95, beta2=0.99),
            AdamPhase(lr=0.02, iters=200),
            AdamPhase(lr=0.005, iters=80, lr_decay=0.97),
        ))


def render_references(proto: RecoveryProtocol):
    """(radar, truth image) of every view, traced and shaded as one batch."""
    shaded = shade_views(trace_views(proto.mesh, proto.radars), proto.truth)
    return [(radar, image.intensities) for radar, (image, _) in zip(proto.radars, shaded)]


def run_recovery(proto: RecoveryProtocol, refs=None, progress=None):
    """Run the protocol, each view traced once and each phase started at the
    last one's best table; returns (params, histories, iterations)."""
    refs = refs if refs is not None else render_references(proto)
    hitsets = trace_views(proto.mesh, [radar for radar, _ in refs])
    views = [(hits, ref) for hits, (_, ref) in zip(hitsets, refs)]
    params, results, used = proto.init.copy(), [], 0
    for phase in proto.phases:
        res = learn(params, views, proto.optimizer(phase), RECOVERY_LOSS, iters=phase.iters)
        used += res.iterations
        results.append(res)
        if progress is not None:
            progress(used, params)
    return params, results, used


def recovered_errors(proto: RecoveryProtocol, params: ParamMap):
    """Relative errors (h, l, eps_r) of the recovered tied target values."""
    vid = proto.target_ids[0]
    truth = proto.truth.values[vid, :3]
    return tuple(abs(params.values[vid, :3] - truth) / truth)
