"""Differentiable ray-tracing SAR intensity simulator.

Forward path: triangle mesh + per-vertex roughness/permittivity table
-> ray fans along a linear trajectory -> nearest-hit intersection ->
two-scale (KA + SPM) backscatter per hit -> one np.bincount over the
(azimuth row, range bin) pixel index into an azimuth x range intensity
image.  trace does the geometry of a view once, shade the per-table
rest, and render is shade(trace(...)).

Inverse path: image-space MSE (+ total variation over mesh edges) is pulled
back through the recorded hit ledger to per-vertex parameter gradients
and minimized with projected Adam (sartrace.learn.learn; the function
is not re-exported here, so the name sartrace.learn is the module).
"""

from sartrace.scene import (
    Mesh, ParamMap, MeshError, PARAM_CHANNELS,
    load_mesh, mesh_edges, write_obj, save_param_map, load_param_map,
)
from sartrace.accel import Bvh, build_bvh
from sartrace.scatter import WaveConfig, SPEED_OF_LIGHT, VALIDITY_CONDITIONS, validity_mask
from sartrace.imaging import (
    RadarConfig, MapFrame, SarImage, HitLedger, HitSet, RayFan,
    generate_rays, bin_ranges_fast, render, trace, shade,
    write_pgm, write_raster, read_raster,
)
from sartrace.learn import (
    LossConfig, OptimState, LearnResult,
    loss_sim, loss_tv, backward, adam_step, grad_check, rmse_normalized,
)

__version__ = "0.1.0"
