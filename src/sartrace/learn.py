"""Inverse loop: losses, gradient assembly, projected Adam, training.

The data term is an image-space MSE averaged over views and pixels,
optionally on max-normalized intensities.  A total-variation smoother
over the per-vertex parameter table (viewed as a near-square grid in
vertex order) regularizes spatially varying recoveries.

The gradient of the data term reaches the parameter table through the
hit ledger: d(loss)/d(pixel) x quadrature weight x d(sigma)/d(params)
x barycentric weights, accumulated per vertex in deterministic order.

Adam runs in a reparameterized space (log for h, l and eps_r so one
learning rate serves magnitudes from 1e-4 to 1e2; linear for tau) and
every step ends with a componentwise projection onto the parameter
bounds box, so the physical invariants hold at all times.  Vertices can
be frozen, channels can be frozen, and vertex groups can be tied to a
single shared value (gradients summed over the group).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sartrace.imaging import HitLedger, SarImage, shade, trace
# the benchmark's traced run wraps this module's `render` by name
from sartrace.imaging import render  # noqa: F401
from sartrace.scene import Mesh, ParamMap, PARAM_CHANNELS

# wide physical box: positivity for h and l, eps_r nudged inside 1 so
# the Fresnel contrast (and with it every gradient) never pins to zero
DEFAULT_LOWER = np.array([1e-7, 1e-7, 1.0 + 1e-6, 0.0])
DEFAULT_UPPER = np.array([1.0, 10.0, 1e4, 1.0])

_LOG_CHANNELS = np.array([True, True, True, False])  # h, l, eps_r in log space

_STOP_TOL = 1e-6       # least mean training RMSE gain that resets patience
_FD_REL_STEP = 1e-4    # grad_check central step, relative to the value


@dataclass(frozen=True)
class LossConfig:
    lambda_sim: float = 1.0
    lambda_mat: float = 1e-3
    normalize: bool = True

    def __post_init__(self):
        if self.lambda_sim < 0 or self.lambda_mat < 0:
            raise ValueError("loss weights must be nonnegative")


def _as_array(image) -> np.ndarray:
    return image.intensities if isinstance(image, SarImage) else np.asarray(image, dtype=np.float64)


def loss_sim(image, ref, cfg: LossConfig, num_views: int = 1):
    """Per-view MSE term and its per-pixel gradient.

    loss = lambda_sim / (U M N) * sum((I - ref)^2), evaluated on
    max(ref)-normalized intensities when cfg.normalize is set.
    """
    data = _as_array(image)
    ref = _as_array(ref)
    if data.shape != ref.shape:
        raise ValueError(f"image shape {data.shape} != reference shape {ref.shape}")
    scale = 1.0
    if cfg.normalize:
        peak = ref.max()
        if peak > 0:
            scale = peak
    norm = cfg.lambda_sim / (num_views * data.size)
    diff = (data - ref) / scale
    loss = norm * float(np.sum(diff * diff))
    grad = 2.0 * norm * diff / scale
    return loss, grad


def _grid_ids(num_vertices: int):
    """Near-square grid of vertex ids in storage order, tail replicated."""
    height = max(1, int(math.floor(math.sqrt(num_vertices))))
    width = (num_vertices + height - 1) // height
    ids = np.minimum(np.arange(height * width), num_vertices - 1)
    return ids.reshape(height, width)


def loss_tv(values, lambda_mat: float):
    """Anisotropic total variation over the parameter grid view.

    Returns (loss, subgradient (n, 4)); sign(0) = 0.  Replicated pad
    cells chain their gradient back to the final vertex.
    """
    values = values.values if isinstance(values, ParamMap) else np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    grad = np.zeros_like(values)
    if lambda_mat == 0.0 or n == 0:
        return 0.0, grad
    ids = _grid_ids(n)
    grid = values[ids]                      # (H, W, 4)
    dv = grid[1:, :, :] - grid[:-1, :, :]
    dh = grid[:, 1:, :] - grid[:, :-1, :]
    loss = lambda_mat * float(np.abs(dv).sum() + np.abs(dh).sum())

    gg = np.zeros_like(grid)
    sv = np.sign(dv)
    gg[1:, :, :] += sv
    gg[:-1, :, :] -= sv
    sh = np.sign(dh)
    gg[:, 1:, :] += sh
    gg[:, :-1, :] -= sh
    np.add.at(grad, ids.ravel(), lambda_mat * gg.reshape(-1, 4))
    return loss, grad


def backward(ledger: HitLedger, dLdI: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Pull a per-pixel loss gradient back to the vertex table (n, 4)."""
    dLdI = np.asarray(dLdI, dtype=np.float64)
    if dLdI.shape != ledger.image_shape:
        raise ValueError(
            f"gradient image shape {dLdI.shape} != rendered shape {ledger.image_shape}")
    if ledger.num_entries == 0:
        return np.zeros((mesh.num_vertices, 4))
    if ledger.range_bin.max() >= dLdI.shape[1] or ledger.row.max() >= dLdI.shape[0]:
        raise ValueError("ledger pixel index outside the gradient image")
    g_sigma = dLdI[ledger.row, ledger.range_bin] * ledger.weight      # (k,)
    contrib = g_sigma[:, None] * ledger.dsigma                        # (k, 4)
    bary = np.stack([ledger.m1, ledger.m2, 1.0 - ledger.m1 - ledger.m2], axis=1)
    scatter = (bary[:, :, None] * contrib[:, None, :]).reshape(-1, 4)  # (k * 3, 4)
    vids = mesh.facets[ledger.facet_id].ravel()                       # (k * 3,)
    return np.stack([np.bincount(vids, weights=scatter[:, c], minlength=mesh.num_vertices)
                     for c in range(4)], axis=1)


@dataclass
class OptimState:
    """Adam state plus projection box, channel spaces, ties and freezes."""

    lr: float
    beta1: float
    beta2: float
    eps_adam: float
    lr_decay: float
    step: int
    m: np.ndarray                       # (n, 4) first moments, opt space
    v: np.ndarray                       # (n, 4) second moments
    lower: np.ndarray                   # (4,)
    upper: np.ndarray                   # (4,)
    frozen: np.ndarray = field(repr=False)   # (n, 4) bool
    groups: np.ndarray = field(repr=False)   # (n,) int64, -1 = untied

    @staticmethod
    def create(num_vertices: int, lr: float = 0.02, beta1: float = 0.9,
               beta2: float = 0.999, eps_adam: float = 1e-8, lr_decay: float = 1.0,
               bounds=None, freeze_channels=(), freeze_vertices=None,
               tie_groups=None) -> "OptimState":
        lower, upper = bounds if bounds is not None else (DEFAULT_LOWER, DEFAULT_UPPER)
        frozen = np.zeros((num_vertices, 4), dtype=bool)
        for name in freeze_channels:
            frozen[:, PARAM_CHANNELS.index(name)] = True
        if freeze_vertices is not None:
            frozen[np.asarray(freeze_vertices, dtype=np.int64), :] = True
        groups = np.full(num_vertices, -1, dtype=np.int64)
        if tie_groups is not None:
            for gid, members in enumerate(tie_groups):
                groups[np.asarray(members, dtype=np.int64)] = gid
        return OptimState(
            lr=lr, beta1=beta1, beta2=beta2, eps_adam=eps_adam, lr_decay=lr_decay,
            step=0, m=np.zeros((num_vertices, 4)), v=np.zeros((num_vertices, 4)),
            lower=np.asarray(lower, dtype=np.float64).copy(),
            upper=np.asarray(upper, dtype=np.float64).copy(),
            frozen=frozen, groups=groups)

    def project(self, params: ParamMap) -> None:
        np.clip(params.values, self.lower, self.upper, out=params.values)


def _tie_reduce(groups: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Replace member gradients by their group sum (tied chain rule)."""
    tied = groups >= 0
    if not tied.any():
        return grads
    out = grads.copy()
    n_groups = int(groups.max()) + 1
    sums = np.zeros((n_groups, 4))
    np.add.at(sums, groups[tied], grads[tied])
    out[tied] = sums[groups[tied]]
    return out


def adam_step(state: OptimState, params: ParamMap, grads: np.ndarray) -> ParamMap:
    """One projected Adam update of the parameter table, in place.

    Gradients arrive in parameter space; they are chain-ruled into the
    optimization space (dL/d log p = p dL/dp for log channels) before
    the moment updates.  Members of a tied group receive the summed
    group gradient, so equal starting values stay exactly equal.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.values.shape:
        raise ValueError("gradient shape does not match the parameter table")
    if not np.isfinite(grads).all():
        bad = np.nonzero(~np.isfinite(grads).all(axis=0))[0]
        names = ", ".join(PARAM_CHANNELS[i] for i in bad)
        raise ValueError(f"non-finite gradient in channel(s) {names}; step rejected")

    g = _tie_reduce(state.groups, grads)
    values = params.values
    g_opt = np.where(_LOG_CHANNELS[None, :], g * values, g)
    g_opt = np.where(state.frozen, 0.0, g_opt)
    log_cols = np.nonzero(_LOG_CHANNELS)[0]

    state.step += 1
    t = state.step
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g_opt
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g_opt * g_opt
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    lr_t = state.lr * state.lr_decay ** (t - 1)
    denom = np.sqrt(v_hat) + state.eps_adam
    update = np.where(denom > 0.0, m_hat / np.where(denom > 0.0, denom, 1.0), 0.0)
    update = np.where(state.frozen, 0.0, update)

    z = values.copy()
    z[:, log_cols] = np.log(z[:, log_cols])
    z -= lr_t * update
    z[:, log_cols] = np.exp(z[:, log_cols])
    # keep untouched entries bit-identical (log/exp round trips are lossy)
    values[:] = np.where(update != 0.0, z, values)
    state.project(params)
    return params


def rmse_normalized(image, ref) -> float:
    """Root-mean-square error on max(ref)-normalized intensities."""
    data = _as_array(image)
    ref = _as_array(ref)
    scale = ref.max()
    if scale <= 0:
        scale = 1.0
    return float(np.sqrt(np.mean(((data - ref) / scale) ** 2)))


@dataclass
class LearnResult:
    params: ParamMap
    iterations: int
    aborted: bool
    total_loss: np.ndarray       # (iters,)
    sim_loss: np.ndarray
    tv_loss: np.ndarray
    view_rmse: np.ndarray        # (iters, num_train_views)
    eval_rmse: np.ndarray        # (iters, num_eval_views)


def learn(mesh: Mesh, params: ParamMap, refs, opt: OptimState, cfg: LossConfig,
          iters: int, eval_refs=None, bvh=None,
          stop_patience: int = 50, bsdf_fn=None) -> LearnResult:
    """Multi-view gradient-descent recovery of the parameter table.

    refs: list of (RadarConfig, reference image); all participate in the
    gradient.  eval_refs: optional held-out views scored by RMSE only.
    Runs at most `iters` steps, stopping early once the mean training
    RMSE improves by less than _STOP_TOL over stop_patience iterations.
    A non-finite loss aborts and returns the last finite-loss table.
    Every view is traced once, on entry; each iteration only shades the
    traced hits with the current table, since no parameter moves a hit.
    """
    if not refs:
        raise ValueError("need at least one reference view")
    eval_refs = eval_refs or []
    num_views = len(refs)
    views = [(trace(mesh, radar, bvh=bvh), _as_array(ref)) for radar, ref in refs]
    for vi, (hits, ref) in enumerate(views):
        if hits.image_shape != ref.shape:
            raise ValueError(f"view {vi}: rendered shape {hits.image_shape} != "
                             f"reference shape {ref.shape}")
    eval_views = [(trace(mesh, radar, bvh=bvh), ref) for radar, ref in eval_refs]
    opt.project(params)
    last_good = params.copy()

    total_hist, sim_hist, tv_hist = [], [], []
    view_hist, eval_hist = [], []
    best_rmse = np.inf
    since_best = 0
    aborted = False

    for it in range(iters):
        sim_total = 0.0
        grads = np.zeros_like(params.values)
        rmses = np.zeros(num_views)
        for vi, (hits, ref) in enumerate(views):
            image, ledger = shade(hits, params, bsdf_fn)
            loss_v, dLdI = loss_sim(image, ref, cfg, num_views=num_views)
            sim_total += loss_v
            grads += backward(ledger, dLdI, mesh)
            rmses[vi] = rmse_normalized(image, ref)

        tv_val, tv_grad = loss_tv(params.values, cfg.lambda_mat)
        grads += tv_grad
        total = sim_total + tv_val

        ev = np.array([rmse_normalized(shade(hits, params, bsdf_fn)[0], ref)
                       for hits, ref in eval_views])

        total_hist.append(total)
        sim_hist.append(sim_total)
        tv_hist.append(tv_val)
        view_hist.append(rmses)
        eval_hist.append(ev)

        if not math.isfinite(total):
            aborted = True
            params.values[:] = last_good.values
            break
        last_good.values[:] = params.values

        adam_step(opt, params, grads)

        mean_rmse = float(rmses.mean())
        if mean_rmse < best_rmse - _STOP_TOL:
            best_rmse = mean_rmse
            since_best = 0
        else:
            since_best += 1
            if since_best >= stop_patience:
                break

    done = len(total_hist)
    return LearnResult(
        params=params, iterations=done, aborted=aborted,
        total_loss=np.asarray(total_hist), sim_loss=np.asarray(sim_hist),
        tv_loss=np.asarray(tv_hist),
        view_rmse=np.asarray(view_hist) if view_hist else np.zeros((0, num_views)),
        eval_rmse=np.asarray(eval_hist) if eval_hist else np.zeros((0, len(eval_refs))),
    )


def write_history_csv(result: LearnResult, path) -> None:
    """iter,total_loss,sim_loss,tv_loss,view_rmse_*,eval_rmse_* rows."""
    n_train = result.view_rmse.shape[1] if result.view_rmse.size else 0
    n_eval = result.eval_rmse.shape[1] if result.eval_rmse.size else 0
    cols = ["iter", "total_loss", "sim_loss", "tv_loss"]
    cols += [f"view_rmse_{i}" for i in range(n_train)]
    cols += [f"eval_rmse_{i}" for i in range(n_eval)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for it in range(result.iterations):
            row = [str(it), repr(float(result.total_loss[it])),
                   repr(float(result.sim_loss[it])), repr(float(result.tv_loss[it]))]
            row += [repr(float(v)) for v in result.view_rmse[it]]
            row += [repr(float(v)) for v in result.eval_rmse[it]]
            fh.write(",".join(row) + "\n")


@dataclass
class GradCheckProbe:
    vertex: int
    channel: str
    analytic: float
    finite_diff: float
    rel_err: float


@dataclass
class GradCheckReport:
    probes: list[GradCheckProbe]
    max_rel_err: float
    median_rel_err: float


def _pipeline_loss(hitsets, params, refs, cfg, bsdf_fn):
    total = 0.0
    for hits, ref in zip(hitsets, refs):
        image, _ = shade(hits, params, bsdf_fn)
        loss_v, _ = loss_sim(image, ref, cfg, num_views=len(hitsets))
        total += loss_v
    tv_val, _ = loss_tv(params.values, cfg.lambda_mat)
    return total + tv_val


def grad_check(mesh: Mesh, params: ParamMap, radars, refs, cfg: LossConfig,
               num_probes: int, seed: int = 0, bvh=None, bsdf_fn=None) -> GradCheckReport:
    """Compare ledger-assembled gradients with central finite differences.

    Probes num_probes random (vertex, channel) pairs of the full
    render + loss pipeline.  Central steps are _FD_REL_STEP * |value| with
    an absolute floor of 1e-8.  Probes where both sides vanish report
    zero error (unilluminated vertices).  Each view is traced once; the
    finite differences only re-shade it, since no parameter moves a hit.
    """
    hitsets = [trace(mesh, radar, bvh=bvh) for radar in radars]
    refs = [_as_array(r) for r in refs]
    num_views = len(hitsets)

    grads = loss_tv(params.values, cfg.lambda_mat)[1]
    for hits, ref in zip(hitsets, refs):
        image, ledger = shade(hits, params, bsdf_fn)
        _, dLdI = loss_sim(image, ref, cfg, num_views=num_views)
        grads += backward(ledger, dLdI, mesh)

    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(num_probes):
        vid = int(rng.integers(mesh.num_vertices))
        ci = int(rng.integers(4))
        base = params.values[vid, ci]
        step = max(_FD_REL_STEP * abs(base), 1e-8)
        trial = params.copy()
        trial.values[vid, ci] = base + step
        up = _pipeline_loss(hitsets, trial, refs, cfg, bsdf_fn)
        trial.values[vid, ci] = base - step
        down = _pipeline_loss(hitsets, trial, refs, cfg, bsdf_fn)
        fd = (up - down) / (2.0 * step)
        analytic = float(grads[vid, ci])
        denom = max(abs(analytic), abs(fd))
        rel = 0.0 if denom < 1e-14 else abs(analytic - fd) / denom
        probes.append(GradCheckProbe(vertex=vid, channel=PARAM_CHANNELS[ci],
                                     analytic=analytic, finite_diff=fd, rel_err=rel))
    rels = np.array([p.rel_err for p in probes]) if probes else np.zeros(0)
    return GradCheckReport(
        probes=probes,
        max_rel_err=float(rels.max()) if rels.size else 0.0,
        median_rel_err=float(np.median(rels)) if rels.size else 0.0,
    )
