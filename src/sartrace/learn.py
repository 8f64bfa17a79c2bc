"""Inverse loop: losses, gradient assembly, projected Adam, training.

The data term is an image-space MSE averaged over views and pixels,
optionally on max-normalized intensities.  A total-variation smoother
over the mesh's edges regularizes spatially varying recoveries; objects
that share no vertex do not interact through it.

The gradient of the data term reaches the parameter table through the
hits: d(loss)/d(pixel) x quadrature weight x d(sigma)/d(params) x
barycentric weights, accumulated per vertex in deterministic order.

learn and grad_check lay out their traced views once per call with
imaging.stack_views, as shade_views does: every hit's flat pixel in the
views' images laid end to end, its weight and each view's pixel span
come from there, and learn adds every view's flattened reference with
its peak scale per pixel.  A hit is live when its facet
touches a vertex with an unknown; the others are shaded once, on entry,
since Adam never writes their vertices.  An iteration then does only
the work the table changes: imaging.shade_hits (shade_views' kernel,
one imaging.eval_bsdf_at call per wave) over the live hits, one
np.bincount for every view's pixels, one difference and one square over
all of them with one sum per view (its loss and its RMSE), dL/dI at the
pixels the live hits read, and one np.bincount per channel with an
unknown that pulls it back into per-view blocks over the touched
vertices; a channel that every vertex freezes (tau in every protocol) is
not assembled.  The blocks are summed in view order, so losses, RMSEs
and every unknown's gradient are bitwise the one-view-at-a-time
loss_sim, rmse_normalized and sum of backward(ledger, dLdI).
grad_check's finite differences take the total of this same objective,
so the gradient it checks is the one learn steps with.

Adam steps a vector of unknowns: one per channel of a free vertex or of
a tied vertex group (one shared record, gradients summed over the
group); frozen vertices and channels are none.  It runs in a
reparameterized space (log for h, l and eps_r so one learning rate
serves magnitudes from 1e-4 to 1e2; linear for tau) and clips every
value it writes into scene's parameter box, PARAM_LOWER..PARAM_UPPER.
learn leaves params at the evaluated table of least total loss, never
Adam's unevaluated last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sartrace.imaging import HitLedger, SarImage, by_wave, shade_hits, stack_views
# the benchmark's traced run wraps this module's `render` by name
from sartrace.imaging import render  # noqa: F401
from sartrace.scene import PARAM_CHANNELS, PARAM_LOWER, PARAM_UPPER, ParamMap, mesh_edges

_NUM_LOG = 3  # h, l and eps_r lead the table and step in log space; tau is linear

_FD_REL_STEP = 1e-4    # grad_check central step, relative to the value


@dataclass(frozen=True)
class LossConfig:
    lambda_sim: float = 1.0
    lambda_mat: float = 1e-3
    normalize: bool = True

    def __post_init__(self):
        for name in ("lambda_sim", "lambda_mat"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must lie in [0, inf), got {getattr(self, name)!r}")


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


def loss_tv(values, edges, lambda_mat: float):
    """Anisotropic total variation lambda_mat * sum |v_j - v_i| over the mesh
    edges (i, j), (E, 2) as scene.mesh_edges gives them, and the four
    channels.  Returns (loss, subgradient (n, 4)); sign(0) = 0."""
    values = values.values if isinstance(values, ParamMap) else np.asarray(values, dtype=np.float64)
    if lambda_mat == 0.0:
        return 0.0, np.zeros_like(values)
    diff = values.take(edges[:, 1], axis=0) - values.take(edges[:, 0], axis=0)   # (E, 4)
    lo, hi = (np.repeat(v * 4, 4) + np.tile(np.arange(4), len(edges)) for v in edges.T)
    sign = lambda_mat * np.sign(diff).ravel()       # per flat cell vertex * 4 + channel
    grad = np.bincount(hi, sign, values.size) - np.bincount(lo, sign, values.size)
    grad = grad.astype(np.float64, copy=False)      # bincount gives int64 when no edge
    return lambda_mat * float(np.abs(diff).sum()), grad.reshape(values.shape)


def backward(ledger: HitLedger, dLdI: np.ndarray) -> np.ndarray:
    """Pull a per-pixel loss gradient back to the (n, 4) table of ledger.mesh."""
    mesh = ledger.mesh
    dLdI = np.asarray(dLdI, dtype=np.float64)
    if dLdI.shape != ledger.image_shape:
        raise ValueError(
            f"gradient image shape {dLdI.shape} != rendered shape {ledger.image_shape}")
    if ledger.num_entries == 0:
        return np.zeros((mesh.num_vertices, 4))
    g_sigma = dLdI[ledger.row, ledger.range_bin] * ledger.weight      # (k,)
    contrib = g_sigma[:, None] * ledger.dsigma                        # (k, 4)
    bary = np.stack([ledger.m1, ledger.m2, 1.0 - ledger.m1 - ledger.m2], axis=1)
    scatter = (bary[:, :, None] * contrib[:, None, :]).reshape(-1, 4)  # (k * 3, 4)
    vids = mesh.facets.take(ledger.facet_id, axis=0).ravel()          # (k * 3,)
    return np.stack([np.bincount(vids, weights=scatter[:, c], minlength=mesh.num_vertices)
                     for c in range(4)], axis=1)


@dataclass
class OptimState:
    """Adam state over the k unknowns, numbered channel by channel, and the
    map from table entries to unknowns; values clip to scene's
    PARAM_LOWER..PARAM_UPPER."""

    lr: float
    beta1: float
    beta2: float
    eps_adam: float
    lr_decay: float
    step: int
    m: np.ndarray                       # (k,) first moments, opt space
    v: np.ndarray                       # (k,) second moments
    entries: np.ndarray = field(repr=False)  # (e,) flat indices v * 4 + c that move, ascending
    unknown: np.ndarray = field(repr=False)  # (e,) the unknown of each entry
    head: np.ndarray = field(repr=False)     # (k,) one entry per unknown
    starts: np.ndarray = field(repr=False)   # (5,) channel c owns unknowns starts[c]:starts[c+1]

    def __post_init__(self):
        for name, ok, rule in (("lr", 0 < self.lr < math.inf, "(0, inf)"),
                               ("beta1", 0 <= self.beta1 < 1, "[0, 1)"),
                               ("beta2", 0 <= self.beta2 < 1, "[0, 1)"),
                               ("eps_adam", 0 <= self.eps_adam < math.inf, "[0, inf)"),
                               ("lr_decay", 0 < self.lr_decay < math.inf, "(0, inf)")):
            if not ok:
                raise ValueError(f"{name} must lie in {rule}, got {getattr(self, name)!r}")

    @staticmethod
    def create(num_vertices: int, lr: float = 0.02, beta1: float = 0.9,
               beta2: float = 0.999, eps_adam: float = 1e-8, lr_decay: float = 1.0,
               freeze_channels=(), freeze_vertices=None, tie_groups=None) -> "OptimState":
        free = np.ones((num_vertices, 4), dtype=bool)
        for name in freeze_channels:
            if name not in PARAM_CHANNELS:
                raise ValueError(f"freeze_channels: unknown channel {name!r}; "
                                 f"expected one of {', '.join(PARAM_CHANNELS)}")
            free[:, PARAM_CHANNELS.index(name)] = False
        frozen = _vertex_ids(() if freeze_vertices is None else freeze_vertices,
                             num_vertices, "freeze_vertices")
        group = np.full(num_vertices, -1, dtype=np.int64)
        rep = np.arange(num_vertices)       # each vertex's group representative
        for gid, members in enumerate(() if tie_groups is None else tie_groups):
            members = _vertex_ids(members, num_vertices, f"tie_groups[{gid}]")
            again = members[group[members] >= 0]
            if again.size:
                raise ValueError(f"tie_groups: vertex {again[0]} is in groups "
                                 f"{group[again[0]]} and {gid}")
            group[members] = gid
            rep[members] = members.min(initial=num_vertices)
        both = frozen[group[frozen] >= 0]
        if both.size:
            raise ValueError(f"freeze_vertices: vertex {both[0]} is also tied in "
                             f"tie_groups[{group[both[0]]}]")
        free[frozen] = False
        entries = np.flatnonzero(free)
        vertex, channel = np.divmod(entries, 4)
        key, unknown = np.unique(channel * num_vertices + rep[vertex], return_inverse=True)
        channel, vertex = np.divmod(key, num_vertices)
        return OptimState(
            lr=lr, beta1=beta1, beta2=beta2, eps_adam=eps_adam, lr_decay=lr_decay,
            step=0, m=np.zeros(key.size), v=np.zeros(key.size),
            entries=entries, unknown=unknown, head=vertex * 4 + channel,
            starts=np.searchsorted(channel, np.arange(5)))

    def project(self, params: ParamMap) -> None:
        """learn's entry step: reject a tied group whose members start with
        different values, then clip the table into the parameter box."""
        first = self.head[self.unknown]
        split = np.flatnonzero((params.values.take(self.entries) != params.values.take(first))
                               & (self.entries != first))
        if split.size:
            a, b = first[split[0]], self.entries[split[0]]
            raise ValueError(f"tied vertices {a // 4} and {b // 4} start with different "
                             f"{PARAM_CHANNELS[b % 4]} values "
                             f"({params.values.flat[a]} != {params.values.flat[b]})")
        np.clip(params.values, PARAM_LOWER, PARAM_UPPER, out=params.values)


def _vertex_ids(ids, num_vertices: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64).ravel()
    bad = ids[(ids < 0) | (ids >= num_vertices)]
    if bad.size:
        raise ValueError(f"{what}: vertex {bad[0]} outside [0, {num_vertices})")
    return ids


def adam_step(state: OptimState, params: ParamMap, grads: np.ndarray) -> ParamMap:
    """One projected Adam update of the unknowns, in place.

    An unknown's gradient sums its entries of the (n, 4) table in table
    order and is chain-ruled into the optimization space (dL/d log p =
    p dL/dp for log channels).  Its clipped new value goes to all of its
    entries, so a tied group stays one record.  Frozen entries are not
    touched: they are clipped only when learn projects on entry.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.values.shape:
        raise ValueError("gradient shape does not match the parameter table")
    if not np.isfinite(grads).all():
        bad = ~np.isfinite(grads)
        vertex = int(np.flatnonzero(bad.any(axis=1))[0])
        names = ", ".join(PARAM_CHANNELS[i] for i in np.flatnonzero(bad[vertex]))
        raise ValueError(f"non-finite gradient at vertex {vertex}, channel(s) {names}; "
                         "step rejected")

    x = params.values.take(state.head)
    log = slice(0, state.starts[_NUM_LOG])
    g_opt = np.bincount(state.unknown, weights=grads.take(state.entries),
                        minlength=x.size).astype(np.float64, copy=False)  # int64 when k = 0
    g_opt[log] *= x[log]

    state.step += 1
    t = state.step
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g_opt
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g_opt * g_opt
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    lr_t = state.lr * state.lr_decay ** (t - 1)
    denom = np.sqrt(v_hat) + state.eps_adam
    update = np.where(denom > 0.0, m_hat / np.where(denom > 0.0, denom, 1.0), 0.0)

    z = x - lr_t * update
    z[log] = np.exp(np.log(x[log]) - lr_t * update[log])
    # untouched unknowns keep their value: log/exp round trips are lossy
    x = np.where(update != 0.0, z, x)
    counts = state.starts[1:] - state.starts[:-1]
    np.clip(x, PARAM_LOWER.repeat(counts), PARAM_UPPER.repeat(counts), out=x)
    np.put(params.values, state.entries, x[state.unknown])
    return params


def rmse_normalized(image, ref) -> float:
    """Root-mean-square error on max(ref)-normalized intensities."""
    data = _as_array(image)
    ref = _as_array(ref)
    if data.shape != ref.shape:
        raise ValueError(f"image shape {data.shape} != reference shape {ref.shape}")
    scale = ref.max()
    if scale <= 0:
        scale = 1.0
    return float(np.sqrt(np.mean(((data - ref) / scale) ** 2)))


@dataclass
class LearnResult:
    """Losses per iteration run; learn leaves params at the table of the first
    finite row of least total_loss (np.argmin when every row is finite), or
    the entry table if no row is.  An aborted run's last row is non-finite."""

    iterations: int
    aborted: bool
    total_loss: np.ndarray       # (iters,)
    sim_loss: np.ndarray
    tv_loss: np.ndarray
    view_rmse: np.ndarray        # (iters, num_views)


def _checked(views):
    """(HitSet, reference array) pairs, at least one: each reference the
    traced shape and finite."""
    if not views:
        raise ValueError("need at least one reference view")
    checked = []
    for vi, (hits, ref) in enumerate(views):
        ref = _as_array(ref)
        if hits.image_shape != ref.shape:
            raise ValueError(f"view {vi}: rendered shape {hits.image_shape} != "
                             f"reference shape {ref.shape}")
        if not np.isfinite(ref).all():
            row, col = divmod(int(np.flatnonzero(~np.isfinite(ref))[0]), ref.shape[1])
            raise ValueError(f"view {vi}: reference pixel (row {row}, bin {col}) is "
                             f"{float(ref[row, col])}, not a finite intensity")
        checked.append((hits, ref))
    return checked


@dataclass
class _Stack:
    """Every view's hits concatenated, with the per-hit operators that no
    parameter changes.  Live hits, whose facet touches a vertex with an
    unknown, are shaded per iteration; the others keep the intensity
    shaded when the stack was built."""

    ref: np.ndarray               # (P,) every view's reference, flattened, end to end
    scale: np.ndarray             # (P,) its view's reference peak, 1 where the peak is <= 0
    spans: list                   # views + 1 ints: view v owns pixels spans[v]:spans[v + 1]
    pixel: np.ndarray             # (H,) flat pixel of every hit
    intensity: np.ndarray         # (H,) weight * sigma, filled in for the frozen hits
    live: np.ndarray              # (L,) positions of the live hits
    corners: np.ndarray           # (3, L) their facet corners' vertex ids
    bary: np.ndarray              # (L, 3) their barycentric rows (m1, m2, 1 - m1 - m2)
    weight: np.ndarray            # (L,)
    groups: list                  # (BsdfAngles, live rows) per distinct wave
    live_pixel: np.ndarray        # (L,) pixel of each live hit
    live_counts: np.ndarray       # (views,) how many live hits each view has
    touched: np.ndarray           # (T,) vertices with unknowns that live hits reach
    slot: np.ndarray              # (L * 3,) adjoint bin view * T + touched of each corner
    channels: np.ndarray          # (C,) the channels with an unknown, ascending
    product: np.ndarray           # (L, 3) the adjoint's buffer: bary rows x one partial
    edges: np.ndarray             # (E, 2) the mesh's edges, the TV term's pairs


def _stack(params: ParamMap, views, entries=None) -> _Stack:
    """Stack _checked views with imaging.stack_views.
    entries: the flat table indices v * 4 + c that may move (None: all).
    Hits touching no vertex with an entry are shaded here, once, with params."""
    n = params.num_vertices
    starts, vids, bary, theta, waves, wave_id, pixel, weight, spans = stack_views(
        [hits for hits, _ in views], n)
    refs = [ref for _, ref in views]
    view_id = np.repeat(np.arange(len(views)), np.diff(starts))

    entries = np.arange(4 * n) if entries is None else np.asarray(entries)
    movable = np.bincount(entries // 4, minlength=n) > 0
    # np.bincount, not np.unique, whose hash table of the entries raised the
    # cube recovery's peak memory by about 1 MB
    channels = np.flatnonzero(np.bincount(entries % 4, minlength=4))
    reach = movable.take(vids)                       # (H, 3)
    is_live = reach.any(axis=1)
    live, frozen = np.flatnonzero(is_live), np.flatnonzero(~is_live)
    intensity = np.zeros(pixel.size)
    if frozen.size:
        intensity[frozen] = weight[frozen] * shade_hits(
            params, vids[frozen].T, bary[frozen].T,
            by_wave(waves, wave_id[frozen], theta[frozen]))[0]

    corner, reached = vids[live], reach[live]
    mark = np.zeros(n, dtype=bool)
    mark[corner[reached]] = True
    touched = np.flatnonzero(mark)
    slot = np.where(reached, view_id[live, None] * touched.size
                    + np.searchsorted(touched, corner), len(views) * touched.size)
    return _Stack(
        ref=np.concatenate([ref.ravel() for ref in refs]),
        scale=np.repeat([ref.max(initial=0.0) or 1.0 for ref in refs], np.diff(spans)),
        spans=spans, pixel=pixel, intensity=intensity, live=live,
        corners=np.ascontiguousarray(corner.T), bary=bary[live], weight=weight[live],
        groups=by_wave(waves, wave_id[live], theta[live]), live_pixel=pixel[live],
        live_counts=np.bincount(view_id[live], minlength=len(views)), touched=touched,
        slot=slot.ravel(), channels=channels, product=np.empty((live.size, 3)),
        edges=mesh_edges(views[0][0].mesh))


def _objective(stack: _Stack, params: ParamMap, cfg: LossConfig):
    """One learn iteration: (total, sim, tv, d(total)/d(params), per-view
    RMSE).  Bitwise the per-view loss_sim and rmse_normalized, with views'
    data terms summed in order, then the TV term.  The gradient is exact
    at every entry with an unknown: the adjoint runs over the stack's
    channels only, one product into stack.product and one np.bincount
    each.  Elsewhere it holds the TV term only."""
    sigma, dsigma = shade_hits(params, stack.corners, stack.bary.T, stack.groups)
    intensity = stack.intensity.copy()
    intensity[stack.live] = stack.weight * sigma
    image = np.bincount(stack.pixel, weights=intensity, minlength=stack.spans[-1])

    # every view's difference and square at once, then one sum per view
    # (np.sum's reduction) for its RMSE and its loss; the loss takes the
    # unscaled difference unless cfg.normalize
    spans, num_views = stack.spans, len(stack.spans) - 1
    diff = image - stack.ref
    scaled = diff / stack.scale
    square = scaled * scaled
    rmses, sim, coef = np.empty(num_views), 0.0, []
    for vi, (lo, hi) in enumerate(zip(spans, spans[1:])):
        total = np.add.reduce(square[lo:hi])
        rmses[vi] = math.sqrt(total / (hi - lo))
        norm = cfg.lambda_sim / (num_views * (hi - lo))
        sim += norm * float(total if cfg.normalize else np.add.reduce(diff[lo:hi] * diff[lo:hi]))
        coef.append(2.0 * norm)
    tv, grads = loss_tv(params.values, stack.edges, cfg.lambda_mat)

    # dL/dI at the pixels the live hits read, then backward over those
    # hits, each view into its own block
    pixel = stack.live_pixel
    dLdI = np.repeat(coef, stack.live_counts) * (scaled if cfg.normalize else diff).take(pixel)
    if cfg.normalize:
        dLdI /= stack.scale.take(pixel)
    partial = (dLdI * stack.weight) * dsigma.take(stack.channels, axis=0)   # (C, L)
    size = stack.touched.size
    blocks = np.empty((partial.shape[0], num_views * size + 1))
    for block, d in zip(blocks, partial):
        np.multiply(stack.bary, d[:, None], out=stack.product)
        block[:] = np.bincount(stack.slot, stack.product.ravel(), block.size)
    adjoint = np.zeros((partial.shape[0], size))
    for vi in range(num_views):                 # the views' sums in order, as one view at a time
        adjoint += blocks[:, vi * size:(vi + 1) * size]
    grads[stack.touched[:, None], stack.channels] += adjoint.T
    return sim + tv, sim, tv, grads, rmses


def learn(params: ParamMap, views, opt: OptimState, cfg: LossConfig, iters: int) -> LearnResult:
    """Multi-view gradient-descent recovery of the parameter table.

    views: (HitSet, reference image) pairs from imaging.trace; all enter
    the gradient, and each iteration only re-shades them, since no
    parameter moves a hit.  Runs `iters` iterations, each evaluating the
    table before adam_step moves it, unless a loss is non-finite, which
    aborts.  Either way params ends, in place, at the first evaluated
    table of least total loss (the entry table when no loss is finite).  A
    negative iters raises ValueError before anything is stacked.  On
    entry, a view whose reference holds a NaN or inf pixel raises
    ValueError naming the view and the (row, bin); then opt.project runs
    (a tied group whose members start with different values raises
    ValueError) and the views are stacked, which raises a ValueError
    naming the view for a table of another size or another mesh: hits
    that touch no vertex with an unknown are shaded once, and only the
    others on every iteration.  The gradient handed to adam_step is exact
    at every entry with an unknown, so a non-finite partial stops learn
    only in a channel of an unknown, on a hit that reaches one.
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    views = _checked(views)
    opt.project(params)
    stack = _stack(params, views, opt.entries)
    best, best_total = params.copy(), math.inf

    total_hist, sim_hist, tv_hist, view_hist = [], [], [], []
    aborted = False
    for _ in range(iters):
        total, sim, tv, grads, rmses = _objective(stack, params, cfg)

        total_hist.append(total)
        sim_hist.append(sim)
        tv_hist.append(tv)
        view_hist.append(rmses)

        if not math.isfinite(total):
            aborted = True
            break
        if total < best_total:
            best_total = total
            best.values[:] = params.values
        adam_step(opt, params, grads)
    params.values[:] = best.values

    return LearnResult(
        iterations=len(total_hist), aborted=aborted, total_loss=np.asarray(total_hist),
        sim_loss=np.asarray(sim_hist), tv_loss=np.asarray(tv_hist),
        view_rmse=np.asarray(view_hist) if view_hist else np.zeros((0, len(views))),
    )


def write_history_csv(result: LearnResult, path) -> None:
    """iter,total_loss,sim_loss,tv_loss,view_rmse_* rows."""
    cols = ["iter", "total_loss", "sim_loss", "tv_loss"]
    cols += [f"view_rmse_{i}" for i in range(result.view_rmse.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for it in range(result.iterations):
            row = [str(it), repr(float(result.total_loss[it])),
                   repr(float(result.sim_loss[it])), repr(float(result.tv_loss[it]))]
            row += [repr(float(v)) for v in result.view_rmse[it]]
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


def grad_check(params: ParamMap, views, cfg: LossConfig, num_probes: int,
               seed: int = 0) -> GradCheckReport:
    """Compare learn's gradient with central finite differences of its loss.

    views: (HitSet, reference image) pairs, as for learn; every hit is
    live, and one stack serves the gradient and every probe.  Probes
    num_probes >= 0 random (vertex, channel) pairs; each side of a probe
    is the total loss of one learn iteration at the stepped table.
    Central steps are _FD_REL_STEP * |value| with an absolute floor of
    1e-8.  Probes where both sides vanish report zero error
    (unilluminated vertices).  Both sides shade with imaging.eval_bsdf_at.
    """
    if num_probes < 0:
        raise ValueError(f"num_probes must be >= 0, got {num_probes}")
    params.validate()
    views = _checked(views)
    stack = _stack(params, views)
    grads = _objective(stack, params, cfg)[3]

    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(num_probes):
        vid = int(rng.integers(params.num_vertices))
        ci = int(rng.integers(4))
        base = params.values[vid, ci]
        step = max(_FD_REL_STEP * abs(base), 1e-8)
        trial = params.copy()
        trial.values[vid, ci] = base + step
        up = _objective(stack, trial, cfg)[0]
        trial.values[vid, ci] = base - step
        down = _objective(stack, trial, cfg)[0]
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
