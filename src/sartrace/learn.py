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
since Adam never writes their vertices.  The stack is built for one
LossConfig, so each live hit's loss factor (2 lambda_sim over the views
and its view's pixels) and its pixel's peak scale are laid out on entry
too.  So are the TV term's (edge, channel) pairs, unless lambda_mat is
0, when there are none: a pair with no unknown at either end is a
constant, summed on entry; one whose ends are entries of one unknown (a
tied group's values are always equal) is dropped; the rest are live.
An unknown is one channel of one vertex group, so the live pairs are
found per edge, from its two ends' groups, and not per channel.
An iteration then does only the work the table changes, in arrays sized
by the live hits, the live pairs and the k unknowns, never by the
table: the live hits' parameters interpolated in the channels with an
unknown (a channel that every vertex freezes, tau in every protocol, is
interpolated on entry), imaging.shade_rows (shade_views' kernel, one
imaging.eval_bsdf_at call per wave) over them, one np.bincount for
every view's pixels, one difference and one square over all of them
with one sum per view (its loss and its RMSE), dL/dI at the pixels the
live hits read, and one np.bincount over every channel with an unknown
that pulls it back into per-view blocks over the touched vertices; a
frozen channel's partials are not assembled.  The blocks are summed in
view order, each live entry adds its live pairs' TV subgradient, and
one np.bincount over the live entries, in table order, gives the k
unknowns' gradient.  So losses, RMSEs and that gradient are bitwise the
one-view-at-a-time loss_sim, rmse_normalized and the per-unknown sums
of backward(ledger, dLdI) and loss_tv's subgradient; only the TV loss
can move, in its last bits, since its pairs are summed in another
order.  grad_check's finite differences take the total of this same
objective, so the gradient it checks is the one learn steps with.

learn states each iteration's results once, as one row of its history
table: (total, sim, tv, then each view's RMSE).  LearnResult's losses
and RMSEs are that table's columns, and its iteration count and abort
flag are read from its rows.

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

from sartrace.imaging import HitLedger, SarImage, by_wave, shade_rows, stack_views
# the benchmark's traced run wraps this module's `render` by name
from sartrace.imaging import render  # noqa: F401
from sartrace.scene import (PARAM_CHANNELS, PARAM_LOWER, PARAM_UPPER, ParamMap, interpolate,
                            mesh_edges)

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
    map from table entries to unknowns; each unknown clips to its
    channel's PARAM_LOWER..PARAM_UPPER."""

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
    head: np.ndarray = field(repr=False)     # (k,) one entry per unknown, its least
    starts: np.ndarray = field(repr=False)   # (5,) channel c owns unknowns starts[c]:starts[c+1]
    bounds: np.ndarray = field(repr=False)   # (2, k) each unknown's lower and upper bound
    # (k,) the unknowns' current values: adam_step's last, or learn's on entry;
    # None until one of them reads them from the table
    values: np.ndarray | None = field(default=None, repr=False)
    # (entries, their unknowns) that adam_step writes: learn's live entries
    # during its run, every entry when None
    live: tuple | None = field(default=None, repr=False)

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
            starts=np.searchsorted(channel, np.arange(5)),
            bounds=np.stack([PARAM_LOWER, PARAM_UPPER]).take(channel, axis=1))

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


def adam_step(state: OptimState, params: ParamMap, g: np.ndarray) -> ParamMap:
    """One projected Adam update of the unknowns, in place.

    g holds the k unknowns' gradients, each the sum of its entries'
    partials in table order (learn's _objective assembles them so).  A
    non-finite value rejects the step before anything moves, naming the
    least vertex among the bad unknowns' head entries and its channels.
    Each step starts from state.values, the values it wrote last (read
    from the table's head entries when None, and set by learn on entry),
    so it never reads the table back.  Each gradient is chain-ruled into
    the optimization space (dL/d log p = p dL/dp for log channels), and
    the clipped new values replace state.values and go to the entries
    of state.live, learn's live entries, or to every entry of every
    unknown when it is None, so a tied group stays one record.  Frozen
    entries are not touched: they are clipped only when learn projects
    on entry.
    """
    g_opt = np.array(g, dtype=np.float64)      # a copy: the log slice is scaled in place
    if g_opt.shape != state.m.shape:
        raise ValueError(f"gradient shape {g_opt.shape} does not match the "
                         f"{state.m.size} unknowns")
    if not np.isfinite(g_opt).all():
        bad = state.head[~np.isfinite(g_opt)]
        vertex = int(bad.min()) // 4
        # unknowns run channel by channel, so a vertex's bad heads are in channel order
        names = ", ".join(PARAM_CHANNELS[c] for c in bad[bad // 4 == vertex] % 4)
        raise ValueError(f"non-finite gradient at vertex {vertex}, channel(s) {names}; "
                         "step rejected")

    x = params.values.take(state.head) if state.values is None else state.values
    log = slice(0, state.starts[_NUM_LOG])
    g_opt[log] *= x[log]

    # the textbook update, each operation in its order, in place where an
    # operand is used up
    state.step += 1
    t = state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * g_opt
    square = (1.0 - state.beta2) * g_opt
    square *= g_opt
    state.v *= state.beta2
    state.v += square
    m_hat = state.m / (1.0 - state.beta1 ** t)
    denom = state.v / (1.0 - state.beta2 ** t)
    np.sqrt(denom, out=denom)
    denom += state.eps_adam
    update = np.divide(m_hat, denom, out=np.zeros(m_hat.size), where=denom > 0.0)
    # untouched unknowns keep their value: log/exp round trips are lossy
    still = update == 0.0
    update *= state.lr * state.lr_decay ** (t - 1)

    z = x - update
    z_log = z[log]                            # a view: the log channels step in log space
    np.log(x[log], out=z_log)
    z_log -= update[log]
    np.exp(z_log, out=z_log)
    np.copyto(z, x, where=still)
    np.maximum(z, state.bounds[0], out=z)
    np.minimum(z, state.bounds[1], out=z)
    state.values = z                          # a new array: learn keeps the old as its best
    _write(params, *(state.live or (state.entries, state.unknown)), z)
    return params


def _write(params: ParamMap, entries: np.ndarray, unknown: np.ndarray, x: np.ndarray) -> None:
    """Give each of the flat table `entries` its unknown's value from x.  A
    ParamMap's table is C-contiguous, so reshape(-1) is a view, and its
    fancy assignment runs about 3x faster than np.put."""
    params.values.reshape(-1)[entries] = x.take(unknown)


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
    """learn's history, one row per iteration run: (total, sim, tv, then
    each view's RMSE).  learn leaves params at the table of the first
    finite row of least total_loss (np.argmin when every row is finite),
    or the entry table if no row is.  An aborted run's last row, and only
    its last, is non-finite."""

    history: np.ndarray          # (iters, 3 + num_views)

    iterations = property(lambda self: len(self.history))
    aborted = property(lambda self: not np.isfinite(self.history[-1:, 0]).all())
    total_loss = property(lambda self: self.history[:, 0])
    sim_loss = property(lambda self: self.history[:, 1])
    tv_loss = property(lambda self: self.history[:, 2])
    view_rmse = property(lambda self: self.history[:, 3:])    # (iters, num_views)


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
    parameter changes and the loss factors of one LossConfig.  Live hits,
    whose facet touches a vertex with an unknown, are shaded per
    iteration; the others keep the intensity shaded when the stack was
    built.  A live entry is a table entry with
    an unknown that a live hit or a live TV pair reaches; the gradient
    is assembled over those alone."""

    cfg: LossConfig               # the loss the stack's factors were built for
    ref: np.ndarray               # (P,) every view's reference, flattened, end to end
    scale: np.ndarray             # (P,) its view's reference peak, 1 where the peak is <= 0
    spans: list                   # views + 1 ints: view v owns pixels spans[v]:spans[v + 1]
    norms: list                   # per view, lambda_sim / (views x its pixels)
    pixel: np.ndarray             # (H,) flat pixel of every hit
    intensity: np.ndarray         # (H,) weight * sigma: the frozen hits' set here, the live ones'
                                  #   written by every iteration
    live: np.ndarray              # (L,) positions of the live hits
    gather: np.ndarray            # (3, C, L) flat table entries of their facet corners, in the
                                  #   channels with an unknown
    bary: np.ndarray              # (3, L) their barycentric weights m1, m2, 1 - m1 - m2
    values: np.ndarray            # (4, L) their interpolated parameters: the channels with no
                                  #   unknown set here, the others written by every iteration
    weight: np.ndarray            # (L,)
    groups: list                  # (BsdfAngles, live rows) per distinct wave
    live_pixel: np.ndarray        # (L,) pixel of each live hit
    factor: np.ndarray            # (L,) 2 x its view's norm: dL/dI per (scaled) difference
    live_scale: np.ndarray        # (L,) its pixel's scale
    channels: np.ndarray | slice  # the channels with an unknown, ascending: a slice when they
                                  #   lead the table, so that dsigma[channels] is a view
    product: np.ndarray           # (C, L, 3) the adjoint's buffer: bary rows x each partial
    slot: np.ndarray              # (C * L * 3,) each product's bin (view, channel, touched
                                  #   vertex); one bin past the others for a corner without one
    block: int                    # C * T bins per view, T the touched vertices
    entries: np.ndarray           # (M,) the live entries' flat table indices, ascending
    adjoint_at: np.ndarray        # (M,) each live entry's bin in a view's block, block if none
    unknown: np.ndarray           # (M,) each live entry's unknown
    num_unknowns: int
    tv_const: float               # sum |v_j - v_i| over the pairs with no unknown at either end
    tv_ends: np.ndarray           # (2, Q) flat table entries (i, j) of each live TV pair
    tv_at: np.ndarray             # (2, Q) their live entry positions, M where frozen


def _stack(params: ParamMap, views, opt: OptimState, cfg: LossConfig) -> _Stack:
    """Stack _checked views with imaging.stack_views over opt's unknowns,
    for the loss cfg.  Hits touching no vertex with an unknown are shaded
    here, once, with params, and each live hit's loss factor and peak
    scale are laid out.  When cfg.lambda_mat is 0 there is no TV pair;
    otherwise the TV term's (edge, channel) pairs are sorted once: a pair
    with no unknown at either end is a constant, one whose ends are
    entries of one unknown (a tied group's, always equal) is dropped, and
    the rest are live."""
    n, num_views = params.num_vertices, len(views)
    starts, vids, bary, theta, waves, wave_id, pixel, weight, spans = stack_views(
        [hits for hits, _ in views], n)
    refs = [ref for _, ref in views]
    view_id = np.repeat(np.arange(num_views), np.diff(starts))
    norms = [cfg.lambda_sim / (num_views * (hi - lo)) for lo, hi in zip(spans, spans[1:])]
    scale = np.repeat([ref.max(initial=0.0) or 1.0 for ref in refs], np.diff(spans))

    of = np.full((n, 4), -1)                          # each table entry's unknown, -1 if frozen
    of.flat[opt.entries] = opt.unknown
    has = of >= 0
    moving = has.any(axis=0)                          # (4,) the channels with an unknown
    channels = np.flatnonzero(moving)
    reach = has.any(axis=1).take(vids)               # (H, 3)
    is_live = reach.any(axis=1)
    live, frozen = np.flatnonzero(is_live), np.flatnonzero(~is_live)
    intensity = np.zeros(pixel.size)
    intensity[frozen] = weight[frozen] * shade_rows(
        interpolate(params.values, vids[frozen].T, bary[frozen].T).T,
        by_wave(waves, wave_id[frozen], theta[frozen]))[0]

    corner, reached = vids[live], reach[live]
    mark = np.zeros(n, dtype=bool)
    mark[corner[reached]] = True
    touched = np.flatnonzero(mark)
    block = channels.size * touched.size
    bins = np.full((n, 4), block)        # each entry's bin in a view's block, block if none
    bins[touched[:, None], channels] = np.arange(block).reshape(channels.size, touched.size).T
    slot = np.where(reached, bins.T.take(channels, axis=0)[:, corner]
                    + view_id[live, None] * block, num_views * block)        # (C, L, 3)

    used = has & mark[:, None]
    tv_ends, tv_const = np.zeros((2, 0), dtype=np.int64), 0.0
    if cfg.lambda_mat:
        edges = mesh_edges(views[0][0].mesh)
        diff = params.values.take(edges[:, 1], axis=0) - params.values.take(edges[:, 0], axis=0)
        ends = has.take(edges.T, axis=0)                      # (2, E, 4)
        tv_const = float(np.abs(diff[~(ends[0] | ends[1])]).sum())
        # an unknown is one channel of one vertex group (OptimState.create), so
        # a vertex's unknown in the first channel with one names its group, -1
        # for a frozen vertex (and in every channel when none has an unknown):
        # a pair is live when its channel has an unknown and its edge joins
        # two groups
        group = of[:, moving.argmax()].take(edges.T)          # (2, E)
        cut = np.flatnonzero(group[0] != group[1])
        tv_ends = (edges.T[:, cut, None] * 4 + channels).reshape(2, -1)  # (2, Q), (edge, channel)
        used.flat[tv_ends] = has.flat[tv_ends]
    at = np.flatnonzero(used)                                 # (M,) the live entries
    live_pixel = pixel[live]
    corners, live_bary = np.ascontiguousarray(corner.T), np.ascontiguousarray(bary[live].T)
    # ascending and distinct, so they lead the table when the last is C - 1
    leading = channels.size == 0 or channels[-1] == channels.size - 1
    return _Stack(
        cfg=cfg, ref=np.concatenate([ref.ravel() for ref in refs]), scale=scale, spans=spans,
        norms=norms, pixel=pixel, intensity=intensity, live=live,
        gather=corners[:, None] * 4 + channels[:, None], bary=live_bary,
        values=interpolate(params.values, corners, live_bary), weight=weight[live],
        groups=by_wave(waves, wave_id[live], theta[live]), live_pixel=live_pixel,
        factor=np.repeat([2.0 * norm for norm in norms],
                         np.bincount(view_id[live], minlength=num_views)),
        live_scale=scale.take(live_pixel), channels=slice(0, channels.size) if leading else channels,
        product=np.empty((channels.size, live.size, 3)), slot=slot.ravel(),
        block=block, entries=at, adjoint_at=bins.ravel().take(at), unknown=of.ravel().take(at),
        num_unknowns=opt.m.size, tv_const=tv_const, tv_ends=tv_ends,
        tv_at=np.where(has.ravel().take(tv_ends), np.searchsorted(at, tv_ends), at.size))


def _objective(stack: _Stack, params: ParamMap):
    """One learn iteration under stack.cfg: (total, sim, tv,
    d(total)/d(unknowns) (k,), per-view RMSE).  params is read in the
    channels with an unknown; the others, like the frozen hits, keep the
    stacked table's values.  Bitwise the per-view loss_sim and
    rmse_normalized, with views' data terms summed in order, then the TV
    term over the stack's constant and live pairs.  Each live entry's
    partial is its TV subgradient plus its adjoint, the views' blocks
    summed in order, and an unknown's gradient sums its entries' in
    table order, as a sum of the full table's entries would."""
    cfg = stack.cfg
    # the channels with an unknown, interpolated as scene.interpolate does
    v0, v1, v2 = params.values.reshape(-1).take(stack.gather)       # (C, L) each
    rows = np.multiply(stack.bary[0], v0)
    rows += np.multiply(stack.bary[1], v1)
    rows += np.multiply(stack.bary[2], v2)
    stack.values[stack.channels] = rows
    sigma, dsigma = shade_rows(stack.values.T, stack.groups)
    intensity = stack.intensity
    intensity[stack.live] = stack.weight * sigma
    image = np.bincount(stack.pixel, weights=intensity, minlength=stack.spans[-1])

    # every view's difference and square at once, then one sum per view
    # (np.sum's reduction) for its RMSE and its loss; the loss takes the
    # unscaled difference unless cfg.normalize
    spans, num_views = stack.spans, len(stack.spans) - 1
    diff = image - stack.ref
    scaled = diff / stack.scale
    square = scaled * scaled
    rmses, sim = np.empty(num_views), 0.0
    for vi, (lo, hi, norm) in enumerate(zip(spans, spans[1:], stack.norms)):
        total = np.add.reduce(square[lo:hi])
        rmses[vi] = math.sqrt(total / (hi - lo))
        sim += norm * float(total if cfg.normalize else np.add.reduce(diff[lo:hi] * diff[lo:hi]))

    # dL/dI at the pixels the live hits read, then every channel's
    # products, hit-major, filled one corner's row at a time, in one
    # np.bincount into one block per view
    dLdI = stack.factor * (scaled if cfg.normalize else diff).take(stack.live_pixel)
    if cfg.normalize:
        dLdI /= stack.live_scale
    partial = (dLdI * stack.weight) * dsigma[stack.channels]   # (C, L)
    for corner, row in enumerate(stack.bary):
        np.multiply(row, partial, out=stack.product[:, :, corner])
    size = stack.block
    blocks = np.bincount(stack.slot, stack.product.ravel(), num_views * size + 1)
    adjoint = np.zeros(size + 1)              # its last bin stays 0, for the entries of no block
    for vi in range(num_views):               # the views' sums in order, as one view at a time
        adjoint[:size] += blocks[vi * size:(vi + 1) * size]
    grad = adjoint.take(stack.adjoint_at)
    tv = 0.0
    if cfg.lambda_mat:
        lo, hi = params.values.take(stack.tv_ends)
        step = hi - lo
        tv = cfg.lambda_mat * float(stack.tv_const + np.abs(step).sum())
        sign, m = cfg.lambda_mat * np.sign(step), grad.size
        grad = (np.bincount(stack.tv_at[1], sign, m + 1)[:m]
                - np.bincount(stack.tv_at[0], sign, m + 1)[:m]) + grad
    return sim + tv, sim, tv, np.bincount(stack.unknown, grad, stack.num_unknowns), rmses


def learn(params: ParamMap, views, opt: OptimState, cfg: LossConfig, iters: int) -> LearnResult:
    """Multi-view gradient-descent recovery of the parameter table.

    views: (HitSet, reference image) pairs from imaging.trace; all enter
    the gradient, and each iteration only re-shades them, since no
    parameter moves a hit.  Runs `iters` iterations, each evaluating the
    table before adam_step moves it, unless a loss is non-finite, which
    aborts, and returns one history row per iteration run.  Either way
    params ends, in place, at the first evaluated table of least total
    loss (the entry table when no loss is finite): learn keeps that
    iterate's k unknowns and writes them back on exit.
    In between, adam_step writes only the live entries, those the next
    iteration reads; an exception after a step gives every entry its
    unknown's last value before it propagates.
    A negative iters raises ValueError before anything is stacked.  On
    entry, a view whose reference holds a NaN or inf pixel raises
    ValueError naming the view and the (row, bin); then opt.project runs
    (a tied group whose members start with different values raises
    ValueError) and the views are stacked, which raises a ValueError
    naming the view for a table of another size or another mesh: hits
    that touch no vertex with an unknown are shaded once, and only the
    others on every iteration, and TV pairs with no unknown at either
    end are summed once.  adam_step gets the k unknowns' gradients, so a
    non-finite partial stops learn only in a channel of an unknown, on a
    hit that reaches one.
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    views = _checked(views)
    opt.project(params)
    stack = _stack(params, views, opt, cfg)
    best, best_total = None, math.inf
    # adam_step steps from opt.values and writes only the live entries
    opt.values, opt.live = params.values.take(opt.head), (stack.entries, stack.unknown)
    first, done = opt.step, False

    history = []
    try:
        for _ in range(iters):
            total, sim, tv, grads, rmses = _objective(stack, params)
            history.append((total, sim, tv, *rmses.tolist()))
            if not math.isfinite(total):
                break
            if total < best_total:
                best_total, best = total, opt.values      # adam_step replaces, never writes, it
            adam_step(opt, params, grads)
        done = True
    finally:
        opt.live = None
        if opt.step > first:        # every entry to the best iterate, or to the last on an error
            if done:
                opt.values = best
            _write(params, opt.entries, opt.unknown, opt.values)

    return LearnResult(np.reshape(history, (-1, 3 + len(views))))


def write_history_csv(result: LearnResult, path) -> None:
    """iter,total_loss,sim_loss,tv_loss,view_rmse_* rows: the history's rows, numbered."""
    cols = ["iter", "total_loss", "sim_loss", "tv_loss"]
    cols += [f"view_rmse_{i}" for i in range(result.view_rmse.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for it, row in enumerate(result.history.tolist()):
            fh.write(",".join([str(it), *map(repr, row)]) + "\n")


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

    views: (HitSet, reference image) pairs, as for learn.  One stack
    over an untied optimizer with every entry its own unknown (k = 4n)
    serves the gradient and every probe: every hit and every TV pair is
    live, and the (n, 4) table the probes read is its k values.  Probes
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
    opt = OptimState.create(params.num_vertices)        # untied: one unknown per entry
    stack = _stack(params, views, opt, cfg)
    grads = _objective(stack, params)[3].take(opt.unknown).reshape(-1, 4)

    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(num_probes):
        vid = int(rng.integers(params.num_vertices))
        ci = int(rng.integers(4))
        base = params.values[vid, ci]
        step = max(_FD_REL_STEP * abs(base), 1e-8)
        trial = params.copy()
        trial.values[vid, ci] = base + step
        up = _objective(stack, trial)[0]
        trial.values[vid, ci] = base - step
        down = _objective(stack, trial)[0]
        fd = (up - down) / (2.0 * step)
        analytic = float(grads[vid, ci])
        denom = max(abs(analytic), abs(fd))
        rel = 0.0 if denom < 1e-14 else abs(analytic - fd) / denom
        probes.append(GradCheckProbe(vertex=vid, channel=PARAM_CHANNELS[ci],
                                     analytic=analytic, finite_diff=fd, rel_err=rel))
    rels = np.array([p.rel_err for p in probes] or [0.0])
    return GradCheckReport(probes=probes, max_rel_err=float(rels.max()),
                           median_rel_err=float(np.median(rels)))
