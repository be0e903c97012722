"""Reference model for the benchmark's correctness checks.

A second implementation of the EPG-MGCN forward pass, loss, backward pass
and Adam update in plain numpy, written without the package's autograd so
that it does not share the code a performance change rewrites. It covers
the one architecture the benchmark runs: the default ``ModelConfig`` (all
four graphs, two blocks per branch, planning fusion, one decoder per
category for vehicle, pedestrian and bicyclist) in float64.

``selftest.py`` checks it against outputs recorded from the package at the
commit that introduced the benchmark (``reference_outputs.json``), so a run
compares the program's outputs against that commit's behaviour.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for every float comparison, fixed before measuring.
# Errors are measured against the largest magnitude in the reference array.
RTOL = 1e-9

GRAPHS = ("distance", "visibility", "planning", "category")
DECODED = ("vehicle", "pedestrian", "bicyclist")
GATES = ("z", "r", "h")
BLOCKS = 2
D_D = 10.0
BETA_DEGREES = 20.0
MOTION_EPSILON = 1e-4
COINCIDENT_DISTANCE = 1e-9
COINCIDENT_CAP = 1e9
ADAM = dict(beta1=0.9, beta2=0.999, eps=1e-8)


def close(actual, expected) -> bool:
    """True when shapes match, ``actual`` is finite and every element is
    within ``RTOL`` times max |expected| of ``expected``."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape or not np.isfinite(actual).all():
        return False
    if actual.size == 0:
        return True
    return float(np.abs(actual - expected).max()) <= RTOL * float(np.abs(expected).max())


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _gru_shapes(prefix, c):
    for gate in GATES:
        yield f"{prefix}.w_{gate}", (c, c), c
        yield f"{prefix}.u_{gate}", (c, c), c
        yield f"{prefix}.b_{gate}", (c,), None


def param_shapes(c):
    """(name, shape, fan_in) in the package's registration order."""
    yield "embed.weight", (c, 2), 2
    yield "embed.bias", (c,), None
    for g in GRAPHS:
        for b in range(BLOCKS):
            yield f"branch.{g}.block{b}.spatial.weight", (c, c), c
            yield f"branch.{g}.block{b}.temporal.kernel", (c, c, 3), 3 * c
    yield "graph_fusion.weight", (1, len(GRAPHS)), len(GRAPHS)
    yield "graph_fusion.bias", (1,), None
    yield "plan.embed.weight", (c, 2), 2
    yield "plan.embed.bias", (c,), None
    yield from _gru_shapes("plan.gru", c)
    yield "plan_fusion.weight", (1, 2), 2
    yield "plan_fusion.bias", (1,), None
    for key in DECODED:
        yield from _gru_shapes(f"decoder.{key}.enc", c)
        yield f"decoder.{key}.pos_embed.weight", (c, 2), 2
        yield f"decoder.{key}.pos_embed.bias", (c,), None
        yield from _gru_shapes(f"decoder.{key}.dec", c)
        yield f"decoder.{key}.out.weight", (2, c), c
        yield f"decoder.{key}.out.bias", (2,), None


def init_params(channels, seed):
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, fan_in in param_shapes(channels):
        if fan_in is None:
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


# ---------------------------------------------------------------------------
# scenes and graphs
# ---------------------------------------------------------------------------


def center(scene):
    """Ego-centered copy of a scene given as a dict of arrays."""
    offset = scene["observed"][0, -1].copy()
    out = dict(scene)
    out["observed"] = scene["observed"] - offset
    out["future"] = scene["future"] - offset
    out["plan"] = scene["plan"] - offset
    out["origin"] = offset
    return out


def graphs(scene):
    """The four raw adjacency matrices at the last observed frame."""
    obs, obs_mask = scene["observed"], scene["obs_mask"]
    pos = obs[:, -1]
    present = obs_mask[:, -1]
    n = pos.shape[0]
    diff = pos[None, :, :] - pos[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    off_diag = ~np.eye(n, dtype=bool)
    both = present[:, None] & present[None, :] & off_diag

    near = (dist > 0) & (dist <= D_D)
    distance = np.zeros((n, n))
    distance[near] = 1.0 / dist[near]
    distance[(dist < COINCIDENT_DISTANCE) & both] = COINCIDENT_CAP
    distance[~both] = 0.0

    heading = obs[:, -1] - obs[:, -2]
    speed = np.linalg.norm(heading, axis=1)
    valid = obs_mask[:, -1] & obs_mask[:, -2] & (speed >= MOTION_EPSILON)
    with np.errstate(divide="ignore", invalid="ignore"):
        dots = np.einsum("ij,ikj->ik", heading, diff)
        visibility = np.where((dots > 0) & (dist > COINCIDENT_DISTANCE),
                              dots / (speed[:, None] * dist * dist), 0.0)
    visibility[~valid, :] = 0.0
    visibility[~both] = 0.0

    to_end = scene["plan"][-1][None, :] - pos
    reach = np.linalg.norm(to_end, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_alpha = np.einsum("ij,ij->i", heading, to_end) / (speed * reach)
    aligned = valid & present & (reach > COINCIDENT_DISTANCE) & (
        cos_alpha >= np.cos(np.deg2rad(BETA_DEGREES)))
    aligned[0] = False
    planning = np.zeros((n, n))
    if present[0]:
        planning[aligned, 0] = 1.0

    cats = np.asarray(scene["categories"])
    category = (cats[:, None] == cats[None, :]).astype(np.float64)
    category[~both] = 0.0
    return {"distance": distance, "visibility": visibility,
            "planning": planning, "category": category}


def normalize(e):
    e_hat = e + np.eye(e.shape[0])
    return e_hat / e_hat.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# forward and backward
# ---------------------------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru(p, prefix, x, h):
    """One GRU step on (B, C) rows; returns h' and the values backward needs."""
    z = _sigmoid(x @ p[f"{prefix}.w_z"] + h @ p[f"{prefix}.u_z"] + p[f"{prefix}.b_z"])
    r = _sigmoid(x @ p[f"{prefix}.w_r"] + h @ p[f"{prefix}.u_r"] + p[f"{prefix}.b_r"])
    rh = r * h
    n = np.tanh(x @ p[f"{prefix}.w_h"] + rh @ p[f"{prefix}.u_h"] + p[f"{prefix}.b_h"])
    return (1.0 - z) * h + z * n, (x, h, z, r, rh, n)


def _gru_back(p, g, prefix, saved, dh_out):
    """Backward of one GRU step; accumulates parameter grads into ``g`` and
    returns (dx, dh)."""
    x, h, z, r, rh, n = saved
    dz = dh_out * (n - h)
    dh = dh_out * (1.0 - z)
    dpn = dh_out * z * (1.0 - n * n)
    g[f"{prefix}.w_h"] += x.T @ dpn
    g[f"{prefix}.u_h"] += rh.T @ dpn
    g[f"{prefix}.b_h"] += dpn.sum(axis=0)
    dx = dpn @ p[f"{prefix}.w_h"].T
    drh = dpn @ p[f"{prefix}.u_h"].T
    dh += drh * r
    dpr = drh * h * r * (1.0 - r)
    dpz = dz * z * (1.0 - z)
    for gate, dp in (("r", dpr), ("z", dpz)):
        g[f"{prefix}.w_{gate}"] += x.T @ dp
        g[f"{prefix}.u_{gate}"] += h.T @ dp
        g[f"{prefix}.b_{gate}"] += dp.sum(axis=0)
        dx += dp @ p[f"{prefix}.w_{gate}"].T
        dh += dp @ p[f"{prefix}.u_{gate}"].T
    return dx, dh


def _unfold(x):
    """Same-padded 3-tap windows of (N, C, T) as (N, 3C, T), tap-major."""
    t = x.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    return np.concatenate([xp[:, :, j:j + t] for j in range(3)], axis=1)


def _flat_kernel(kernel):
    """(C_out, C_in, 3) -> (C_out, 3 C_in), matching :func:`_unfold`."""
    return kernel.transpose(0, 2, 1).reshape(kernel.shape[0], -1)


def _weight_grad(dy, x):
    """sum_n dy[n] @ x[n].T for dy (N, O, T) and x (N, I, T)."""
    o, i = dy.shape[1], x.shape[1]
    return dy.transpose(1, 0, 2).reshape(o, -1) @ x.transpose(1, 0, 2).reshape(i, -1).T


def forward(scene, p, adjacency=None):
    """Predictions (N, T_pred, 2) in the centered frame, plus a cache for
    :func:`backward`. ``scene`` must already be ego-centered."""
    obs, mask = scene["observed"], scene["obs_mask"]
    n, t_obs, _ = obs.shape
    t_pred = scene["future"].shape[1]
    adjacency = graphs(scene) if adjacency is None else adjacency
    cache = {}

    emb = (obs @ p["embed.weight"].T + p["embed.bias"]) * mask[:, :, None]
    z0 = emb.transpose(0, 2, 1)
    c = z0.shape[1]
    branch_out = []
    for g in GRAPHS:
        a = normalize(adjacency[g])
        z = z0
        blocks = []
        for b in range(BLOCKS):
            mixed = (a @ z.reshape(n, c * t_obs)).reshape(n, c, t_obs)
            lifted = p[f"branch.{g}.block{b}.spatial.weight"] @ mixed
            unfolded = _unfold(np.maximum(lifted, 0.0))
            z = _flat_kernel(p[f"branch.{g}.block{b}.temporal.kernel"]) @ unfolded
            blocks.append((mixed, lifted, unfolded))
        cache[g] = (a, blocks)
        branch_out.append(z)
    fg_pre = np.tensordot(p["graph_fusion.weight"][0], np.stack(branch_out), axes=1) \
        + p["graph_fusion.bias"][0]
    fg = np.maximum(fg_pre, 0.0)

    plan_in = scene["plan"] @ p["plan.embed.weight"].T + p["plan.embed.bias"]
    h = np.zeros((1, c))
    plan_steps = []
    for k in range(plan_in.shape[0]):
        h, saved = _gru(p, "plan.gru", plan_in[k:k + 1], h)
        plan_steps.append(saved)
    plan_h = h[0]
    w_pf = p["plan_fusion.weight"][0]
    ff_pre = w_pf[0] * fg + w_pf[1] * plan_h[None, :, None] + p["plan_fusion.bias"][0]
    ff = np.maximum(ff_pre, 0.0)

    pred = np.repeat(obs[:, -1][:, None, :], t_pred, axis=1)
    groups = {}
    for i, cat in enumerate(scene["categories"]):
        if cat in DECODED:
            groups.setdefault(cat, []).append(i)
    decoders = {}
    for key, idx in groups.items():
        f_in = ff[idx]
        h = np.zeros((len(idx), c))
        enc = []
        for k in range(t_obs):
            h, saved = _gru(p, f"decoder.{key}.enc", f_in[:, :, k], h)
            enc.append(saved)
        pos = obs[idx, -1]
        dec = []
        for k in range(t_pred):
            inp = pos @ p[f"decoder.{key}.pos_embed.weight"].T + p[f"decoder.{key}.pos_embed.bias"]
            h, saved = _gru(p, f"decoder.{key}.dec", inp, h)
            dec.append((pos, h, saved))
            pos = pos + h @ p[f"decoder.{key}.out.weight"].T + p[f"decoder.{key}.out.bias"]
            pred[idx, k] = pos
        decoders[key] = (idx, enc, dec)
    cache.update(z0=z0, branch_out=branch_out, fg_pre=fg_pre, fg=fg,
                 plan_in=plan_in, plan_steps=plan_steps, plan_h=plan_h,
                 ff_pre=ff_pre, decoders=decoders)
    return pred, cache


def loss_and_grad(pred, scene):
    """Masked mean squared Euclidean error over supervised agents, and its
    gradient with respect to the predictions. Returns (loss, dpred)."""
    sup = scene["fut_mask"].all(axis=1)
    sup[0] = False
    sup &= np.array([c in DECODED for c in scene["categories"]])
    weight = (sup[:, None] & scene["fut_mask"]).astype(np.float64)
    count = int(weight.sum())
    if count == 0:
        return 0.0, np.zeros_like(pred)
    diff = pred - scene["future"]
    loss = float((diff * diff * weight[:, :, None]).sum()) / count
    return loss, 2.0 * diff * weight[:, :, None] / count


def backward(scene, p, cache, dpred, grads):
    """Accumulate d(loss)/d(param) into ``grads`` given d(loss)/d(pred)."""
    obs, mask = scene["observed"], scene["obs_mask"]
    n, t_obs, _ = obs.shape
    ff_pre = cache["ff_pre"]
    dff = np.zeros_like(ff_pre)
    for key, (idx, enc, dec) in cache["decoders"].items():
        w_out = p[f"decoder.{key}.out.weight"]
        w_pos = p[f"decoder.{key}.pos_embed.weight"]
        dpos = np.zeros((len(idx), 2))
        dh = np.zeros((len(idx), w_out.shape[1]))
        for k in reversed(range(len(dec))):
            pos_prev, h_k, saved = dec[k]
            dpos = dpos + dpred[idx, k]
            grads[f"decoder.{key}.out.weight"] += dpos.T @ h_k
            grads[f"decoder.{key}.out.bias"] += dpos.sum(axis=0)
            dh = dh + dpos @ w_out
            dinp, dh = _gru_back(p, grads, f"decoder.{key}.dec", saved, dh)
            grads[f"decoder.{key}.pos_embed.weight"] += dinp.T @ pos_prev
            grads[f"decoder.{key}.pos_embed.bias"] += dinp.sum(axis=0)
            dpos = dpos + dinp @ w_pos
        df_in = np.zeros((len(idx), dh.shape[1], t_obs))
        for k in reversed(range(t_obs)):
            dx, dh = _gru_back(p, grads, f"decoder.{key}.enc", enc[k], dh)
            df_in[:, :, k] = dx
        dff[idx] += df_in

    dff_pre = dff * (ff_pre > 0)
    w_pf = p["plan_fusion.weight"][0]
    plan_h = cache["plan_h"]
    grads["plan_fusion.weight"][0, 0] += float((dff_pre * cache["fg"]).sum())
    grads["plan_fusion.weight"][0, 1] += float((dff_pre * plan_h[None, :, None]).sum())
    grads["plan_fusion.bias"][0] += float(dff_pre.sum())
    dh = (w_pf[1] * dff_pre.sum(axis=(0, 2)))[None, :]
    dplan_in = np.zeros_like(cache["plan_in"])
    for k in reversed(range(len(cache["plan_steps"]))):
        dx, dh = _gru_back(p, grads, "plan.gru", cache["plan_steps"][k], dh)
        dplan_in[k] = dx[0]
    grads["plan.embed.weight"] += dplan_in.T @ scene["plan"]
    grads["plan.embed.bias"] += dplan_in.sum(axis=0)

    dfg_pre = w_pf[0] * dff_pre * (cache["fg_pre"] > 0)
    w_gf = p["graph_fusion.weight"][0]
    grads["graph_fusion.bias"][0] += float(dfg_pre.sum())
    dz0 = np.zeros_like(cache["z0"])
    c = dz0.shape[1]
    for s, g in enumerate(GRAPHS):
        grads["graph_fusion.weight"][0, s] += float((dfg_pre * cache["branch_out"][s]).sum())
        dz = w_gf[s] * dfg_pre
        a, blocks = cache[g]
        for b in reversed(range(BLOCKS)):
            mixed, lifted, unfolded = blocks[b]
            kname = f"branch.{g}.block{b}.temporal.kernel"
            wname = f"branch.{g}.block{b}.spatial.weight"
            grads[kname] += _weight_grad(dz, unfolded).reshape(-1, 3, c).transpose(0, 2, 1)
            dunf = _flat_kernel(p[kname]).T @ dz
            dact = dunf[:, c:2 * c].copy()
            dact[:, :, :-1] += dunf[:, :c, 1:]
            dact[:, :, 1:] += dunf[:, 2 * c:, :-1]
            dlifted = dact * (lifted > 0)
            grads[wname] += _weight_grad(dlifted, mixed)
            dmixed = p[wname].T @ dlifted
            dz = (a.T @ dmixed.reshape(n, c * t_obs)).reshape(n, c, t_obs)
        dz0 += dz
    demb = dz0.transpose(0, 2, 1) * mask[:, :, None]
    grads["embed.weight"] += np.einsum("nto,nti->oi", demb, obs)
    grads["embed.bias"] += demb.sum(axis=(0, 1))


# ---------------------------------------------------------------------------
# the three operations the benchmark checks
# ---------------------------------------------------------------------------


def predict(scene, p):
    """Predictions in the scene's original frame."""
    centered = center(scene)
    pred, _ = forward(centered, p)
    return pred + centered["origin"]


def what_if(scene, plans, p):
    """Base run plus one run per alternative plan (original frame).

    Returns (base predictions, [(planning column, divergence, max
    coordinate difference, predictions) per plan in order])."""
    centered = center(scene)
    adjacency = graphs(centered)
    base, _ = forward(centered, p, adjacency)
    base = base + centered["origin"]
    out = []
    for plan in plans:
        variant = dict(centered)
        variant["plan"] = plan - centered["origin"]
        adj = dict(adjacency)
        adj["planning"] = graphs(variant)["planning"]
        pred, _ = forward(variant, p, adj)
        pred = pred + centered["origin"]
        delta = pred - base
        out.append((adj["planning"][:, 0].copy(),
                    np.sqrt((delta ** 2).sum(axis=(1, 2))),
                    float(np.abs(delta).max()), pred))
    return base, out


def train_losses(scenes, channels, seed, batch_size, epochs, lr=1e-3):
    """Per-epoch mean losses of the package's training loop, replayed:
    seeded init, one seeded permutation per epoch, batch-mean loss, one
    Adam step per batch (the step schedule stays at ``lr`` below epoch 200)."""
    p = init_params(channels, seed)
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v = {k: np.zeros_like(v) for k, v in p.items()}
    rng = np.random.default_rng(seed)
    prepared = [center(s) for s in scenes]
    adjacency = [graphs(s) for s in prepared]
    b1, b2, eps = ADAM["beta1"], ADAM["beta2"], ADAM["eps"]
    step = 0
    losses = []
    for _ in range(epochs):
        perm = rng.permutation(len(prepared))
        loss_sum = 0.0
        for b0 in range(0, len(prepared), batch_size):
            batch = perm[b0:b0 + batch_size]
            grads = {k: np.zeros_like(x) for k, x in p.items()}
            total = 0.0
            for i in batch:
                pred, cache = forward(prepared[i], p, adjacency[i])
                loss, dpred = loss_and_grad(pred, prepared[i])
                total += loss
                backward(prepared[i], p, cache, dpred / len(batch), grads)
            step += 1
            for k in p:
                g = grads[k]
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                m_hat = m[k] / (1.0 - b1 ** step)
                v_hat = v[k] / (1.0 - b2 ** step)
                p[k] = p[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            loss_sum += total / len(batch) * len(batch)
        losses.append(loss_sum / len(prepared))
    return losses


def gradients(scene, p):
    """Loss of one scene and its gradient for every parameter."""
    centered = center(scene)
    pred, cache = forward(centered, p)
    loss, dpred = loss_and_grad(pred, centered)
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    backward(centered, p, cache, dpred, grads)
    return loss, grads
