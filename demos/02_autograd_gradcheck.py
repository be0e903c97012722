"""The reverse-mode core and its finite-difference verifier.

Runs two pieces of the network by hand, a channel map (the 1x1 convolution
that embeds coordinates) and a GRU step, backpropagates a squared error,
and then lets the verifier compare every analytic gradient against central
differences. Adam then fits the same pieces to the target.
"""

import numpy as np

from epg_mgcn import autograd as ag
from epg_mgcn.autograd import GRUParams, Tensor
from epg_mgcn.gradcheck import finite_diff_check
from epg_mgcn.optim import Adam

rng = np.random.default_rng(0)

# 4 agents' 2-D positions, embedded to 5 channels, then one GRU step
positions = Tensor(rng.normal(size=(4, 2)), requires_grad=True, name="positions")
hidden = Tensor(rng.normal(size=(4, 5)), name="hidden")
target = rng.normal(size=(4, 5)) * 0.5
params = {"embed.weight": Tensor(rng.normal(size=(5, 2)), requires_grad=True),
          "embed.bias": Tensor(np.zeros(5), requires_grad=True)}
params.update({
    f"gru.{f}": Tensor(0.5 * rng.normal(size=(5,) if f[0] == "b" else (5, 5)),
                       requires_grad=True)
    for f in GRUParams.FIELDS})
gru = GRUParams(**{f: params[f"gru.{f}"] for f in GRUParams.FIELDS})


def loss_fn():
    embedded = ag.channel_mix(positions, params["embed.weight"],
                              params["embed.bias"])
    diff = ag.sub(ag.gru_cell(embedded, hidden, gru), target)
    return ag.tsum(ag.mul(diff, diff))


loss = loss_fn()
loss.backward()
print(f"loss = {loss.item():.6f}")
print("d loss / d positions[0] =", np.round(positions.grad[0], 6))

report = finite_diff_check(loss_fn, {"positions": positions, **params},
                           epsilon=1e-5, tolerance=1e-6)
print(report.summary())

# Adam drives the same loss toward zero
opt = Adam(params, learning_rate=0.05)
for step in range(60):
    opt.zero_grad()
    loss = loss_fn()
    loss.backward()
    opt.step()
    if step % 20 == 19:
        print(f"step {step + 1}: loss {loss.item():.6f}")
