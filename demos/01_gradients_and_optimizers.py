#!/usr/bin/env python3
"""Tour of the numeric core: tape gradients, the complex-step oracle,
gradient clipping, and the two optimizers.

Run:  python3 demos/01_gradients_and_optimizers.py
"""

import numpy as np

from refnet import autodiff as ad
from refnet.params import (Optimizer, OptimizerConfig, ParamStore, backward,
                           clip_gradient_norm, finite_diff_grad,
                           grad_global_norm, relative_error)

print("=== reverse-mode gradients ===")
ps = ParamStore()
ps.add("W", np.random.default_rng(0).normal(size=(3, 4)), "encoder")
ps.add("b", np.zeros(4), "encoder")
x = ad.Tensor(np.random.default_rng(1).normal(size=(5, 3)))


def loss_fn(p):
    h = ad.tanh(ad.matmul(x, p["W"]) + p["b"])
    return ad.sum_(ad.square(ad.softmax(h, axis=1) - 0.25))


loss = loss_fn(ps)
grads = backward(loss, ps)
print(f"loss = {float(loss.data):.6f}")
for name, g in grads.items():
    print(f"grad[{name}]: shape {g.shape}, norm {np.linalg.norm(g):.4f}")

print("\n=== every gradient is checked against the complex-step oracle ===")
oracle = finite_diff_grad(loss_fn, ps, step=1e-20)
for name in grads:
    err = relative_error(grads[name], oracle[name])
    print(f"{name}: max relative error vs oracle = {err:.2e}")

print("\n=== global-norm clipping ===")
big = {"a": np.array([30.0, 40.0])}
clipped = clip_gradient_norm(big, max_norm=1.0)
print(f"norm before {grad_global_norm(big):.1f}, after "
      f"{grad_global_norm(clipped):.3f}, direction {clipped['a']}")

print("\n=== optimizers: 50 SGD steps on a quadratic ===")
quad = ParamStore()
quad.add("p", 1.0, "encoder")
opt = Optimizer(OptimizerConfig(kind="sgd", lr=0.1))
for step in range(50):
    opt.step(quad, backward(ad.square(quad["p"]), quad))
print(f"p after 50 steps: {float(quad['p'].data):.2e} (analytic optimum 0)")

quad2 = ParamStore()
quad2.add("p", 1.0, "encoder")
adam = Optimizer(OptimizerConfig(kind="adam", lr=0.1))
for step in range(200):
    adam.step(quad2, backward(ad.square(quad2["p"]), quad2))
print(f"adam reaches {float(quad2['p'].data):.2e} in 200 steps")

print("\n=== freezing removes parameters from every update ===")
frozen = ParamStore()
frozen.add("fixed", [1.0, 2.0], "encoder")
frozen.add("free", [1.0, 2.0], "decoder")
frozen.freeze("encoder")
g = backward(ad.sum_(ad.square(frozen["fixed"])) +
             ad.sum_(ad.square(frozen["free"])), frozen)
print(f"gradient record covers only: {sorted(g)}")
