#!/usr/bin/env python3
"""Spectral regimes and eigenvalue coalescence in the two-band model.

Sweeping the parameter varpi moves eigenvalue pairs of
H = (Lambda K - 2 varpi^2 sigma3) / (2 varpi) from imaginary to real; at
each varpi = sqrt(lambda_l) a pair coalesces into a length-2 Jordan chain.
The certificate machinery tracks the whole story, and the closed-form
witnesses stay valid straight through the coalescence.
"""
import numpy as np

from pseudospec.certify import (
    decide,
    residual_commute_antilinear,
    residual_intertwine_antilinear,
)
from pseudospec.truncated import (
    ModelSpec,
    build_H,
    closed_form_X,
    closed_form_operators,
    closed_form_tau,
    exceptional_set,
    real_pair_count,
)

lambdas = (1.0, 4.0)
roots = [float(r) for r in exceptional_set(ModelSpec(lambdas, 1.5))]
print(f"coalescence parameters: varpi in {roots}")

print("\nsweep across the regimes:")
for w in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
    spec = ModelSpec(lambdas, w)
    cert = decide(build_H(spec))
    real = sum(cert.table.clusters[n].algebraic for n in cert.labeling.real_clusters)
    plists = " ".join(str(list(c.p_list)) for c in cert.table.clusters)
    print(f"  varpi = {w:3.1f}   verdict = {cert.verdict:17s} "
          f"real eigenvalues = {real}   chains = {plists}")

print("\nexpected real count away from coalescence is twice the number of "
      "levels with lambda < varpi^2:")
for w in (0.5, 1.5, 3.0):
    print(f"  varpi = {w}: 2m = {2 * real_pair_count(ModelSpec(lambdas, w))}")

print("\nclosed-form witnesses at and off the coalescence point:")
for w in (1.5, 2.0):
    spec = ModelSpec(lambdas, w)
    H = build_H(spec)
    tau = closed_form_tau(spec)
    X = closed_form_X(spec)
    ops = closed_form_operators(spec)
    print(f"  varpi = {w}:")
    print(f"    tau intertwining residual = {residual_intertwine_antilinear(H, tau):.2e}")
    print(f"    X commutation residual    = {residual_commute_antilinear(H, X):.2e}")
    herm = np.linalg.norm(ops.eta - ops.eta.conj().T)
    inter = np.linalg.norm(H.conj().T @ ops.eta - ops.eta @ H)
    print(f"    metric: |eta - eta^+| = {herm:.2e}, |H^+ eta - eta H| = {inter:.2e}")

print("\npipeline X coincides with the closed form (plain conjugation here):")
for w in (0.5, 1.5, 3.0):
    spec = ModelSpec(lambdas, w)
    cert = decide(build_H(spec))
    dev = np.max(np.abs(cert.witnesses.X.matrix - closed_form_X(spec).matrix))
    print(f"  varpi = {w}: max entrywise deviation = {dev:.2e}")
