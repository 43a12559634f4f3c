#!/usr/bin/env python3
"""Certify pseudo-Hermiticity of a few operators.

A complex H whose spectrum is not closed under conjugation is refused from
its eigensolve, with the margin sigma_min(H - conj(E)) / |H|_F and a lower
bound on the condition number of every metric.  Otherwise the decision is
the conjugate-pairing test on the Jordan data; the certificate carries
synthesized witnesses (an antilinear Hermitian tau with H^+ = tau H
inv(tau), a commuting antilinear involution X, a Hermitian metric eta)
together with their residuals.
"""
import numpy as np

from pseudospec import decide

candidates = {
    "Hermitian diag(1, 2)": np.diag([1.0, 2.0]),
    "real but non-normal": np.array([[1.0, 5.0], [0.0, -1.0]]),
    "paired complex spectrum": np.diag([1.0 + 2.0j, 1.0 - 2.0j, 0.5]),
    "orphan complex eigenvalue": np.diag([1.0 + 1.0j, 2.0, 3.0]),
}

for name, H in candidates.items():
    cert = decide(np.asarray(H, dtype=complex))
    print(f"== {name}")
    print(f"   verdict: {cert.verdict}")
    if cert.table is not None:
        table = ", ".join(
            f"E={c.value:.3g} p={list(c.p_list)}" for c in cert.table.clusters
        )
        print(f"   spectral table: {table}")
    if cert.witnesses is not None:
        worst = max(cert.residuals.values())
        print(f"   worst witness residual: {worst:.2e}")
        print(f"   tau matrix part:\n{np.round(cert.witnesses.tau.matrix, 6)}")
    if "refusal_sigma_min" in cert.residuals:
        print(f"   refusal margin: {cert.residuals['refusal_sigma_min']:.3f} |H|_F, "
              f"every metric has cond >= {cert.residuals['metric_cond_bound']:.1e}")
    if cert.diagnostics:
        print(f"   diagnostics: {cert.diagnostics}")
    print()

# rounding splits the double eigenvalue of a defective matrix by about
# sqrt(eps); their perturbation discs overlap and one pseudospectral
# component holds both, so the default profile still sees one cluster
defective = np.array([[1.0, 1.0], [-1.0, -1.0]])  # nilpotent, eigenvalue 0 twice
cert = decide(defective)
print("== exactly defective input (nilpotent)")
print(f"   verdict: {cert.verdict}")
c = cert.table.clusters[0]
print(f"   single cluster at E = {c.value:.1e} with chain lengths {list(c.p_list)}")
