#!/usr/bin/env python3
"""Walk through the Jordan-structure machinery on a defective matrix.

We build an operator with a known chain structure, hide it behind a random
change of basis, and let the library recover eigenvalue clusters, chain
lengths, the canonical basis A with H = A H0 inv(A), and the biorthonormal
dual basis.
"""
import numpy as np

from pseudospec import biorthonormal_complement, block_diagonalize

rng = np.random.default_rng(1)

# ground truth: eigenvalue 2 with chains of lengths 2 and 1, eigenvalue -1 simple
J = np.array([
    [2.0, 1.0, 0.0, 0.0],
    [0.0, 2.0, 0.0, 0.0],
    [0.0, 0.0, 2.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
], dtype=complex)
Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
H = Q @ J @ Q.conj().T

bd = block_diagonalize(H)

print("eigenvalue clusters (canonical order):")
for cluster in bd.table.clusters:
    print(f"  E = {cluster.value:.6f}   geometric mult d = {cluster.d}   "
          f"chain lengths p = {list(cluster.p_list)}")

print("\nblock-Jordan form H0:")
print(np.real_if_close(np.round(bd.H0, 10)))

rec = np.linalg.norm(H - bd.A @ bd.H0 @ np.linalg.inv(bd.A)) / np.linalg.norm(H)
print(f"\nreconstruction residual |H - A H0 inv(A)| / |H| = {rec:.2e}")
print(f"basis condition number cond(A) = {bd.cond_A:.2f}")

phi = biorthonormal_complement(bd)
bio = np.linalg.norm(phi.conj().T @ bd.A - np.eye(4))
com = np.linalg.norm(bd.A @ phi.conj().T - np.eye(4))
print(f"biorthonormality |phi^+ psi - I| = {bio:.2e}, completeness = {com:.2e}")

print("\nchain relations, straight from the assembled columns:")
for col, (n, a, i) in enumerate(bd.table.labels()):
    E = bd.table.clusters[n].value
    v = bd.A[:, col]
    if i == 1:
        res = np.linalg.norm(H @ v - E * v)
        print(f"  ({n},{a},{i}): eigenvector residual {res:.2e}")
    else:
        res = np.linalg.norm(H @ v - E * v - bd.A[:, col - 1])
        print(f"  ({n},{a},{i}): chain link residual  {res:.2e}")
