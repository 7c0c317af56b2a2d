"""Reference solvers, diagnostics and exporters that only the tests use."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from thermohom.fem import P1Space, augmented_matrix
from thermohom.mesh import Mesh


def solve_direct(A, b, constraints=None):
    """Sparse direct solve; zero-mean constraints via explicit multipliers."""
    K = augmented_matrix(A, constraints)
    rhs = np.concatenate([np.asarray(b, dtype=float), np.zeros(K.shape[0] - A.shape[0])])
    return spla.spsolve(K, rhs)[: A.shape[0]]


def dense_oracle_solve(A, b, constraints=None):
    """Dense factorization path for small verification problems."""
    A = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    if A.shape[0] > 500:
        raise ValueError("dense oracle reserved for problems below 500 dofs")
    if constraints:
        M = np.column_stack(constraints)
        k = M.shape[1]
        K = np.block([[A, M], [M.T, np.zeros((k, k))]])
        rhs = np.concatenate([b, np.zeros(k)])
        return np.linalg.solve(K, rhs)[: A.shape[0]]
    return np.linalg.solve(A, b)


def symmetry_defect(A):
    """max |A - A^T| relative to max |A|."""
    d = abs(A - A.T)
    denom = abs(A).max() if A.nnz else 1.0
    return (d.max() / denom) if d.nnz else 0.0


def export_coordinate_text(path, A):
    A = A.tocoo()
    with open(path, "w") as f:
        f.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for i, j, v in zip(A.row, A.col, A.data):
            f.write(f"{i} {j} {format(v, '.17g')}\n")


def mean_over_matrix(space: P1Space, nodal_field):
    """Volume average of a P1 scalar field (exact integration)."""
    vals = np.einsum("qi,ei->eq", space.shape_values, nodal_field[space.cells])
    total = np.einsum("eq,q,e->", vals, space.qweights, space.volumes)
    return total / space.volumes.sum()


def interface_trace_norm(mesh, field):
    """L2 norm of a P1 scalar field over the interface (centroid rule)."""
    vals = field[mesh.interface_facets].mean(axis=1)
    return math.sqrt(float(np.sum(mesh.facet_areas() * vals**2)))


def inclusion_components(mesh: Mesh):
    """Number of connected components of the inclusion cell-adjacency graph."""
    b_cells = np.flatnonzero(mesh.phase == 1)
    local = {c: i for i, c in enumerate(b_cells)}
    faces = {}
    rows, cols = [], []
    for ci in b_cells:
        c = mesh.cells[ci]
        for drop in range(mesh.dim + 1):
            f = tuple(sorted(np.delete(c, drop)))
            other = faces.get(f)
            if other is None:
                faces[f] = ci
            else:
                rows.append(local[ci])
                cols.append(local[other])
    nb = len(b_cells)
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(nb, nb))
    ncomp, _ = connected_components(adj, directed=False)
    return ncomp
