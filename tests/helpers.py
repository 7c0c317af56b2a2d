"""Reference solvers, diagnostics and exporters that only the tests use."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from thermohom.fem import ElementScatter, Factor, P1Space, check_residuals
from thermohom.mesh import Mesh


def augmented_matrix(A, constraints):
    """``[[A, M], [M^T, 0]]`` in CSC, M the zero-mean weight vectors as columns."""
    if not constraints:
        return A.tocsc()
    A = A.tocoo()
    M = np.column_stack(constraints)
    n, k = M.shape
    i, j = np.nonzero(M)
    return sp.csc_matrix((np.concatenate([A.data, M[i, j], M[i, j]]),
                          (np.concatenate([A.row, i, n + j]),
                           np.concatenate([A.col, n + j, i]))), shape=(n + k, n + k))


def augmented(red):
    """A ``ReducedSystem`` with explicit Lagrange multipliers for its
    zero-mean constraints (:func:`augmented_matrix`) and the zero-padded rhs."""
    K = augmented_matrix(red.matrix, red.constraints)
    k = K.shape[0] - red.matrix.shape[0]
    return K, np.concatenate([red.rhs, np.zeros((k,) + red.rhs.shape[1:])])


def solve_block(red):
    """Every column of ``red.rhs`` from one pivoted sparse LU of the
    augmented system (:func:`augmented`).  Returns the full-space solutions
    (n_full x m) and the relative residual of each column in that system,
    left to the caller to bound."""
    K, rhs = augmented(red)
    Z = Factor(K, "solve_block").lu.solve(rhs)
    residuals = check_residuals(K, Z, rhs, "solve_block", bound=np.inf)
    return red.recover(Z[: red.matrix.shape[0]]), residuals


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


def coo_assemble_operator(space: P1Space, kind, coeff):
    """``assemble_operator`` with a fresh COO matrix per call, converted to
    CSR: the oracle of the scatter through the space's cached pattern."""
    G, N, w, vol = space.gradients, space.shape_values, space.qweights, space.volumes
    d = space.dim
    S, V = space.scalar_dofs(), space.vector_dofs()
    if kind == "scalar_diffusion":
        loc = np.einsum("eia,eqab,ejb,q,e->eij", G, space.eval_coefficient(coeff, (d, d)),
                        G, w, vol, optimize=True)
        rows, cols, shape = S, S, (space.n_scalar, space.n_scalar)
    elif kind == "mass":
        loc = np.einsum("eq,qi,qj,q,e->eij", space.eval_coefficient(coeff, ()),
                        N, N, w, vol, optimize=True)
        rows, cols, shape = S, S, (space.n_scalar, space.n_scalar)
    elif kind == "elasticity":
        loc = np.einsum("eqacbd,eic,ejd,q,e->eiajb",
                        space.eval_coefficient(coeff, (d, d, d, d)), G, G, w, vol,
                        optimize=True)
        rows, cols, shape = V, V, (space.n_vector, space.n_vector)
    elif kind == "advection":
        loc = np.einsum("eqa,eia,qj,q,e->eij", space.eval_coefficient(coeff, (d,)),
                        G, N, w, vol, optimize=True)
        rows, cols, shape = S, S, (space.n_scalar, space.n_scalar)
    elif kind == "coupling":
        loc = np.einsum("eqac,eic,qj,q,e->eiaj", space.eval_coefficient(coeff, (d, d)),
                        G, N, w, vol, optimize=True)
        rows, cols, shape = V, S, (space.n_vector, space.n_scalar)
    else:
        raise ValueError(f"unknown operator kind: {kind}")
    if not np.all(np.isfinite(loc)):
        raise ValueError("assembly produced non-finite entries")
    r = np.repeat(rows, cols.shape[1], axis=1).ravel()
    c = np.tile(cols, (1, rows.shape[1])).ravel()
    return sp.coo_matrix((loc.ravel(), (r, c)), shape=shape).tocsr()


def element_scatter_oracle(row_dofs, col_dofs, shape, row_map=None, col_map=None,
                           fixed=None, csc=False):
    """``ElementScatter.of`` through repeated int64 rows and columns and one
    ``np.unique``: the oracle of its single-key build."""
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1).astype(np.int64).ravel()
    cols = np.tile(col_dofs, (1, row_dofs.shape[1])).astype(np.int64).ravel()
    rows = rows if row_map is None else row_map[rows]
    cols = cols if col_map is None else col_map[cols]
    keep = (rows >= 0) & (cols >= 0)
    n_kept = int(keep.sum())
    fr, fc, fv = fixed if fixed is not None else ((), (), ())
    rows = np.concatenate([rows[keep], np.asarray(fr, dtype=np.int64)])
    cols = np.concatenate([cols[keep], np.asarray(fc, dtype=np.int64)])
    major, minor, (n_major, n_minor) = ((cols, rows, shape[::-1]) if csc
                                        else (rows, cols, shape))
    unique, at = np.unique(major * n_minor + minor, return_inverse=True)
    n = len(unique)
    index = np.int32 if max(n, *shape) < 2**31 else np.int64
    indptr = np.zeros(n_major + 1, dtype=index)
    np.cumsum(np.bincount(unique // n_minor, minlength=n_major), out=indptr[1:])
    indices = (unique % n_minor).astype(index)
    slot = np.full(len(keep), n)
    slot[keep] = at[:n_kept]
    if fixed is not None:
        fixed = np.bincount(at[n_kept:], weights=np.asarray(fv, dtype=float), minlength=n)
    return ElementScatter(shape=tuple(shape), indptr=indptr, indices=indices, slot=slot,
                          fixed=fixed, csc=csc)
