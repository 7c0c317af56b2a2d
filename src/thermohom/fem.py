"""First-order conforming finite elements on simplicial meshes.

Scalar fields carry one degree of freedom per vertex; vector fields use the
interleaved ordering ``dof = vertex * dim + component``.  Every element matrix
and load is written once, in the form table :data:`FORMS`: one einsum of its
coefficients against the space's gradients, shape values, quadrature weights
and element volumes, over all elements at once and for any number of leading
batch axes (sample keys, load indices).  Every sparse matrix is summed from
element blocks through one :class:`ElementScatter`, built once per dof
layout, restriction and format from the element dofs: the operators are CSR,
through the scatter each :class:`P1Space` keeps per layout
(:meth:`P1Space.pattern`), and the restricted, key-batched systems of the
cell correctors and micro blocks are CSC, the format SuperLU factors.  Every
later assembly is one ``np.bincount`` of the element blocks into the fixed
data array, with no COO conversion, sort or duplicate sum.  Loads are summed
into their dofs by one ``np.bincount`` as well (:func:`scatter_load`).  Both
sum in a fixed element order, so results do not depend on any worker count.

Coefficient fields passed to the assemblers may be constants (scalar, matrix,
or rank-4 tensor), per-quadrature-point arrays of shape ``(n_elements, n_qp,
...)``, or callables mapping an ``(m, d)`` array of points to values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals if residuals is not None else []


class ConstraintError(ValueError):
    pass


@functools.lru_cache(maxsize=256)
def _einsum_path(subscripts, shapes):
    # the planner reads only shapes, so zero-stride stand-ins suffice
    stand_ins = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *stand_ins, optimize=True)[0]


def key_einsum(subscripts, *operands):
    """``np.einsum(..., optimize=True)`` on a contraction path planned once
    per (subscripts, operand shapes), with the key axis ``k``, where the
    subscripts have one, planned at size one.  Without a key axis the result
    is bitwise that of ``optimize=True``; with one, every batch takes the
    contraction sequence of its batch of one.  Each key's result is then
    bitwise that of its batch of one wherever numpy's kernels sum in an
    order independent of the batch size, which the tests check for every
    keyed contraction of the forms.  The subscripts are explicit (no
    ellipsis)."""
    specs = subscripts.split("->")[0].split(",")
    shapes = tuple(tuple(1 if label == "k" else n for label, n in zip(spec, np.shape(op)))
                   for spec, op in zip(specs, operands))
    return np.einsum(subscripts, *operands, optimize=_einsum_path(subscripts, shapes))


# ---------------------------------------------------------------------------
# quadrature (order 2, exact for quadratic integrands on affine simplices)

_TRI_BARY = np.array([
    [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
])
_TRI_W = np.full(3, 1.0 / 3.0)

_a, _b = 0.5854101966249685, 0.1381966011250105
_TET_BARY = np.array([
    [_a, _b, _b, _b],
    [_b, _a, _b, _b],
    [_b, _b, _a, _b],
    [_b, _b, _b, _a],
])
_TET_W = np.full(4, 0.25)


def simplex_rule(dim):
    if dim == 2:
        return _TRI_BARY, _TRI_W
    if dim == 3:
        return _TET_BARY, _TET_W
    raise ValueError("dimension must be 2 or 3")


# ---------------------------------------------------------------------------
# element-block scatters


@dataclass(frozen=True)
class ElementScatter:
    """Element blocks of many keys summed straight into the data arrays of
    one fixed compressed sparse structure, rows compressed (CSR) or, with
    ``csc``, columns.

    Entry i of the element blocks, raveled (e, rows, cols), lands in data
    slot ``slot[i]``; a slot equal to the number of stored entries drops
    it.  ``fixed`` holds the data of entries that do not depend on the key.
    Built once per dof layout and restriction (:meth:`of`), it replaces COO
    conversion, duplicate sums, row and column slicing and ``R^T A R``
    products by one ``np.bincount`` per batch of keys; every matrix built
    from it shares its ``indptr`` and ``indices``.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    fixed: np.ndarray | None
    csc: bool

    @staticmethod
    def of(row_dofs, col_dofs, shape, row_map=None, col_map=None, fixed=None, csc=False):
        """The scatter onto ``shape`` of the blocks of the element dofs
        ``row_dofs`` x ``col_dofs`` (e, rows) and (e, cols): dof r goes to
        row ``row_map[r]`` and dof c to column ``col_map[c]`` (to itself
        without a map) and is dropped where that is negative; entries meeting
        in one position sum.  ``fixed`` = (rows, cols, values) adds
        key-independent entries.

        Each entry's position is one int64 key, major * n_minor + minor,
        formed once from the mapped (e, rows) and (e, cols) dofs; a dropped
        entry takes the key one past the last position, so it sorts last.
        One argsort of the keys then gives the structure and every slot."""
        n_rows, n_cols = shape
        r = np.asarray(row_dofs if row_map is None else row_map[row_dofs],
                       dtype=np.int64)[:, :, None]
        c = np.asarray(col_dofs if col_map is None else col_map[col_dofs],
                       dtype=np.int64)[:, None, :]
        n_major, n_minor = (n_cols, n_rows) if csc else (n_rows, n_cols)
        end = n_major * n_minor
        key = c * n_rows + r if csc else r * n_cols + c      # (e, rows, cols)
        if row_map is not None or col_map is not None:
            key[(r < 0) | (c < 0)] = end
        key = key.ravel()
        n_blocks = len(key)
        if fixed is not None:
            fr, fc = (np.asarray(a, dtype=np.int64) for a in fixed[:2])
            key = np.concatenate([key, fc * n_rows + fr if csc else fr * n_cols + fc])
        order = np.argsort(key)
        key = key[order]                   # sorted; the unsorted keys are freed
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        unique = key[first]
        del key
        if len(unique) and unique[-1] == end:
            unique = unique[:-1]
        n = len(unique)
        index = np.int32 if max(n, *shape) < 2**31 else np.int64
        indptr = np.zeros(n_major + 1, dtype=index)
        np.cumsum(np.bincount(unique // n_minor, minlength=n_major), out=indptr[1:])
        indices = (unique % n_minor).astype(index)
        for a in (indptr, indices):
            a.flags.writeable = False      # shared by every matrix built here
        # the rank of each entry's key among the distinct keys; dropped entries
        # rank n, past the stored ones
        slot = np.empty(len(order), dtype=index)
        slot[order] = np.cumsum(first, dtype=index) - 1
        if fixed is not None:
            fixed = np.bincount(slot[n_blocks:], weights=np.asarray(fixed[2], dtype=float),
                                minlength=n)
        return ElementScatter(shape=tuple(shape), indptr=indptr, indices=indices,
                              slot=slot[:n_blocks], fixed=fixed, csc=csc)

    def data(self, blocks):
        """The data arrays (k x nnz) of k keys' element blocks, given in any
        shape (k, ...) that ravels each key's blocks in element entry order."""
        blocks = np.asarray(blocks, dtype=float).reshape(len(blocks), -1)
        if not np.all(np.isfinite(blocks)):
            raise ValueError("assembly produced non-finite entries")
        k, n = len(blocks), len(self.indices)
        at = self.slot if k == 1 else (np.arange(k)[:, None] * (n + 1) + self.slot).ravel()
        data = np.bincount(at, weights=blocks.ravel(), minlength=k * (n + 1))
        data = data.reshape(k, n + 1)[:, :n]
        return data if self.fixed is None else data + self.fixed

    def matrix(self, data):
        """The matrix of one key's data array."""
        A = (sp.csc_matrix if self.csc else sp.csr_matrix)(
            (data, self.indices, self.indptr), shape=self.shape)
        A.has_canonical_format = True
        return A


# ---------------------------------------------------------------------------
# P1 spaces


class P1Space:
    """Precomputed P1 geometry for (a subset of) a simplicial mesh."""

    def __init__(self, mesh, element_mask=None):
        self.mesh = mesh
        self.dim = mesh.dim
        if element_mask is None:
            self.elements = np.arange(len(mesh.cells))
        else:
            self.elements = np.flatnonzero(element_mask)
        self.cells = mesh.cells[self.elements]
        self.n_vertices = len(mesh.vertices)

        v = mesh.vertices[self.cells]                      # (e, d+1, d)
        edges = np.transpose(v[:, 1:, :] - v[:, :1, :], (0, 2, 1))  # column edges
        det = np.linalg.det(edges)
        if np.any(det <= 0.0):
            raise ValueError("mesh contains non-positively oriented cells")
        self.volumes = det / math.factorial(self.dim)
        inv = np.linalg.inv(edges)                         # rows are grad lambda_i, i >= 1
        grads = np.empty((len(self.cells), self.dim + 1, self.dim))
        grads[:, 1:, :] = inv
        grads[:, 0, :] = -inv.sum(axis=1)
        self.gradients = grads

        bary, w = simplex_rule(self.dim)
        self.shape_values = bary                           # (nq, d+1)
        self.qweights = w
        self.qpoints = np.einsum("qi,eid->eqd", bary, v)   # (e, nq, d)
        self._patterns = {}

    # dof maps -------------------------------------------------------------

    def scalar_dofs(self):
        return self.cells

    def vector_dofs(self):
        d = self.dim
        return (self.cells[:, :, None] * d + np.arange(d)).reshape(len(self.cells), -1)

    @property
    def n_scalar(self):
        return self.n_vertices

    @property
    def n_vector(self):
        return self.n_vertices * self.dim

    def layout(self, name):
        """The (row dofs, column dofs, shape) of one dof layout on this space.

        Layouts take (e, rows, cols) local matrices: "scalar" and "vector"
        (square), "coupling" (vector rows, scalar columns), "dissipation"
        (scalar rows, vector columns) and "coupled", square on the stacked
        (scalar, then vector) dofs with each element's scalar dofs first.
        """
        S, V = self.scalar_dofs(), self.vector_dofs()
        ns, nv = self.n_scalar, self.n_vector
        SV = np.hstack([S, ns + V])
        return {
            "scalar": (S, S, (ns, ns)),
            "vector": (V, V, (nv, nv)),
            "coupling": (V, S, (nv, ns)),
            "dissipation": (S, V, (ns, nv)),
            "coupled": (SV, SV, (ns + nv, ns + nv)),
        }[name]

    def pattern(self, layout) -> ElementScatter:
        """The CSR scatter of one dof layout (:meth:`layout`), built on first
        use."""
        p = self._patterns.get(layout)
        if p is None:
            p = self._patterns[layout] = ElementScatter.of(*self.layout(layout))
        return p

    # coefficient evaluation -------------------------------------------------

    def eval_coefficient(self, coeff, value_shape):
        """Normalize a coefficient to an (e, nq) + value_shape array."""
        e, nq = len(self.cells), len(self.qweights)
        if callable(coeff):
            flat = self.qpoints.reshape(-1, self.dim)
            vals = np.asarray(coeff(flat), dtype=float)
            return vals.reshape((e, nq) + value_shape)
        vals = np.asarray(coeff, dtype=float)
        if vals.shape == (e, nq) + value_shape:
            return vals
        if vals.ndim == 0 and value_shape == ():
            return np.broadcast_to(vals, (e, nq)).copy()
        if vals.ndim == 0 and len(value_shape) == 2:
            vals = vals * np.eye(self.dim)
        if vals.shape == value_shape:
            return np.broadcast_to(vals, (e, nq) + value_shape).copy()
        raise ValueError(f"coefficient with shape {vals.shape} not understood")


# ---------------------------------------------------------------------------
# weak forms


# Every P1 element matrix (e, test dofs, trial dofs) and element load
# (e, test dofs), written once: (subscripts without batch axes, one letter
# per operand, layout).  Operands: c the coefficients, (e, nq) + values
# arrays in the order given; G gradients, N shape values, w quadrature
# weights, v element volumes.  Layout: the pattern of a form's blocks, or the
# dofs of a load.
FORMS = {
    "mass": ("eq,qi,qj,q,e->eij", "cNNwv", "scalar"),
    "scalar_diffusion": ("eia,eqab,ejb,q,e->eij", "GcGwv", "scalar"),
    "elasticity": ("eqacbd,eic,ejd,q,e->eiajb", "cGGwv", "vector"),
    # int phi_j w . grad phi_i
    "advection": ("eqa,eia,qj,q,e->eij", "cGNwv", "scalar"),
    # int phi_j alpha : grad(phi_i e_a), scalar trials to vector tests
    "coupling": ("eqac,eic,qj,q,e->eiaj", "cGNwv", "coupling"),
    # int (gamma : grad(phi_j e_a)) v . grad phi_i, coefficients v and gamma
    "advective_dissipation": ("eqc,eic,eqab,ejb,q,e->eija", "cGcGwv", "dissipation"),
    "scalar_load": ("eq,qi,q,e->ei", "cNwv", "scalar"),
    "vector_load": ("eqa,qi,q,e->eia", "cNwv", "vector"),
    "gradient_load": ("eqa,eia,q,e->ei", "cGwv", "scalar"),
    "strain_load": ("eqac,eic,q,e->eia", "cGwv", "vector"),
}


def weak_form(space: P1Space, name, *coefficients):
    """The element blocks (or element loads) of the form ``name`` of
    :data:`FORMS` on ``space``.  Leading axes of the coefficients beyond
    (e, nq) + values are batch axes, the same on every coefficient: a
    sample key, then possibly a load index.  They lead the result, and the
    contraction is planned for one key (:func:`key_einsum`)."""
    subscripts, names, _ = FORMS[name]
    specs, out = subscripts.split("->")
    specs = specs.split(",")
    batch = "klmn"[:np.ndim(coefficients[0]) - len(specs[names.index("c")])]
    known = dict(G=space.gradients, N=space.shape_values, w=space.qweights,
                 v=space.volumes)
    given = iter(coefficients)
    operands = [next(given) if o == "c" else known[o] for o in names]
    specs = [batch + s if o == "c" else s for s, o in zip(specs, names)]
    return key_einsum(",".join(specs) + "->" + batch + out, *operands)


def _integrate(space: P1Space, name, coeff):
    """:func:`weak_form` of a one-coefficient form, the coefficient in any
    form :meth:`P1Space.eval_coefficient` takes."""
    subscripts, names, _ = FORMS[name]
    rank = len(subscripts.split(",")[names.index("c")]) - 2
    return weak_form(space, name, space.eval_coefficient(coeff, (space.dim,) * rank))


def scatter_load(dofs, n, loads):
    """Element loads summed into load vectors of n dofs by one
    ``np.bincount``, each dof adding its entries in the order given:
    ``loads`` holds, for each of m batch entries, one entry per dof of
    ``dofs`` (the dofs of each element), in that order.  Returns (m, n)."""
    m = np.size(loads) // dofs.size
    at = (np.arange(m)[:, None] * n + dofs.ravel()).ravel()
    return np.bincount(at, weights=np.ravel(loads), minlength=m * n).reshape(m, n)


# ---------------------------------------------------------------------------
# operator and load assembly


def assemble_operator(mesh, kind, coeff, element_mask=None, space=None):
    """Galerkin matrix of one of the standard bilinear forms of :data:`FORMS`.

    kind: "scalar_diffusion" (matrix coefficient), "mass" (scalar),
    "elasticity" (rank-4), "advection" (vector flux w; assembles
    ``int phi_j w . grad phi_i``), or "coupling" (matrix alpha; assembles
    the thermal-stress map ``<G theta, v> = int theta alpha : grad v`` from
    scalar trials to vector tests).
    """
    s = space if space is not None else P1Space(mesh, element_mask)
    if kind not in FORMS or kind.endswith("_load") or FORMS[kind][1].count("c") != 1:
        raise ValueError(f"unknown operator kind: {kind}")
    p = s.pattern(FORMS[kind][2])
    return p.matrix(p.data(_integrate(s, kind, coeff)[None])[0])


def vector_mass(mesh, coeff, element_mask=None, space=None):
    """Block-diagonal mass matrix for vector fields (interleaved dofs)."""
    M = assemble_operator(mesh, "mass", coeff, element_mask, space)
    return sp.kron(M, sp.eye(mesh.dim, format="csr"), format="csr")


def _load(space: P1Space, name, coeff):
    dofs, n = ((space.scalar_dofs(), space.n_scalar) if FORMS[name][2] == "scalar"
               else (space.vector_dofs(), space.n_vector))
    return scatter_load(dofs, n, _integrate(space, name, coeff))[0]


def assemble_scalar_load(space: P1Space, f):
    """l_i = int f phi_i."""
    return _load(space, "scalar_load", f)


def assemble_vector_load(space: P1Space, f):
    """l_(i,a) = int f_a phi_i."""
    return _load(space, "vector_load", f)


def assemble_gradient_load(space: P1Space, w):
    """l_i = int w . grad phi_i for a vector-valued integrand w."""
    return _load(space, "gradient_load", w)


def assemble_strain_load(space: P1Space, S):
    """l_(i,a) = int S : grad(phi_i e_a) for a matrix-valued integrand S."""
    return _load(space, "strain_load", S)


def assemble_interface_load(mesh, density, values=None):
    """Facet-quadrature load from a density living on the interface.

    ``density`` is a callable (centroids, normals) -> values, or an array of
    per-facet values; scalar densities produce a scalar-dof load, vector
    densities a vector-dof load.  Midpoint/centroid rule on the facets.
    """
    if len(mesh.interface_facets) == 0:
        raise ValueError("mesh has no interface facets")
    centroids = mesh.facet_centroids()
    areas = mesh.facet_areas()
    if values is None:
        values = np.asarray(density(centroids, mesh.interface_normals), dtype=float)
    else:
        values = np.asarray(values, dtype=float)
    facets, nv = mesh.interface_facets, len(mesh.vertices)
    trace = 1.0 / facets.shape[1]  # P1 value at the facet centroid
    if values.ndim == 1:
        contrib = np.repeat((values * areas * trace)[:, None], facets.shape[1], axis=1)
        return scatter_load(facets, nv, contrib)[0]
    dofs = facets[:, :, None] * mesh.dim + np.arange(mesh.dim)
    contrib = (values * (areas * trace)[:, None])[:, None, :]  # (nf, 1, d)
    return scatter_load(dofs, nv * mesh.dim, np.broadcast_to(contrib, dofs.shape))[0]


# ---------------------------------------------------------------------------
# constraints


@dataclass
class ConstraintSet:
    """Dirichlet pins, periodic identifications, and optional zero-mean constraints."""

    dirichlet_dofs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    dirichlet_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    periodic: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=int))
    zero_mean_weights: list = field(default_factory=list)

    @staticmethod
    def dirichlet_only(dofs, values=0.0):
        dofs = np.asarray(dofs, dtype=int)
        values = np.broadcast_to(np.asarray(values, dtype=float), dofs.shape).copy()
        return ConstraintSet(dirichlet_dofs=dofs, dirichlet_values=values)


def _columns(v, like):
    """``v`` shaped to broadcast against ``like``, a vector or an (n x m) block."""
    return v if np.ndim(like) == 1 else v[:, None]


@dataclass
class ReducedSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray                  # one right-hand side, or an (n_red x m) block
    restriction: sp.csr_matrix       # full -> reduced basis (n_full x n_red)
    offset: np.ndarray               # pinned values lifted into the full vector
    constraints: list                # reduced zero-mean weight vectors

    def recover(self, x_reduced):
        return self.restriction @ x_reduced + _columns(self.offset, x_reduced)


@dataclass
class ConstraintBasis:
    """The constrained space of a :class:`ConstraintSet` on n dofs, reusable
    for every matrix on those dofs: full = restriction @ reduced + offset."""

    restriction: sp.csr_matrix
    offset: np.ndarray
    constraints: list                # reduced zero-mean weight vectors

    def reduce_matrix(self, A):
        """``R^T A R`` in CSR, by scipy's sparse products.  These drop the
        entries that sum to zero, which a selection of the entries by index
        would keep: the resolved elasticity matrix at eps 1/8 and t = 0.05
        stores 21 232 such zeros among its 323 716 entries, and its
        symmetric-mode factor with them fills 2.10 M entries instead of
        1.66 M."""
        R = self.restriction
        return (R.T @ A @ R).tocsr()

    def factor(self, A, where):
        """The full-space solve ``b -> R (R^T A R)^-1 R^T b`` (a vector or an
        (n x m) block), ``R^T A R`` factored once in symmetric mode
        (:class:`Factor`, ``spd``); only for homogeneous pins and no
        zero-mean constraints, which need no offset and no multipliers.

        Diagonal pivots keep the minimum-degree ordering: the resolved
        elasticity at eps 1/8 (22 850 reduced dofs) fills 1.94 M entries at
        t = 0 and 1.66 M at t = 0.05, against 2.31 M and 2.33 M under COLAMD
        with partial pivoting, and in 3D (eps 1/2, cell resolution 4) it
        factors about 4x faster."""
        R = self.restriction
        lu = Factor(self.reduce_matrix(A).tocsc(), where, spd=True)
        return lambda b: R @ lu.solve(R.T @ b)

    def augmented_scatter(self, dofs) -> ElementScatter:
        """The map from the element blocks on the element dofs ``dofs`` to
        the CSC data of the augmented reduced matrix ``[[R^T A R, M], [M^T,
        0]]``, M the reduced zero-mean weights as columns, which enter as
        explicit Lagrange multipliers.  R selects (one unit entry per
        unpinned row), so ``R^T A R`` sums the entries of A by the reduced
        index of their row and column."""
        n_red = self.restriction.shape[1]
        fixed = None
        if self.constraints:
            M = np.column_stack(self.constraints)
            i, j = np.nonzero(M)
            fixed = (np.concatenate([i, n_red + j]), np.concatenate([n_red + j, i]),
                     np.concatenate([M[i, j], M[i, j]]))
        n_aug = n_red + len(self.constraints)
        return ElementScatter.of(dofs, dofs, (n_aug, n_aug), self.reduced_index,
                                 self.reduced_index, fixed, csc=True)

    @functools.cached_property
    def reduced_index(self):
        """The reduced dof of each full dof, -1 where pinned; only for a
        selecting restriction (one unit entry per unpinned row)."""
        R = self.restriction.tocsr()
        if np.any(R.data != 1.0):
            raise ConstraintError("the restriction does not select dofs")
        reduced = np.full(R.shape[0], -1)
        reduced[np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))] = R.indices
        return reduced

    def reduce(self, A, b) -> ReducedSystem:
        """``R^T A R`` and the reduced right-hand side (a vector or a block)."""
        R = self.restriction
        b_r = R.T @ (b - _columns(A @ self.offset, b))
        return ReducedSystem(matrix=self.reduce_matrix(A), rhs=b_r, restriction=R,
                             offset=self.offset, constraints=self.constraints)


def constraint_basis(n, cs: ConstraintSet) -> ConstraintBasis:
    pinned = np.zeros(n, dtype=bool)
    pinned[cs.dirichlet_dofs] = True

    # resolve periodic chains to final leaders
    leader = np.arange(n)
    for f, l in cs.periodic:
        leader[f] = l
    for f, _ in cs.periodic:
        seen = {f}
        while leader[leader[f]] != leader[f]:
            leader[f] = leader[leader[f]]
            if leader[f] in seen:
                raise ConstraintError("cyclic periodic identification")
            seen.add(leader[f])
    followers = leader != np.arange(n)
    if np.any(pinned & followers):
        raise ConstraintError("pinned dof is also periodically identified")
    if np.any(pinned[leader[followers]]):
        raise ConstraintError("follower identified with a pinned dof")

    free = ~(pinned | followers)
    red_index = -np.ones(n, dtype=int)
    red_index[free] = np.arange(free.sum())

    rows = np.flatnonzero(~pinned)
    cols = red_index[leader[rows]]
    if np.any(cols < 0):
        raise ConstraintError("follower chain ends in a pinned dof")
    R = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, free.sum())).tocsr()

    x0 = np.zeros(n)
    x0[cs.dirichlet_dofs] = cs.dirichlet_values
    reduced_constraints = [R.T @ np.asarray(m, dtype=float) for m in cs.zero_mean_weights]
    return ConstraintBasis(restriction=R, offset=x0, constraints=reduced_constraints)


def apply_constraints(A, b, cs: ConstraintSet) -> ReducedSystem:
    return constraint_basis(A.shape[0], cs).reduce(A, b)


# ---------------------------------------------------------------------------
# solvers


@dataclass
class SolveInfo:
    iterations: int
    residuals: list
    converged: bool


def _projector(constraints, n):
    if not constraints:
        return lambda v: v
    M = np.column_stack(constraints)
    Q, _ = np.linalg.qr(M)
    return lambda v: v - Q @ (Q.T @ v)


def solve_spd(A, b, tol=1e-10, max_iter=None, constraints=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Optional linear constraints m^T x = 0 (zero-mean spaces) are enforced by
    projection each iteration, which reproduces the solution with explicit
    Lagrange multipliers without losing positive definiteness.  Raises
    SolverError with the residual history on breakdown, detected
    indefiniteness, or too many iterations.
    """
    n = A.shape[0]
    if n == 0:
        return np.zeros(0), SolveInfo(0, [], True)
    if max_iter is None:
        max_iter = max(1000, 10 * n)
    P = _projector(constraints or [], n)
    diag = A.diagonal()
    inv_diag = np.where(diag > 0.0, 1.0 / np.maximum(diag, 1e-300), 1.0)

    b_p = P(np.asarray(b, dtype=float))
    scale = np.linalg.norm(b_p)
    if scale == 0.0:
        return np.zeros(n), SolveInfo(0, [0.0], True)

    x = np.zeros(n)
    r = b_p.copy()
    z = P(inv_diag * r)
    p = z.copy()
    rz = r @ z
    residuals = [np.linalg.norm(r) / scale]
    if residuals[-1] <= tol:
        return x, SolveInfo(0, residuals, True)

    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            if np.linalg.norm(p) * np.linalg.norm(r) < 1e-28 * scale:
                break
            raise SolverError(
                f"negative curvature encountered (p^T A p = {pAp:.3e}); "
                "matrix is not positive definite on the constrained space",
                residuals,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        r = P(r)
        res = np.linalg.norm(r) / scale
        residuals.append(res)
        if res <= tol:
            return x, SolveInfo(it, residuals, True)
        z = P(inv_diag * r)
        rz_new = r @ z
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    raise SolverError(
        f"conjugate gradients did not reach {tol:g} within {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})",
        residuals,
    )


# the largest relative residual a direct solve may leave; measured maxima (shipped
# configs, graded and 3D): micro block 1.6e-15, macro step 2.3e-15, two-scale
# elasticity 1.7e-15, resolved elasticity 2.4e-14 and heat 1.8e-14 (eps 1/8)
RESIDUAL_MAX = 1e-10


def check_residuals(A, Z, B, where, bound=RESIDUAL_MAX, bound_name="RESIDUAL_MAX"):
    """The relative residual |A z - b| / |b| (a zero b divides by 1) of each
    column of the solution Z of A Z = B, a vector or an (n x m) block.  The
    first above ``bound`` raises :class:`SolverError` naming ``where`` (one
    string, or one per column) with every column's residual."""
    scale = np.linalg.norm(B, axis=0)
    res = np.atleast_1d(np.linalg.norm(A @ Z - B, axis=0) / np.where(scale > 0.0, scale, 1.0))
    bad = np.flatnonzero(~(res <= bound))      # NaN too
    if len(bad):
        j = bad[0]
        raise SolverError(f"{where if isinstance(where, str) else where[j]}: relative "
                          f"residual {res[j]:.3e} exceeds {bound_name} {bound:g}",
                          res.tolist())
    return res


class Factor:
    """The sparse LU of a CSC matrix A, ordered by minimum degree on A^T + A
    and partially pivoted; with ``spd`` (A symmetric positive definite) in
    SuperLU's symmetric mode with diagonal pivots only (Li, ACM TOMS 31(3),
    2005), which keeps the symmetric ordering that pivoting would undo.

    Nothing falls back or retries.  A singular factor, an off-diagonal pivot
    in symmetric mode and a solve leaving a relative residual above
    :data:`RESIDUAL_MAX` raise :class:`SolverError` naming ``where``: the
    solver, t and, where there is one, x."""

    def __init__(self, A, where, spd=False):
        self.A, self.where = A, where
        mode = "zero pivot in the symmetric-mode factor" if spd else "singular factor"
        symmetric = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        try:
            self.lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", **(symmetric if spd else {}))
        except RuntimeError as exc:           # "Factor is exactly singular", ...
            raise SolverError(f"{where}: {mode} ({str(exc).strip()})") from exc
        if spd and not np.array_equal(self.lu.perm_r, self.lu.perm_c):
            raise SolverError(f"{where}: {mode} (an off-diagonal pivot was taken)")

    def solve(self, B):
        """A^-1 B for a vector or an (n x m) block, each column's relative
        residual checked (:func:`check_residuals`)."""
        Z = self.lu.solve(B)
        check_residuals(self.A, Z, B, self.where)
        return Z
