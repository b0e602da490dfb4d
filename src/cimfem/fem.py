"""P1 Galerkin finite elements on (0, 1) and the unit square.

Meshes are uniform: ``M`` equal intervals in 1-D, and in 2-D an ``M x M``
grid of squares each split by the diagonal from its lower-left to its
upper-right corner (``2 M**2`` triangles, ``(M - 1)**2`` interior
nodes).  Homogeneous Dirichlet conditions are imposed by working with
interior degrees of freedom only.

Initial data and spatial source factors are either plain callables or
piecewise-polynomial descriptions; the latter let load vectors resolve
jump discontinuities exactly (interval splitting in 1-D, polygon
clipping in 2-D) instead of smearing them across elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp


class FEMError(ValueError):
    """Raised for invalid meshes or data descriptions."""


# ---------------------------------------------------------------------------
# piecewise-polynomial data descriptions


@dataclass(frozen=True)
class Piece1D:
    """Polynomial ``sum coeffs[k] * x**k`` supported on the half-open (a, b]."""

    a: float
    b: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise FEMError(f"empty piece ({self.a}, {self.b}]")
        # a tuple keeps the datum hashable: it keys a cached load vector
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


@dataclass(frozen=True)
class InitialData1D:
    """Piecewise polynomial on (0, 1); zero outside the listed pieces, which must not overlap."""

    pieces: tuple[Piece1D, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))  # hashable, as Piece1D.coeffs
        # the 2-D load vector sums overlapping pieces, every other reader takes the later one
        for p, q in itertools.combinations(self.pieces, 2):
            if p.a < q.b and q.a < p.b:
                raise FEMError(f"pieces ({p.a}, {p.b}] and ({q.a}, {q.b}] overlap")

    @staticmethod
    def zero() -> "InitialData1D":
        return InitialData1D()

    @staticmethod
    def indicator(a: float, b: float, scale: float = 1.0) -> "InitialData1D":
        return InitialData1D((Piece1D(a, b, (scale,)),))

    @staticmethod
    def polynomial(coeffs: Sequence[float], a: float = 0.0, b: float = 1.0) -> "InitialData1D":
        return InitialData1D((Piece1D(a, b, tuple(coeffs)),))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = sorted({p.a for p in self.pieces} | {p.b for p in self.pieces})
        return tuple(pts)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for p in self.pieces:
            mask = (x > p.a) & (x <= p.b)
            out[mask] = np.polynomial.polynomial.polyval(x[mask], p.coeffs)
        return out

    def integral(self) -> float:
        """Exact integral over (0, 1)."""
        total = 0.0
        for p in self.pieces:
            anti = np.polynomial.polynomial.polyint(p.coeffs)
            total += np.polynomial.polynomial.polyval(p.b, anti) - np.polynomial.polynomial.polyval(p.a, anti)
        return float(total)


@dataclass(frozen=True)
class InitialData2D:
    """Separable datum ``scale * fx(x) * fy(y)`` on the unit square."""

    fx: InitialData1D
    fy: InitialData1D
    scale: float = 1.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.scale * self.fx(np.asarray(x, dtype=float)) * self.fy(np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# meshes


@dataclass(frozen=True)
class Mesh1D:
    M: int

    def __post_init__(self) -> None:
        if self.M < 2:
            raise FEMError(f"need M >= 2, got M = {self.M}")

    @property
    def h(self) -> float:
        return 1.0 / self.M

    @property
    def ndof(self) -> int:
        return self.M - 1

    @property
    def nodes(self) -> np.ndarray:
        """Interior nodes x_1 .. x_{M-1}."""
        return np.arange(1, self.M) * self.h


@dataclass(frozen=True)
class Mesh2D:
    M: int

    def __post_init__(self) -> None:
        if self.M < 2:
            raise FEMError(f"need M >= 2, got M = {self.M}")

    @property
    def h(self) -> float:
        return 1.0 / self.M

    @property
    def ndof(self) -> int:
        return (self.M - 1) ** 2

    @property
    def n_triangles(self) -> int:
        return 2 * self.M**2

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates, shape (ndof, 2), x fastest."""
        g = np.arange(1, self.M) * self.h
        X, Y = np.meshgrid(g, g, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    def _triangle_grid(self) -> np.ndarray:
        """Grid indices (i, j) of each triangle vertex, shape (n_triangles, 3, 2).

        Cells are taken row by row (x fastest); each square cell is split
        along its lower-left to upper-right diagonal into the triangles
        (00, 10, 11) and (00, 11, 01).
        """
        i, j = np.meshgrid(np.arange(self.M), np.arange(self.M), indexing="xy")
        corners = np.column_stack([i.ravel(), j.ravel()])
        offsets = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
        return (corners[:, None, None] + offsets).reshape(self.n_triangles, 3, 2)

    def triangles(self) -> np.ndarray:
        """Vertex coordinates of all triangles, shape (n_triangles, 3, 2)."""
        return self._triangle_grid() * self.h


@dataclass(frozen=True)
class AssembledOperators:
    """Interior mass and stiffness matrices of a 2-D mesh.

    Both are CSC matrices on one shared sparsity pattern, so a shifted
    matrix ``eta M + S`` is formed from their ``data`` arrays.  Solvers
    apply the operators from ``stencil_1d`` and ``stencil_2d``; only the
    sparse direct fallback needs them assembled.
    """

    mass: sp.spmatrix
    stiffness: sp.spmatrix


def stencil_1d(mesh: Mesh1D) -> tuple[tuple[float, float], tuple[float, float]]:
    """(diagonal, off-diagonal) of the mass and of the stiffness matrix.

    On the uniform mesh both matrices are symmetric tridiagonal Toeplitz.
    This and ``stencil_2d`` are the only statement of the operators: the
    solvers derive their modes and fallbacks from these weights.
    """
    h = mesh.h
    return (4.0 * h / 6.0, h / 6.0), (2.0 / h, -1.0 / h)


def stencil_2d(mesh: Mesh2D) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """(centre, E/W/N/S, NE/SW) weights of the mass and of the stiffness stencil.

    The stiffness matrix is the 5-point Laplacian.  Every node has six
    triangles of area h^2/2 around it, and each of its six edges (E, W,
    N, S, NE, SW) is shared by two, so the mass stencil is ``h^2/12``
    times 6 at the centre and 1 at each of those six neighbours.  On the
    ``[j, i]`` grid (x index ``i`` fastest) NE of ``[j, i]`` is
    ``[j + 1, i + 1]``.
    """
    a = mesh.h * mesh.h / 12.0
    return (6.0 * a, a, a), (4.0, -1.0, 0.0)


def apply_stencil_1d(x: np.ndarray, diag, off) -> np.ndarray:
    """``diag x_i + off (x_{i-1} + x_{i+1})`` along the last axis of ``x``, zero beyond its ends.

    The weights broadcast against the leading axes of ``x``.
    """
    nb = np.zeros_like(x)
    nb[..., 1:] = x[..., :-1]
    nb[..., :-1] += x[..., 1:]
    return diag * x + off * nb


def apply_stencil_2d(x: np.ndarray, centre, axial, diagonal) -> np.ndarray:
    """A 7-point stencil of ``stencil_2d``'s shape on each trailing ``[j, i]`` grid slice of ``x``.

    Returns ``centre x + axial (E + W + N + S) + diagonal (NE + SW)``
    with zero values outside the grid; the weights broadcast against the
    leading axes of ``x``.
    """
    ax = np.zeros_like(x)
    ax[..., 1:, :] = x[..., :-1, :]
    ax[..., :-1, :] += x[..., 1:, :]
    ax[..., :, 1:] += x[..., :, :-1]
    ax[..., :, :-1] += x[..., :, 1:]
    dg = np.zeros_like(x)
    dg[..., 1:, 1:] = x[..., :-1, :-1]
    dg[..., :-1, :-1] += x[..., 1:, 1:]
    out = centre * x
    out += axial * ax
    out += diagonal * dg
    return out


def assemble(mesh: Mesh2D) -> AssembledOperators:
    """The stencils of ``stencil_2d`` as CSC matrices on one shared pattern, x index fastest.

    With ``E`` the superdiagonal shift, the E/W/N/S couplings are
    ``kron(I, E + E^T) + kron(E + E^T, I)`` and the NE/SW couplings
    ``kron(E, E) + kron(E^T, E^T)``.
    """
    n = mesh.M - 1
    eye = sp.identity(n, format="csr")
    shift = sp.diags(np.ones(n - 1), 1, shape=(n, n), format="csr")
    axial = sp.kron(eye, shift + shift.T) + sp.kron(shift + shift.T, eye)
    diagonal = sp.kron(shift, shift) + sp.kron(shift.T, shift.T)
    # every mass weight is positive, so no entry of S + iM cancels: its
    # pattern is the whole stencil's, and S keeps explicit zeros at the
    # NE/SW couplings
    (m_c, m_a, m_d), (s_c, s_a, s_d) = stencil_2d(mesh)
    both = ((s_c + 1j * m_c) * sp.identity(n * n) + (s_a + 1j * m_a) * axial + (s_d + 1j * m_d) * diagonal).tocsc()
    pattern = (both.indices, both.indptr)
    return AssembledOperators(
        mass=sp.csc_matrix((both.data.imag.copy(), *pattern), shape=both.shape),
        stiffness=sp.csc_matrix((both.data.real.copy(), *pattern), shape=both.shape),
    )


# ---------------------------------------------------------------------------
# load vectors

# 3-point Gauss-Legendre on [-1, 1]
_G3_X = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_G3_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

# 5-point Gauss-Legendre on [-1, 1]
_G5_X, _G5_W = np.polynomial.legendre.leggauss(5)


def load_vector(mesh: Mesh1D | Mesh2D, g: InitialData1D | InitialData2D | Callable) -> np.ndarray:
    """Galerkin load ``b_i = integral of g * phi_i`` over the interior hat functions.

    Piecewise data is integrated exactly up to the quadrature degree by
    splitting each element at the data's jump locations; plain callables
    are integrated by the same rules without splitting.  ``_load_1d`` and
    ``_load_2d`` give the loads of every node, the boundary included.
    """
    M = mesh.M
    if isinstance(mesh, Mesh1D):
        return _load_1d(mesh, g)[1:M]
    return _load_2d(mesh, g).reshape(M + 1, M + 1)[1:M, 1:M].ravel()


def _gauss_on(a: np.ndarray, b: np.ndarray, xg: np.ndarray, wg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights on each interval (a_k, b_k), one row per interval."""
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid[:, None] + half[:, None] * xg, half[:, None] * wg


def _load_1d(mesh: Mesh1D, g) -> np.ndarray:
    """Loads of all M + 1 nodes by the 3-point Gauss rule on the grid cut at the data's breakpoints."""
    h, M = mesh.h, mesh.M
    grid = np.arange(M + 1) * h
    breaks = np.asarray(g.breakpoints if isinstance(g, InitialData1D) else (), dtype=float)
    cuts = np.union1d(grid, breaks[(0.0 < breaks) & (breaks < grid[-1])])
    e = np.searchsorted(grid, cuts[:-1], side="right") - 1  # element of each piece
    xl, xr = (e * h)[:, None], ((e + 1) * h)[:, None]
    xq, wq = _gauss_on(cuts[:-1], cuts[1:], _G3_X, _G3_W)
    gq = g(xq)
    left = np.sum(wq * gq * (xr - xq) / h, axis=1)
    right = np.sum(wq * gq * (xq - xl) / h, axis=1)
    # interleaved, so every node sums its terms in element order
    return np.bincount(np.column_stack([e, e + 1]).ravel(), np.column_stack([left, right]).ravel(), M + 1)


# a vertex within this distance of a clipping line counts as inside
_CLIP_TOL = 1e-14


def _clip_halfplane(poly: list[np.ndarray], fn: Callable, level: float, keep_below: bool) -> list[np.ndarray]:
    """Sutherland-Hodgman clip of a convex polygon against fn(p) <=/>= level."""
    if not poly:
        return []
    out: list[np.ndarray] = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp, fq = fn(p) - level, fn(q) - level
        if not keep_below:
            fp, fq = -fp, -fq
        pin, qin = fp <= _CLIP_TOL, fq <= _CLIP_TOL
        if pin:
            out.append(p)
        if pin != qin:
            t = fp / (fp - fq)
            out.append(p + t * (q - p))
    # drop duplicate consecutive vertices
    cleaned: list[np.ndarray] = []
    for v in out:
        if not cleaned or np.linalg.norm(v - cleaned[-1]) > 1e-14:
            cleaned.append(v)
    if len(cleaned) > 1 and np.linalg.norm(cleaned[0] - cleaned[-1]) <= 1e-14:
        cleaned.pop()
    return cleaned if len(cleaned) >= 3 else []


def _midedge_integrate(poly: list[np.ndarray], verts: np.ndarray, f: Callable) -> np.ndarray:
    """Integrals of ``f * phi_a`` over a convex polygon inside one triangle.

    ``phi_a`` are the barycentric hat functions of the triangle ``verts``.
    The polygon is fan-triangulated and each sub-triangle integrated with
    the mid-edge rule (exact for quadratics, hence exact whenever ``f``
    is piecewise constant on the polygon).
    """
    x, y = verts[:, 0], verts[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    a0 = np.array([x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]])
    area2 = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]

    def bary(p: np.ndarray) -> np.ndarray:
        return (a0 + b * p[0] + c * p[1]) / area2

    out = np.zeros(3)
    for s in range(1, len(poly) - 1):
        tri = (poly[0], poly[s], poly[s + 1])
        e2 = (tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1]) - (tri[2][0] - tri[0][0]) * (
            tri[1][1] - tri[0][1]
        )
        sub_area = abs(e2) / 2.0
        if sub_area == 0.0:
            continue
        for i, j in ((0, 1), (1, 2), (2, 0)):
            m = (tri[i] + tri[j]) / 2.0
            out += sub_area / 3.0 * f(m[0], m[1]) * bary(m)
    return out


def _support_rectangles(g) -> list[tuple[float, float, float, float, Callable]]:
    """(x0, x1, y0, y1, smooth part) pieces of a separable 2-D datum."""
    if isinstance(g, InitialData2D):
        recs = []
        for px in g.fx.pieces:
            for py in g.fy.pieces:
                cx, cy, s = px.coeffs, py.coeffs, g.scale

                def smooth(x, y, cx=cx, cy=cy, s=s):
                    return (
                        s
                        * np.polynomial.polynomial.polyval(x, cx)
                        * np.polynomial.polynomial.polyval(y, cy)
                    )

                recs.append((px.a, px.b, py.a, py.b, smooth))
        return recs
    return [(-np.inf, np.inf, -np.inf, np.inf, g)]


def _load_2d(mesh: Mesh2D, g) -> np.ndarray:
    """Mid-edge rule on every triangle inside a support rectangle of ``g``: all (M + 1)^2 loads, x fastest.

    Triangles a rectangle edge cuts are clipped to the rectangle one by
    one; triangles outside it add nothing.  "Inside" uses the tolerance of
    ``_clip_halfplane``, so a triangle counts as inside exactly when
    clipping would leave it whole.
    """
    M, tol = mesh.M, _CLIP_TOL
    grid = mesh._triangle_grid()
    tris = grid * mesh.h
    lo, hi = tris.min(axis=1), tris.max(axis=1)
    area = mesh.h**2 / 2.0
    contrib = np.zeros((mesh.n_triangles, 3))
    for x0, x1, y0, y1, smooth in _support_rectangles(g):
        box_lo, box_hi = np.array([x0, y0]), np.array([x1, y1])
        inside = np.all((lo >= box_lo - tol) & (hi <= box_hi + tol), axis=1)
        outside = np.any((hi <= box_lo + tol) | (lo >= box_hi - tol), axis=1)
        # mids[:, a] is the midpoint of edge (a, a + 1); the rule gives each
        # end of an edge weight area/3 * 1/2 of f there
        verts = tris[inside]
        mids = (verts + np.roll(verts, -1, axis=1)) / 2.0
        # a callable may return a scalar where its value is constant
        f = np.broadcast_to(smooth(mids[..., 0], mids[..., 1]), mids.shape[:-1])
        contrib[inside] += area / 6.0 * (f + np.roll(f, 1, axis=1))
        for t in np.flatnonzero(~(inside | outside)):
            poly = list(tris[t])
            for axis, level, below in ((0, x0, False), (0, x1, True), (1, y0, False), (1, y1, True)):
                poly = _clip_halfplane(poly, lambda p, axis=axis: p[axis], level, keep_below=below)
            if poly:
                contrib[t] += _midedge_integrate(poly, tris[t], smooth)
    full = grid[..., 1] * (M + 1) + grid[..., 0]
    return np.bincount(full.ravel(), weights=contrib.ravel(), minlength=(M + 1) ** 2)


# degree-5, 7-point symmetric quadrature on the reference triangle
_T7_L = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [0.059715871789770, 0.470142064105115, 0.470142064105115],
        [0.470142064105115, 0.059715871789770, 0.470142064105115],
        [0.470142064105115, 0.470142064105115, 0.059715871789770],
        [0.797426985353087, 0.101286507323456, 0.101286507323456],
        [0.101286507323456, 0.797426985353087, 0.101286507323456],
        [0.101286507323456, 0.101286507323456, 0.797426985353087],
    ]
)
_T7_W = np.array(
    [
        0.225,
        0.132394152788506,
        0.132394152788506,
        0.132394152788506,
        0.125939180544827,
        0.125939180544827,
        0.125939180544827,
    ]
)


def l2_error(mesh: Mesh1D | Mesh2D, coeffs: np.ndarray, exact: Callable) -> float:
    """L2 norm of ``u_h - exact`` (5-pt Gauss in 1-D, degree-5 rule in 2-D)."""
    coeffs = np.asarray(coeffs)
    if isinstance(mesh, Mesh1D):
        h, M = mesh.h, mesh.M
        full = np.zeros(M + 1, dtype=coeffs.dtype)
        full[1:M] = coeffs
        xl = np.arange(M) * h
        xq, wq = _gauss_on(xl, xl + h, _G5_X, _G5_W)
        uh = full[:-1, None] + (full[1:, None] - full[:-1, None]) * (xq - xl[:, None]) / h
        return float(np.sqrt(np.sum(wq * np.abs(uh - exact(xq)) ** 2)))
    M = mesh.M
    full = np.zeros((M + 1, M + 1), dtype=coeffs.dtype)  # [j, i]
    full[1:M, 1:M] = coeffs.reshape(M - 1, M - 1)
    grid = mesh._triangle_grid()
    vals = full[grid[..., 1], grid[..., 0]]  # (n_triangles, 3)
    pts = np.einsum("qk,tkd->tqd", _T7_L, mesh.triangles())
    uh = vals @ _T7_L.T
    err2 = np.abs(uh - exact(pts[..., 0], pts[..., 1])) ** 2
    return float(np.sqrt(mesh.h**2 / 2.0 * np.sum(err2 @ _T7_W)))


def mass_norm(mesh: Mesh1D | Mesh2D, c: np.ndarray) -> float | np.ndarray:
    """Discrete L2 norm ``sqrt(Re(c* M c))``: the L2 norm of the P1 function.

    ``M c`` is applied from the mesh's mass stencil.  A ``(k, ndof)``
    block ``c`` gives the k norms of its rows; a single vector, a float.
    """
    c = np.asarray(c)
    if isinstance(mesh, Mesh1D):
        mc = apply_stencil_1d(c, *stencil_1d(mesh)[0])
    else:
        n = mesh.M - 1
        mc = apply_stencil_2d(c.reshape(c.shape[:-1] + (n, n)), *stencil_2d(mesh)[0]).reshape(c.shape)
    dots = np.matmul(np.conj(c)[..., None, :], mc[..., None])[..., 0, 0]  # a BLAS dot per row, as for one vector
    norms = np.sqrt(np.abs(dots.real))
    return float(norms) if c.ndim == 1 else norms


def prolong_1d(coarse: np.ndarray, M: int) -> np.ndarray:
    """Interior coefficients on mesh 2M of the P1 function given on mesh M."""
    coarse = np.asarray(coarse)
    if len(coarse) != M - 1:
        raise FEMError(f"expected {M - 1} coarse coefficients, got {len(coarse)}")
    full = np.zeros(M + 1, dtype=coarse.dtype)
    full[1:M] = coarse
    fine = np.zeros(2 * M + 1, dtype=coarse.dtype)
    fine[0::2] = full
    fine[1::2] = (full[:-1] + full[1:]) / 2.0
    return fine[1 : 2 * M]


def prolong_2d(coarse: np.ndarray, M: int) -> np.ndarray:
    """Interior coefficients on mesh 2M of the P1 function given on mesh M.

    Fine nodes sit either on coarse nodes, on coarse horizontal/vertical
    edges, or on the cell diagonals used by the triangulation, so the
    coarse P1 function is linear along every connecting segment and the
    prolongation is exact.
    """
    coarse = np.asarray(coarse)
    if len(coarse) != (M - 1) ** 2:
        raise FEMError(f"expected {(M - 1) ** 2} coarse coefficients, got {len(coarse)}")
    full = np.zeros((M + 1, M + 1), dtype=coarse.dtype)  # [j, i]
    full[1:M, 1:M] = coarse.reshape(M - 1, M - 1)
    fine = np.zeros((2 * M + 1, 2 * M + 1), dtype=coarse.dtype)
    fine[0::2, 0::2] = full
    fine[0::2, 1::2] = (full[:, :-1] + full[:, 1:]) / 2.0
    fine[1::2, 0::2] = (full[:-1, :] + full[1:, :]) / 2.0
    # cell centers lie on the lower-left/upper-right diagonal edges
    fine[1::2, 1::2] = (full[:-1, :-1] + full[1:, 1:]) / 2.0
    return fine[1 : 2 * M, 1 : 2 * M].ravel()
