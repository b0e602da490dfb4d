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


@dataclass(frozen=True)
class InitialData1D:
    """Piecewise polynomial on (0, 1); zero outside the listed pieces."""

    pieces: tuple[Piece1D, ...] = field(default=())

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

    def node_index(self, i: int, j: int) -> int:
        """Interior index of grid node (i*h, j*h); -1 on the boundary."""
        if 0 < i < self.M and 0 < j < self.M:
            return (j - 1) * (self.M - 1) + (i - 1)
        return -1

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates, shape (ndof, 2), x fastest."""
        g = np.arange(1, self.M) * self.h
        X, Y = np.meshgrid(g, g, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    def triangles(self) -> np.ndarray:
        """Vertex coordinates of all triangles, shape (n_triangles, 3, 2).

        Each square cell is split along its lower-left to upper-right
        diagonal.
        """
        h = self.h
        tris = np.empty((self.n_triangles, 3, 2))
        k = 0
        for j in range(self.M):
            for i in range(self.M):
                x0, y0 = i * h, j * h
                v00 = (x0, y0)
                v10 = (x0 + h, y0)
                v01 = (x0, y0 + h)
                v11 = (x0 + h, y0 + h)
                tris[k] = (v00, v10, v11)
                tris[k + 1] = (v00, v11, v01)
                k += 2
        return tris

    def triangle_dofs(self) -> np.ndarray:
        """Interior dof index (or -1) of each triangle vertex, shape (n_triangles, 3)."""
        dofs = np.empty((self.n_triangles, 3), dtype=int)
        k = 0
        for j in range(self.M):
            for i in range(self.M):
                i00 = self.node_index(i, j)
                i10 = self.node_index(i + 1, j)
                i01 = self.node_index(i, j + 1)
                i11 = self.node_index(i + 1, j + 1)
                dofs[k] = (i00, i10, i11)
                dofs[k + 1] = (i00, i11, i01)
                k += 2
        return dofs


@dataclass(frozen=True)
class AssembledOperators:
    """Interior mass and stiffness matrices of a mesh."""

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    ndof: int
    dim: int


def assemble(mesh: Mesh1D | Mesh2D) -> AssembledOperators:
    if isinstance(mesh, Mesh1D):
        return _assemble_1d(mesh)
    return _assemble_2d(mesh)


def _assemble_1d(mesh: Mesh1D) -> AssembledOperators:
    n, h = mesh.ndof, mesh.h
    main_m = np.full(n, 4.0 * h / 6.0)
    off_m = np.full(n - 1, h / 6.0)
    mass = sp.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr")
    main_s = np.full(n, 2.0 / h)
    off_s = np.full(n - 1, -1.0 / h)
    stiff = sp.diags([off_s, main_s, off_s], [-1, 0, 1], format="csr")
    return AssembledOperators(mass=mass, stiffness=stiff, ndof=n, dim=1)


def _element_matrices(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Element stiffness and mass of one triangle given its 3x2 vertices."""
    x, y = verts[:, 0], verts[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area2 = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]  # = 2 * signed area
    area = abs(area2) / 2.0
    ke = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
    me = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    return ke, me, area


def _assemble_2d(mesh: Mesh2D) -> AssembledOperators:
    n = mesh.ndof
    tris = mesh.triangles()
    dofs = mesh.triangle_dofs()
    rows, cols, sv, mv = [], [], [], []
    for t in range(mesh.n_triangles):
        ke, me, _ = _element_matrices(tris[t])
        d = dofs[t]
        for a in range(3):
            if d[a] < 0:
                continue
            for b in range(3):
                if d[b] < 0:
                    continue
                rows.append(d[a])
                cols.append(d[b])
                sv.append(ke[a, b])
                mv.append(me[a, b])
    stiff = sp.coo_matrix((sv, (rows, cols)), shape=(n, n)).tocsr()
    mass = sp.coo_matrix((mv, (rows, cols)), shape=(n, n)).tocsr()
    return AssembledOperators(mass=mass, stiffness=stiff, ndof=n, dim=2)


# ---------------------------------------------------------------------------
# load vectors

# 3-point Gauss-Legendre on [-1, 1]
_G3_X = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_G3_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

# 5-point Gauss-Legendre on [-1, 1]
_G5_X, _G5_W = np.polynomial.legendre.leggauss(5)


def load_vector(
    mesh: Mesh1D | Mesh2D,
    g: InitialData1D | InitialData2D | Callable,
    include_boundary: bool = False,
) -> np.ndarray:
    """Galerkin load ``b_i = integral of g * phi_i``.

    Piecewise data is integrated exactly up to the quadrature degree by
    splitting each element at the data's jump locations; plain callables
    are integrated by the same rules without splitting.  With
    ``include_boundary`` the entries of the boundary hat functions are
    appended (1-D: first/last; 2-D: all boundary nodes), which is useful
    for mass-conservation checks.
    """
    if isinstance(mesh, Mesh1D):
        return _load_1d(mesh, g, include_boundary)
    return _load_2d(mesh, g, include_boundary)


def _gauss_on(a: float, b: float, xg: np.ndarray, wg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * xg, half * wg


def _load_1d(mesh: Mesh1D, g, include_boundary: bool) -> np.ndarray:
    h, M = mesh.h, mesh.M
    breaks = g.breakpoints if isinstance(g, InitialData1D) else ()
    b = np.zeros(M + 1)
    for e in range(M):
        xl, xr = e * h, (e + 1) * h
        cuts = [xl] + [p for p in breaks if xl < p < xr] + [xr]
        for s in range(len(cuts) - 1):
            xq, wq = _gauss_on(cuts[s], cuts[s + 1], _G3_X, _G3_W)
            gq = g(xq)
            b[e] += np.sum(wq * gq * (xr - xq) / h)
            b[e + 1] += np.sum(wq * gq * (xq - xl) / h)
    return b if include_boundary else b[1:M]


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
        pin, qin = fp <= 1e-14, fq <= 1e-14
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


def _load_2d(mesh: Mesh2D, g, include_boundary: bool) -> np.ndarray:
    tris = mesh.triangles()
    dofs = mesh.triangle_dofs()
    n_full = (mesh.M + 1) ** 2

    def full_index(p: np.ndarray) -> int:
        i = int(round(p[0] / mesh.h))
        j = int(round(p[1] / mesh.h))
        return j * (mesh.M + 1) + i

    b_full = np.zeros(n_full)
    b_int = np.zeros(mesh.ndof)
    rects = _support_rectangles(g)
    for t in range(mesh.n_triangles):
        verts = tris[t]
        contrib = np.zeros(3)
        for x0, x1, y0, y1, smooth in rects:
            poly = [verts[0], verts[1], verts[2]]
            if np.isfinite(x0):
                poly = _clip_halfplane(poly, lambda p: p[0], x0, keep_below=False)
            if np.isfinite(x1):
                poly = _clip_halfplane(poly, lambda p: p[0], x1, keep_below=True)
            if np.isfinite(y0):
                poly = _clip_halfplane(poly, lambda p: p[1], y0, keep_below=False)
            if np.isfinite(y1):
                poly = _clip_halfplane(poly, lambda p: p[1], y1, keep_below=True)
            if poly:
                contrib += _midedge_integrate(poly, verts, smooth)
        for a in range(3):
            if dofs[t][a] >= 0:
                b_int[dofs[t][a]] += contrib[a]
            b_full[full_index(verts[a])] += contrib[a]
    return b_full if include_boundary else b_int


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
        acc = 0.0
        for e in range(M):
            xl = e * h
            xq, wq = _gauss_on(xl, xl + h, _G5_X, _G5_W)
            uh = full[e] + (full[e + 1] - full[e]) * (xq - xl) / h
            acc += np.sum(wq * np.abs(uh - exact(xq)) ** 2)
        return float(np.sqrt(acc))
    tris = mesh.triangles()
    dofs = mesh.triangle_dofs()
    acc = 0.0
    for t in range(mesh.n_triangles):
        verts = tris[t]
        vals = np.array([coeffs[d] if d >= 0 else 0.0 for d in dofs[t]], dtype=coeffs.dtype)
        _, _, area = _element_matrices(verts)
        pts = _T7_L @ verts
        uh = _T7_L @ vals
        acc += area * np.sum(_T7_W * np.abs(uh - exact(pts[:, 0], pts[:, 1])) ** 2)
    return float(np.sqrt(acc))


def mass_norm(ops: AssembledOperators, c: np.ndarray) -> float:
    """Discrete L2 norm ``sqrt(Re(c* M c))``: the L2 norm of the P1 function."""
    c = np.asarray(c)
    return float(np.sqrt(abs(np.real(np.conj(c) @ (ops.mass @ c)))))


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
