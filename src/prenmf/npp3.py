"""Exact 2-d nested polygon engine for rank-3 column geometry.

A rank-3 nonnegative matrix M maps, after column normalization, onto a 2-d
affine slice of the unit simplex.  The normalized columns span an inner
convex polygon Q; the simplex slice is an outer polygon P.  Exact low-rank
factorizations of M correspond to polygons with few vertices nested between
Q and P, which this module decides and enumerates with the classic
boundary tangent walk:

    from a point x(t) on the boundary of P, follow the supporting line of Q
    (Q kept on the left) until it exits P; k chained steps wrap around Q iff
    a k-vertex nested polygon through x(t) exists.

All computations happen in a 2-d orthonormal chart of the affine slice,
rescaled so the outer polygon has unit perimeter.  Tolerances are absolute
in that scale: ``GEOM_TOL`` tests incidence and tangency and merges polygon
vertices, and a walk may start up to 10 ``GEOM_TOL`` inside the inner
polygon; ``TOUCH_SLACK`` and ``PIECE_GAP`` bound a walk's noise band; the
half-plane clip uses 1e-13; ``Polygon2.param_of`` snaps points from up to
1e-6 away (1e-7 for a tangent step's exit point) onto the boundary, and a
step from within 1e-7 of its touch vertex goes on to the next one.
"""

import math
import numpy as np
from dataclasses import dataclass, field

from .matcore import RANK_TOL, as_matrix, numerical_rank, pullback

__all__ = [
    "GEOM_TOL",
    "GeometryError",
    "DegenerateChart",
    "EmptyOuter",
    "StartInsideQ",
    "NotFinite",
    "Polygon2",
    "Chart",
    "NppInstance",
    "TangentWalk",
    "build_npp",
    "tangent_step",
    "walk_fk",
    "sample_fk",
    "contact_change_points",
    "feasible_k",
    "enumerate_solutions",
    "convex_hull",
    "numerical_rank",
]

GEOM_TOL = 1e-9
DEDUP_TOL = 1e-6    # lifted Hausdorff distance below which solutions merge
# A tangent step snaps its exit point onto the outer boundary from up to
# 1e-7 away, so f_3 carries a noise band of about 3e-7.  A wrap slack inside
# the band is a touching (isolated) solution, one above it interior slack.
TOUCH_SLACK = 3e-7
# Touching change points this close lie in each other's noise band: the gap
# between them is no evidence of a constant piece of f_k on the wrap line.
PIECE_GAP = 3e-7


class GeometryError(RuntimeError):
    pass


class DegenerateChart(GeometryError):
    """The input does not span a 2-d affine slice (numerical rank != 3)."""


class EmptyOuter(GeometryError):
    """Half-plane intersection produced no polygon (numerical failure)."""


class StartInsideQ(GeometryError):
    """Walk started strictly inside the inner polygon (instance infeasible)."""


class NotFinite(GeometryError):
    """The instance admits a continuum of minimal nested polygons."""


def convex_hull(points):
    """2-d convex hull, counterclockwise, collinear points dropped.

    Returns (vertices, index_map) where index_map[v] lists the indices of
    the input points coinciding with hull vertex v.  Monotone chain; points
    within ``GEOM_TOL`` (times the coordinate scale) coincide.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    scale = max(1.0, float(np.abs(pts).max()))
    tol = GEOM_TOL * scale

    order = np.lexsort((pts[:, 1], pts[:, 0]))
    uniq = []
    groups = []
    for idx in order:
        p = pts[idx]
        if uniq and np.abs(p - uniq[-1]).max() <= tol:
            groups[-1].append(int(idx))
        else:
            uniq.append(p)
            groups.append([int(idx)])
    uniq = np.asarray(uniq)
    if len(uniq) == 1:
        return uniq, {0: groups[0]}

    def half(indices):
        chain = []
        for i in indices:
            while len(chain) >= 2:
                o, a = uniq[chain[-2]], uniq[chain[-1]]
                u, w = a - o, uniq[i] - o
                if u[0] * w[1] - u[1] * w[0] <= tol * scale:
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    idx = list(range(len(uniq)))
    lower = half(idx)
    upper = half(idx[::-1])
    hull_idx = lower[:-1] + upper[:-1]
    verts = uniq[hull_idx]
    index_map = {v: groups[i] for v, i in enumerate(hull_idx)}
    return verts, index_map


@dataclass(frozen=True)
class Polygon2:
    """Convex polygon with counterclockwise vertices and an arc-length table.

    Boundary points are addressed by the fraction t in [0, 1) of the
    perimeter traveled counterclockwise from vertex 0.
    """

    vertices: np.ndarray
    arcs: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)
    edge_len: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 two-dimensional vertices")
        edges = np.roll(v, -1, axis=0) - v
        lens = np.linalg.norm(edges, axis=1)
        if np.any(lens <= GEOM_TOL):
            raise ValueError("polygon has repeated vertices")
        nxt = np.roll(edges, -1, axis=0)
        turns = (edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]) \
            / (lens * np.roll(lens, -1))
        if np.any(turns <= GEOM_TOL):
            raise ValueError("polygon is not strictly convex counterclockwise")
        object.__setattr__(self, "vertices", v)
        arcs = np.concatenate([[0.0], np.cumsum(lens)])
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_len", lens)
        # Outward normals: rotate each CCW edge by -90 degrees.
        nrm = np.column_stack([edges[:, 1], -edges[:, 0]]) / lens[:, None]
        object.__setattr__(self, "normals", nrm)
        object.__setattr__(self, "offsets", np.einsum("ij,ij->i", nrm, v))

    @property
    def perimeter(self):
        return float(self.arcs[-1])

    # Each method below takes one boundary fraction t (or point p, shape (2,))
    # or an array of them (shape (B,) or (B, 2)) and answers row by row.

    def point_at(self, t):
        """Boundary point at perimeter fraction t (any real; wraps)."""
        s = (np.asarray(t, dtype=float) % 1.0) * self.perimeter
        i = self.edge_of_param(t)
        v0 = self.vertices[i]
        v1 = self.vertices[(i + 1) % len(self.vertices)]
        seg = self.arcs[i + 1] - self.arcs[i]
        lam = (s - self.arcs[i]) / seg
        return v0 + lam[..., None] * (v1 - v0)

    def param_of(self, p, tol=1e-6):
        """Perimeter fraction of a point on (or within tol of) the boundary."""
        shape = np.shape(p)[:-1]
        p = np.asarray(p, dtype=float).reshape(-1, 2)
        e = self.edges
        rel = p[:, None, :] - self.vertices
        lam = np.minimum(np.maximum(
            (rel[..., 0] * e[:, 0] + rel[..., 1] * e[:, 1])
            / (self.edge_len ** 2), 0.0), 1.0)
        dx = rel[..., 0] - lam * e[:, 0]
        dy = rel[..., 1] - lam * e[:, 1]
        d2 = dx * dx + dy * dy
        rows = np.arange(len(p))
        i = np.argmin(d2, axis=1)
        d2, lam = d2[rows, i], lam[rows, i]
        far = d2 > tol * tol
        if far.any():
            r = np.argmax(far)
            raise GeometryError(f"point {p[r]} lies {math.sqrt(d2[r]):.2e} "
                                "away from the boundary")
        t = ((self.arcs[i] + lam * self.edge_len[i]) / self.perimeter) % 1.0
        return t.reshape(shape)[()]

    def signed_inside(self, p):
        """Min over edges of the inward slack; >= 0 iff p is inside."""
        return np.min(self.offsets - _dots(np.asarray(p, dtype=float),
                                           self.normals), axis=-1)

    def edge_of_param(self, t):
        """Index of the edge containing boundary fraction t (vertex -> outgoing)."""
        s = (np.asarray(t, dtype=float) % 1.0) * self.perimeter
        i = np.searchsorted(self.arcs, s, side="right") - 1
        return np.minimum(np.maximum(i, 0), len(self.vertices) - 1)


def _dots(p, n):
    """Dot products of the points p, shape (..., 2), with the rows of n.

    Written out term by term rather than as a BLAS product, whose rounding
    of a row can depend on the rows batched with it.
    """
    return p[..., :1] * n[:, 0] + p[..., 1:] * n[:, 1]


def _clip_halfplane(verts, a, c, tol):
    """Sutherland-Hodgman clip of a CCW polygon by the half-plane a.y <= c."""
    out = []
    k = len(verts)
    d = verts @ a - c
    for i in range(k):
        p, q = verts[i], verts[(i + 1) % k]
        dp, dq = d[i], d[(i + 1) % k]
        if dp <= tol:
            out.append(p)
        if (dp < -tol and dq > tol) or (dp > tol and dq < -tol):
            lam = dp / (dp - dq)
            out.append(p + lam * (q - p))
    return np.asarray(out)


@dataclass(frozen=True)
class Chart:
    """Orthonormal 2-d chart of the affine slice holding the polygons.

    lift(y) = origin + basis @ (scale * y); coordinates are rescaled by
    1/scale so the outer polygon has unit perimeter.
    """

    origin: np.ndarray
    basis: np.ndarray
    scale: float = 1.0

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return (self.basis.T @ (x - self.origin)) / self.scale

    def lift(self, y):
        y = np.asarray(y, dtype=float)
        return self.origin + self.basis @ (self.scale * y)


@dataclass(frozen=True)
class NppInstance:
    """Nested polygon instance: inner hull Q inside the simplex slice P.

    The instance memoises its change-point walks per k, so the functions
    that read them walk each instance once.
    """

    outer: Polygon2
    inner: Polygon2
    chart: Chart
    vertex_columns: dict
    _wrap_table: dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)

    def lift_points(self, ys):
        """Lift chart points (k, 2) to nonnegative simplex vectors (m, k)."""
        Z = np.stack([self.chart.lift(y) for y in np.atleast_2d(ys)], axis=1)
        Z[(Z < 0) & (Z > -1e-7)] = 0.0
        return Z


@dataclass(frozen=True)
class TangentWalk:
    """Result of k chained tangent steps along the outer boundary."""

    t_values: np.ndarray         # k+1 nondecreasing, unwrapped
    points: np.ndarray           # (k+1, 2) walk points x(t_i)

    @property
    def f(self):
        return float(self.t_values[-1])

    @property
    def steps(self):
        return len(self.t_values) - 1


def build_npp(M):
    """Build the nested polygon instance of a rank-3 nonnegative matrix.

    The inner polygon is the convex hull of the normalized columns in a 2-d
    orthonormal chart of their affine hull; the outer polygon is the
    intersection of the m nonnegativity half-planes in the same chart
    (redundant ones drop out during incremental clipping).  Both polygons
    are rescaled so the outer perimeter is one.
    """
    M = as_matrix(M, "M")
    r = numerical_rank(M)
    if r != 3:
        raise DegenerateChart(f"numerical rank is {r}, need exactly 3")
    pb = pullback(M)
    theta = pb.theta
    m = theta.shape[0]

    o = theta.mean(axis=1)
    Y0 = theta - o[:, None]
    U, S, _ = np.linalg.svd(Y0, full_matrices=False)
    if S.size < 2 or S[1] <= 1e-12 * max(S[0], 1.0):
        raise DegenerateChart("normalized columns do not span a 2-d slice")
    W = U[:, :2]
    proj = (W.T @ Y0).T  # (n', 2)

    # Outer polygon: { y : o + W y >= 0 } clipped from a box that surely
    # contains the simplex slice (all its points satisfy |y| <= sqrt(2)).
    verts = np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])
    for i in range(m):
        a = -W[i]
        na = np.linalg.norm(a)
        if na <= 1e-14:
            continue
        verts = _clip_halfplane(verts, a / na, o[i] / na, 1e-13)
        if len(verts) == 0:
            raise EmptyOuter("half-plane intersection is empty")
    # The hull merges coincident vertices and drops collinear ones at
    # GEOM_TOL, the rule Polygon2 enforces.  Rolling it to the vertex
    # nearest the clip's first vertex keeps boundary fraction 0 there.
    ring, _ = convex_hull(verts)
    if len(ring) < 3:
        raise EmptyOuter("half-plane intersection degenerated")
    verts = np.roll(ring, -np.argmin(np.hypot(*(ring - verts[0]).T)), axis=0)

    hull, index_map = convex_hull(proj)
    if len(hull) < 3:
        raise DegenerateChart("inner polygon is degenerate")

    sides = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    L = float(np.cumsum(sides)[-1])
    outer = Polygon2(verts / L)
    hull = hull / L

    # Clamp inner vertices that sit a hair outside the outer polygon (the
    # preprocessing keeps columns nonnegative only up to solver tolerance).
    s = outer.signed_inside(hull)
    _fail(s < -1e-7, GeometryError,
          lambda i: f"inner vertex exceeds the simplex slice by {-s[i]:.2e}")
    if np.any(s < 0):
        hull[s < 0] = outer.point_at(outer.param_of(hull[s < 0], tol=1e-6))
    inner = Polygon2(hull)

    vertex_columns = {v: tuple(pb.kept[j] for j in cols)
                      for v, cols in index_map.items()}
    chart = Chart(origin=o, basis=W, scale=L)
    return NppInstance(outer=outer, inner=inner, chart=chart,
                       vertex_columns=vertex_columns)


def _fail(bad, exc, message):
    """Raise exc(message(i)) for the first row i flagged in bad, if any."""
    if np.any(bad):
        raise exc(message(int(np.argmax(bad))))


def _step(npp, t):
    """One tangent step from each boundary fraction in the array t.

    Returns (t_next, q), shapes (B,) and (B, 2): the unwrapped parameters
    after the step and the inner touch points.  Every row is computed on
    its own, so a row's result does not depend on the batch around it.
    A failing check raises for the first failing row, naming its t.

    The touch point q ends the one cyclic run of inner edges that the walk
    point x sees: those whose lines x lies beyond or within ``GEOM_TOL`` of
    (the nearest ones, for x just inside).  The ray x -> q is the rightmost
    with the inner polygon on its left, and passes an edge on its line to
    the edge's trailing vertex.  On the inner boundary the step follows the
    boundary, and x within 1e-7 of q goes on to the next vertex.
    """
    outer, inner = npp.outer, npp.inner
    t0 = t % 1.0
    x = outer.point_at(t)
    e = _dots(x, inner.normals) - inner.offsets
    top = e.max(axis=1)
    _fail(top < -10 * GEOM_TOL, StartInsideQ,
          lambda i: f"walk start at t={t0[i]:.6f} lies strictly inside "
                    "the inner polygon")
    seen = e >= np.minimum(top, -GEOM_TOL)[:, None]
    ends = seen & ~np.roll(seen, -1, axis=1)
    _fail(ends.sum(axis=1) != 1, GeometryError,
          lambda i: f"inner edges seen from t={t0[i]:.6f} do not form "
                    "one run")
    Q = inner.vertices
    j = (ends.argmax(axis=1) + 1) % len(Q)
    near = (top <= 10 * GEOM_TOL) & (np.hypot(*(x - Q[j]).T) <= 1e-7)
    j[near] = (j[near] + 1) % len(Q)
    q = Q[j]
    d = (q - x) / np.linalg.norm(q - x, axis=1)[:, None]

    # Farthest boundary point of the ray x + s d inside the outer polygon.
    denom = _dots(d, outer.normals)
    slack = outer.offsets - _dots(x, outer.normals)
    out = denom > 1e-12
    s = np.where(out, slack / np.where(out, denom, 1.0), np.inf)
    behind = s <= GEOM_TOL
    # A decisively transversal crossing at (or before) the start point
    # means the ray leaves the polygon immediately.
    at_once = np.any(behind & (denom > 1e-6), axis=1)
    s_exit = np.where(behind, np.inf, s).min(axis=1)
    _fail(at_once | np.isinf(s_exit), GeometryError,
          lambda i: f"tangent ray from t={t0[i]:.6f} "
                    + ("leaves the polygon immediately" if at_once[i]
                       else "does not exit the outer polygon"))

    t_exit = outer.param_of(x + s_exit[:, None] * d, tol=1e-7)
    delta = (t_exit - t0) % 1.0
    _fail(delta <= 1e-12, GeometryError,
          lambda i: f"tangent walk stalled at t={t0[i]:.6f}")
    return t + delta, q


def _walk(npp, ts, k):
    """Chain k tangent steps from every boundary fraction in ts.

    Returns the (B, k+1) unwrapped walk parameters, the starts first.
    """
    cols = [np.asarray(ts, dtype=float)]
    for _ in range(k):
        cols.append(_step(npp, cols[-1])[0])
    return np.column_stack(cols)


def tangent_step(npp, t):
    """One tangent step of the boundary walk.

    Returns (t_next, q): the unwrapped parameter after the step and the
    inner touch point q.  When the boundary coincides with the inner
    polygon locally, the step follows the boundary to the next vertex.
    """
    t_next, q = _step(npp, np.array([float(t)]))
    return t_next[0], q[0]


def walk_fk(npp, t, k):
    """Chain k tangent steps from boundary fraction t.

    The walk's final value f_k(t) equals the last (unwrapped) parameter;
    f_k(t) >= t + 1 certifies a k-vertex nested polygon whose vertices are
    the first k walk points.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ts = _walk(npp, [float(t)], k)[0]
    return TangentWalk(t_values=ts, points=npp.outer.point_at(ts))


def sample_fk(npp, k, num=256):
    """Sample (t, f_k(t)) on a uniform grid (CSV/plotting helper)."""
    ts = np.arange(num) / num
    return np.column_stack([ts, _walk(npp, ts, k)[:, -1]])


def _mirror(npp):
    """The instance reflected in the chart's second axis.

    Reflection reverses orientation, so both vertex lists are reversed to
    stay counterclockwise; the outer list keeps vertex 0 first, so outer
    boundary fraction t becomes -t mod 1.  The reflection turns a chord
    with the inner polygon on its left into one with it on its right, so
    a tangent step on the mirror is an inverse step on the original: if
    the mirror's step from -t ends at s, the original's step from -s ends
    at t.
    """
    flip = np.array([1.0, -1.0])
    outer = npp.outer.vertices * flip
    return NppInstance(outer=Polygon2(np.roll(outer[::-1], 1, axis=0)),
                       inner=Polygon2((npp.inner.vertices * flip)[::-1]),
                       chart=Chart(origin=npp.chart.origin,
                                   basis=npp.chart.basis * flip,
                                   scale=npp.chart.scale),
                       vertex_columns=npp.vertex_columns)


def contact_change_points(npp, k):
    """Boundary parameters where the k-step walk's incidence structure changes.

    Seeds are the outer vertices, the boundary intersections of the lines
    supporting each inner edge, and inner vertices lying on the outer
    boundary.  The walk from t changes structure where one of its points
    x(f_j(t)), j = 0..k, crosses a seed, so the change points are the seeds
    and their preimages under f_1, ..., f_k, each found exactly by k
    inverse steps (forward steps on the mirrored instance).  Distinct
    solution classes among these points number at most (outer facets +
    inner vertices).
    """
    outer, Q = npp.outer, npp.inner.vertices
    # Meets of the line through each inner edge (rows) with each outer
    # edge (columns): s runs along the inner line, lam along the outer edge.
    d, e = npp.inner.edges[:, None], outer.edges
    w = outer.vertices - Q[:, None]
    denom = d[..., 0] * e[:, 1] - d[..., 1] * e[:, 0]
    ok = np.abs(denom) > 1e-14
    denom = np.where(ok, denom, 1.0)
    s = (w[..., 0] * e[:, 1] - w[..., 1] * e[:, 0]) / denom
    lam = (w[..., 0] * d[..., 1] - w[..., 1] * d[..., 0]) / denom
    r, c = np.nonzero(ok & (lam >= -1e-9) & (lam <= 1 + 1e-9))
    pts = [outer.vertices, Q[np.abs(outer.signed_inside(Q)) <= 10 * GEOM_TOL],
           Q[r] + s[r, c][:, None] * d[r, 0]]
    seeds = np.unique(outer.param_of(np.vstack(pts), tol=1e-6))

    back = -_walk(_mirror(npp), -seeds, k) % 1.0
    out = sorted(set(back.ravel()))
    dedup = []
    for t in out:
        if not dedup or t - dedup[-1] > 1e-9:
            dedup.append(t)
    if len(dedup) > 1 and (dedup[0] + 1.0) - dedup[-1] <= 1e-9:
        dedup.pop()
    return dedup


def _wrap_slacks(npp, k):
    """``_walk``'s rows from the contact change points t and f_k(t) - t - 1.

    Computed once per instance and k; the arrays are read-only.
    """
    if k not in npp._wrap_table:
        walks = _walk(npp, np.array(contact_change_points(npp, k)), k)
        table = walks, walks[:, -1] - walks[:, 0] - 1.0
        for a in table:
            a.flags.writeable = False
        npp._wrap_table[k] = table
    return npp._wrap_table[k]


def max_wrap_slack(npp, k):
    """Maximum of f_k(t) - t - 1 over the contact change points.

    Between consecutive change points f_k is constant or strictly convex,
    so f_k(t) - t peaks at an end of its piece, and every piece end is a
    change point.  Returns (value, argmax_t); the first maximiser wins.
    """
    walks, slacks = _wrap_slacks(npp, k)
    best = slacks.argmax()
    return slacks[best], walks[best, 0]


def feasible_k(npp, k):
    """Decide whether a k-vertex polygon nests between the two polygons.

    Boundary touching (within ``GEOM_TOL``) counts as feasible.  Returns
    (feasible, witness_t or None).
    """
    best_v, best_t = max_wrap_slack(npp, k)
    if best_v >= -GEOM_TOL:
        return True, best_t
    return False, None


def enumerate_solutions(npp, k):
    """All k-vertex nested polygons, as lifted column-stochastic matrices.

    Walks are started at every contact change point where the wrap
    criterion holds (within ``GEOM_TOL``); polygons whose lifted vertex
    sets lie within ``DEDUP_TOL`` of each other (Hausdorff) are merged.
    Raises NotFinite when the wrap criterion holds with interior slack or
    on a whole constant piece: either way the solution set is a continuum,
    not a finite list.
    """
    walks, vals = _wrap_slacks(npp, k)
    max_val = vals.max()
    if max_val < -GEOM_TOL:
        return []
    if max_val > TOUCH_SLACK:
        raise NotFinite("wrap criterion holds with interior slack: "
                        "a continuum of nested polygons exists")
    touching = walks[vals >= -GEOM_TOL]
    ts = touching[:, 0].tolist() + [touching[0, 0] + 1.0]
    # A full constant piece on the wrap line is also a continuum.
    mids = np.array([0.5 * (a + b) % 1.0 for a, b in zip(ts, ts[1:])
                     if b - a > PIECE_GAP])
    if np.any(_walk(npp, mids, k)[:, -1] - mids - 1.0 >= -GEOM_TOL):
        raise NotFinite("wrap criterion holds on a continuum of starts")

    solutions = []
    for walk in touching:
        lifted = npp.lift_points(npp.outer.point_at(walk[:k]))
        is_dup = False
        for other in solutions:
            dmat = np.linalg.norm(lifted[:, :, None] - other[:, None, :], axis=0)
            hausdorff = max(dmat.min(axis=0).max(), dmat.min(axis=1).max())
            if hausdorff <= DEDUP_TOL:
                is_dup = True
                break
        if not is_dup:
            solutions.append(lifted)
    return solutions


def hull_membership(x, X, tol=1e-7):
    """Is the stochastic vector x in the convex hull of the columns of X?

    Solves the feasibility problem { X lam = x, lam >= 0, sum lam = 1 } as a
    nonnegative least squares fit and accepts when the residual is at most
    tol.  Works in any dimension (not only the rank-3 chart).  Only the
    tests call it, so it stays outside ``__all__`` and imports scipy when
    called.
    """
    import scipy.optimize

    X = as_matrix(X, "X")
    x = np.asarray(x, dtype=float).ravel()
    if x.size != X.shape[0]:
        raise ValueError("x and X have incompatible shapes")
    A = np.vstack([X, np.ones((1, X.shape[1]))])
    b = np.concatenate([x, [1.0]])
    fit = scipy.optimize.lsq_linear(A, b, bounds=(0.0, np.inf), method="bvls")
    resid = np.linalg.norm(A @ np.maximum(fit.x, 0.0) - b)
    return bool(resid <= tol)
