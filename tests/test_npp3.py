import itertools

import numpy as np
import pytest

from prenmf import npp3
from prenmf.cllsolve import SolverError, preprocess_matrix
from prenmf.fixtures import fixture_names, get_fixture
from prenmf.preprocessing import apply_alpha
from prenmf.matcore import pullback
from oracles import (in_hull_oracle, outer_polygon_oracle, ray_exit_oracle,
                     rotated_chart, tangent_point_oracle, tangent_step_oracle)

from conftest import sweep_products

A_CONST = np.sqrt(2.0) - 1.0
ALPHA_BAR = (4.0 * A_CONST - 1.0) / (3.0 * A_CONST)


@pytest.fixture
def ns_instance(nested_squares):
    return npp3.build_npp(nested_squares)


@pytest.fixture
def ns_critical(nested_squares):
    B, _ = preprocess_matrix(nested_squares)
    return npp3.build_npp(apply_alpha(nested_squares, B, ALPHA_BAR))


@pytest.fixture
def ns_preprocessed(nested_squares):
    B, _ = preprocess_matrix(nested_squares)
    return npp3.build_npp(apply_alpha(nested_squares, B, 1.0))


def generic_product(seed):
    rng = np.random.default_rng(seed)
    return rng.random((6, 3)) @ rng.random((3, 8))


def interpolated(M, alphas):
    B, _ = preprocess_matrix(M)
    return [npp3.build_npp(apply_alpha(M, B, a)) for a in alphas]


def separable_product(seed):
    rng = np.random.default_rng(seed)
    W = rng.random((7, 3)) + 0.05
    H = np.hstack([np.eye(3), rng.random((3, 7)) + 0.05])
    return W @ H[:, rng.permutation(10)]


def walk_instances(nested_squares, sepex):
    """Instances for the batched walk checks, each with its mirror.

    Fully preprocessed separable products put their inner vertices on the
    outer boundary, where the walk follows the inner boundary.
    """
    instances = interpolated(nested_squares, [ALPHA_BAR, 0.3])
    instances += interpolated(sepex, [1.0])
    for seed in range(2):
        instances += interpolated(separable_product(seed), [1.0])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        M = rng.random((7, 3)) @ rng.random((3, 10))
        instances += interpolated(M, [0.0, 0.5])
    return instances + [npp3._mirror(npp) for npp in instances]


def synthetic(outer, inner):
    return npp3.NppInstance(outer=npp3.Polygon2(np.array(outer, float)),
                            inner=npp3.Polygon2(np.array(inner, float)),
                            chart=npp3.Chart(np.zeros(2), np.eye(2)),
                            vertex_columns={})


def cluster_count(values, tol):
    vals = sorted(values)
    if not vals:
        return 0
    count = 1
    for a, b in zip(vals, vals[1:]):
        if b - a > tol:
            count += 1
    if count > 1 and (vals[0] + 1.0) - vals[-1] <= tol:
        count -= 1
    return count


class TestPolygon2:
    def test_requires_convex_ccw(self):
        with pytest.raises(ValueError):
            npp3.Polygon2(np.array([[0, 0], [0, 1], [1, 1], [1, 0]], float))
        with pytest.raises(ValueError):
            npp3.Polygon2(np.array([[0, 0], [1, 0], [1, 0], [0, 1]], float))

    def test_param_round_trip(self):
        poly = npp3.Polygon2(np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float))
        for t in np.linspace(0, 1, 37, endpoint=False):
            back = poly.param_of(poly.point_at(t))
            assert back == pytest.approx(t % 1.0, abs=1e-12)

    def test_signed_inside(self):
        poly = npp3.Polygon2(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float))
        assert poly.signed_inside(np.array([1.0, 1.0])) == pytest.approx(1.0)
        assert poly.signed_inside(np.array([3.0, 1.0])) == pytest.approx(-1.0)

    def test_param_of_refuses_a_point_off_the_boundary(self, ns_preprocessed):
        with pytest.raises(npp3.GeometryError,
                           match=r"^point \[5\. 5\.\] lies 6\.94e\+00 away "
                                 "from the boundary$"):
            ns_preprocessed.outer.param_of(np.array([5.0, 5.0]))


class TestBuildNpp:
    def test_nested_squares_geometry(self, ns_instance):
        outer, inner = ns_instance.outer, ns_instance.inner
        assert len(outer.vertices) == 4
        assert len(inner.vertices) == 4
        assert outer.perimeter == pytest.approx(1.0)
        c_out = outer.vertices.mean(axis=0)
        c_in = inner.vertices.mean(axis=0)
        np.testing.assert_allclose(c_out, c_in, atol=1e-9)
        r_out = np.linalg.norm(outer.vertices - c_out, axis=1).mean()
        r_in = np.linalg.norm(inner.vertices - c_in, axis=1).mean()
        assert r_out / r_in == pytest.approx(4.0, abs=1e-9)

    def test_identity_inner_equals_outer(self):
        npp = npp3.build_npp(np.eye(3))
        assert len(npp.outer.vertices) == 3
        assert len(npp.inner.vertices) == 3
        for v in npp.inner.vertices:
            assert abs(npp.outer.signed_inside(v)) <= 1e-9

    def test_separable_inner_triangle(self, sepex):
        B, _ = preprocess_matrix(sepex)
        npp = npp3.build_npp(apply_alpha(sepex, B, 1.0))
        assert len(npp.inner.vertices) == 3
        cols = sorted(c for cols in npp.vertex_columns.values() for c in cols)
        assert cols == [0, 1, 2]  # the pure columns of the product

    def test_chart_round_trip(self, ns_instance, nested_squares):
        theta = pullback(nested_squares).theta
        for j in range(theta.shape[1]):
            y = ns_instance.chart.project(theta[:, j])
            back = ns_instance.chart.lift(y)
            np.testing.assert_allclose(back, theta[:, j], atol=1e-10)

    def test_rank_validation(self, rng):
        with pytest.raises(npp3.DegenerateChart):
            npp3.build_npp(rng.random((5, 5)) + 0.1)


class TestOuterPolygon:
    """``build_npp``'s clipped outer polygon against pairwise line meets."""

    @staticmethod
    def mismatches(M, alphas):
        """(alpha, error) wherever the outer polygon misses the oracle, and
        the number of alphas compared.

        Instances that ``preprocess_matrix`` or ``build_npp`` refuse are
        skipped: they have no chart to compare in.
        """
        try:
            B, _ = preprocess_matrix(M)
        except (ValueError, SolverError):
            return [], 0
        bad, compared = [], 0
        for a in alphas:
            try:
                npp = npp3.build_npp(apply_alpha(M, B, a))
            except npp3.GeometryError:
                continue
            compared += 1
            v, w = npp.outer.vertices, outer_polygon_oracle(npp.chart)
            if len(v) != len(w):
                bad.append((a, f"{len(v)} vertices, oracle {len(w)}"))
                continue
            # Same counterclockwise ring, from the vertex nearest vertex 0.
            w = np.roll(w, -np.argmin(np.linalg.norm(w - v[0], axis=1)),
                        axis=0)
            err = np.abs(v - w).max()
            if err > 1e-12:
                bad.append((a, err))
        return bad, compared

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        assert self.mismatches(get_fixture(name), [0.0, 0.5, 1.0])[0] == []

    def test_nested_squares_alpha_grid(self, nested_squares):
        alphas = np.linspace(0.0, 1.0, 21)
        assert self.mismatches(nested_squares, alphas) == ([], 21)

    def test_sweep(self):
        bad, compared = {}, 0
        for k, M in sweep_products():
            e, n = self.mismatches(M, [0.0, 0.5, 1.0])
            if e:
                bad[k] = e
            compared += n
        assert bad == {}
        assert compared >= 800  # 822 of the 900 build

    def test_near_coincident_vertices_merge_at_geom_tol(self):
        # Two clip vertices about 2e-10 apart: one merge rule for the clip
        # and for Polygon2 lets the build reach the inner-vertex check.
        M = next(M for k, M in sweep_products() if k == 80)
        B, _ = preprocess_matrix(M)
        with pytest.raises(npp3.GeometryError,
                           match="inner vertex exceeds the simplex slice"):
            npp3.build_npp(apply_alpha(M, B, 1.0))


class TestTangentStep:
    def test_preprocessed_square_corner_step(self, ns_preprocessed):
        # Inner and outer coincide at full preprocessing: from a corner the
        # tangent runs along the side to the nearest corner, a quarter of
        # the perimeter away.
        npp = ns_preprocessed
        side = np.sort(np.linalg.norm(
            np.roll(npp.inner.vertices, -1, axis=0) - npp.inner.vertices,
            axis=1))[0]
        for v in npp.outer.vertices:
            t0 = npp.outer.param_of(v)
            t1, q = npp3.tangent_step(npp, t0)
            assert t1 - t0 == pytest.approx(0.25, abs=1e-9)
            # The touch is the adjacent corner one side-length away (the
            # nearest distinct corner; both neighbours tie, the walk takes
            # the counterclockwise one).
            assert np.linalg.norm(q - v) == pytest.approx(side, abs=1e-9)
            np.testing.assert_allclose(q, npp.outer.point_at(t1), atol=1e-9)

    def test_identity_follows_boundary(self):
        npp = npp3.build_npp(np.eye(3))
        t = 0.21
        t1, q = npp3.tangent_step(npp, t)
        v_params = sorted(npp.outer.param_of(v) for v in npp.outer.vertices)
        nxt = min((p for p in v_params if p > t + 1e-12), default=v_params[0])
        assert t1 % 1.0 == pytest.approx(nxt, abs=1e-9)

    def test_against_ray_tracing_oracle(self, ns_critical):
        npp = ns_critical
        for t in [0.03, 0.21, 0.4, 0.77]:
            x = npp.outer.point_at(t)
            d_ref, q_ref = tangent_point_oracle(npp.inner.vertices, x)
            t1, q = npp3.tangent_step(npp, t)
            s_ref = ray_exit_oracle(
                lambda p: npp.outer.signed_inside(p) >= -1e-12, x, d_ref)
            exit_ref = x + s_ref * d_ref
            np.testing.assert_allclose(npp.outer.point_at(t1), exit_ref,
                                       atol=2e-3)
            np.testing.assert_allclose(q, q_ref, atol=2e-3)

    def test_touching_vertex_steps_to_a_nearly_flat_next_vertex(self):
        # Sweep input 297 at alpha = 0.5: x(0) is an inner vertex on the
        # outer boundary, and the line of the inner edge after the next
        # vertex w passes 3.2e-9 from x, inside.  The edges x sees end at
        # w, so the step touches w, as the oracle's does; a run tolerance
        # of 10 GEOM_TOL would take that edge in and skip w.
        M = next(M for k, M in sweep_products() if k == 297)
        B, _ = preprocess_matrix(M)
        npp = npp3.build_npp(apply_alpha(M, B, 0.5))
        Q, x = npp.inner.vertices, npp.outer.point_at(0.0)
        v = np.argmin(np.linalg.norm(Q - x, axis=1))
        assert np.linalg.norm(Q[v] - x) <= npp3.GEOM_TOL
        w, after = Q[(v + 1) % len(Q)], Q[(v + 2) % len(Q)]
        edge = after - w
        inside = (edge[0] * (x - w)[1] - edge[1] * (x - w)[0]) \
            / np.linalg.norm(edge)
        assert npp3.GEOM_TOL < inside < 10 * npp3.GEOM_TOL
        t1, q = npp3.tangent_step(npp, 0.0)
        np.testing.assert_array_equal(q, w)
        ref_t, ref_q = tangent_step_oracle(npp, 0.0)
        assert t1 == pytest.approx(ref_t, rel=0, abs=1e-12)
        np.testing.assert_allclose(q, ref_q, rtol=0, atol=1e-12)

    def test_start_in_the_noise_band_of_its_touch_vertex_steps_on(self):
        # Inner edge 0, (1, 0) -> (3, 0), lies along the outer square's
        # bottom edge.  The start x lies on it 5e-8 before its end vertex
        # (3, 0), 4.5e-8 inside the next inner edge's line, so only edge 0
        # is seen and its end vertex would be the touch point.  x is within
        # the walk's 1e-7 noise band of that vertex, so the step touches the
        # next vertex, (2, 2), instead of running along the bottom edge.
        npp = synthetic([[0, 0], [4, 0], [4, 4], [0, 4]],
                        [[1, 0], [3, 0], [2, 2]])
        t = (3.0 - 5e-8) / 16.0
        np.testing.assert_allclose(npp.outer.point_at(t), [3.0 - 5e-8, 0.0],
                                   rtol=0, atol=1e-15)
        t1, q = npp3.tangent_step(npp, t)
        np.testing.assert_array_equal(q, [2.0, 2.0])
        ref_t, ref_q = tangent_step_oracle(npp, t)
        np.testing.assert_array_equal(q, ref_q)
        assert t1 == pytest.approx(ref_t, rel=0, abs=1e-12)
        # The ray from x through (2, 2) exits the top edge near (1, 4).
        assert t1 == pytest.approx(11.0 / 16.0, abs=1e-8)

    def test_start_inside_raises(self):
        outer = npp3.Polygon2(np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float))
        inner = npp3.Polygon2(np.array([[-1, -1], [5, -1], [5, 5], [-1, 5]], float))
        bad = npp3.NppInstance(outer=outer, inner=inner,
                               chart=npp3.Chart(np.zeros(2), np.eye(2)),
                               vertex_columns={})
        with pytest.raises(npp3.StartInsideQ):
            npp3.tangent_step(bad, 0.1)


class TestWalks:
    def test_identity_triangle_closes(self):
        npp = npp3.build_npp(np.eye(3))
        t0 = npp.outer.param_of(npp.outer.vertices[1])
        walk = npp3.walk_fk(npp, t0, 3)
        assert walk.f == pytest.approx(t0 + 1.0, abs=1e-9)
        assert len(walk.t_values) == 4

    def test_nondecreasing_t(self, ns_critical):
        for t in np.linspace(0, 1, 29, endpoint=False):
            walk = npp3.walk_fk(ns_critical, float(t), 4)
            assert np.all(np.diff(walk.t_values) >= 0)

    def test_symmetry_quarter_period(self, ns_critical):
        # The two concentric squares share the full dihedral symmetry of a
        # square: a quarter-period shift moves the whole walk exactly.
        for steps in (3, 4):
            for t in np.linspace(0.01, 0.99, 11):
                f1 = npp3.walk_fk(ns_critical, float(t), steps).f
                f2 = npp3.walk_fk(ns_critical, float(t) + 0.25, steps).f
                assert f2 - f1 == pytest.approx(0.25, abs=1e-9)

    def test_touch_set_eighth_period(self, ns_critical):
        # The wrap criterion is attained every eighth of the perimeter: the
        # eight solutions alternate between two families, and on that touch
        # set the eighth-shift identity is exact (it does not hold pointwise
        # in between; the polygon pair has only four-fold symmetry).
        for t in np.arange(8) / 8.0:
            f = npp3.walk_fk(ns_critical, float(t), 3).f
            assert f - t - 1.0 == pytest.approx(0.0, abs=1e-9)
            f2 = npp3.walk_fk(ns_critical, float(t) + 0.125, 3).f
            assert f2 - f == pytest.approx(0.125, abs=1e-9)

    def test_monotone_in_start(self, ns_critical):
        ts = np.linspace(0.0, 1.0, 144)
        fs = [npp3.walk_fk(ns_critical, float(t), 3).f for t in ts]
        assert np.all(np.diff(fs) >= -1e-9)

    def test_tangency_of_segments(self, ns_critical):
        # Every chord of the walk keeps the inner polygon on one side.
        inner = ns_critical.inner.vertices
        for t in [0.05, 0.3, 0.62]:
            walk = npp3.walk_fk(ns_critical, t, 4)
            for p0, p1 in zip(walk.points, walk.points[1:]):
                d = (p1 - p0) / np.linalg.norm(p1 - p0)
                rel = inner - p0
                crosses = d[0] * rel[:, 1] - d[1] * rel[:, 0]
                assert crosses.min() >= -1e-7

    def test_piecewise_constant_or_convex(self, ns_critical):
        # Between consecutive break points the walk value is constant or
        # discretely convex (never concave beyond noise).
        cands = npp3.contact_change_points(ns_critical, 3)
        for a, b in zip(cands, cands[1:]):
            if b - a < 1e-4:
                continue
            ts = np.linspace(a + 1e-6 * (b - a), b - 1e-6 * (b - a), 20)
            fs = np.array([npp3.walk_fk(ns_critical, float(t), 3).f
                           for t in ts])
            if fs.max() - fs.min() <= 1e-9:
                continue
            second = np.diff(fs, 2)
            assert second.min() >= -1e-9


def assert_walks_match_oracle(npp, ts):
    """Three batched steps from each start in ts against three chained
    oracle steps: walk parameters and touch points agree to 1e-12."""
    walks = npp3._walk(npp, ts, 3)
    touches = np.stack([npp3._step(npp, walks[:, j])[1]
                        for j in range(3)], axis=1)
    for t, row, qs in zip(ts, walks, touches):
        ref, ref_q = [t], []
        for _ in range(3):
            t_next, q = tangent_step_oracle(npp, ref[-1])
            ref.append(t_next)
            ref_q.append(q)
        np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(qs, ref_q, rtol=0, atol=1e-12)


class TestBatchedWalk:
    def test_rows_match_chained_oracle_steps(self, nested_squares, sepex):
        mixed = 0
        for npp in walk_instances(nested_squares, sepex):
            outer, inner = npp.outer, npp.inner
            on_inner = [outer.param_of(v) for v in inner.vertices
                        if abs(outer.signed_inside(v)) <= 10 * npp3.GEOM_TOL]
            ts = np.concatenate([np.arange(64) / 64, on_inner])
            mixed += bool(on_inner)
            assert_walks_match_oracle(npp, ts)
        assert mixed >= 6  # the separable instances and their mirrors

    def test_sweep_rows_match_chained_oracle_steps(self):
        # Every tenth sweep product that builds, from a grid and from the
        # contact change points, where the walk points meet the seeds.
        # Sweep input 290 at alpha = 0.5 has an inner edge lying along an
        # outer edge.  A chord along it meets the outer edge's line at an
        # angle of 1e-11, so its exit moves by 1e-8 under a one-ulp change
        # of the chord's direction, and the oracle rounds its products
        # differently: the ray exit's conditioning, not the touch rule.
        bad, compared = [], 0
        for k, M in itertools.islice(sweep_products(), 0, None, 10):
            try:
                B, _ = preprocess_matrix(M)
            except (ValueError, SolverError):
                continue
            for a in (0.0, 0.5, 1.0):
                try:
                    npp = npp3.build_npp(apply_alpha(M, B, a))
                except npp3.GeometryError:
                    continue
                ts = np.concatenate([np.arange(64) / 64,
                                     npp3.contact_change_points(npp, 3)])
                try:
                    assert_walks_match_oracle(npp, ts)
                except AssertionError:
                    bad.append((k, a))
                compared += 1
        assert set(bad) <= {(290, 0.5)}
        assert compared >= 80  # 82 of the 90 build

    def test_rows_independent_of_batch(self, nested_squares, sepex):
        ts = np.arange(256) / 256
        for npp in walk_instances(nested_squares, sepex)[::3]:
            full = npp3._walk(npp, ts, 3)
            for size in (1, 3, 17):
                for i in range(0, len(ts), size):
                    np.testing.assert_array_equal(
                        npp3._walk(npp, ts[i:i + size], 3), full[i:i + size])

    @pytest.mark.parametrize("outer, inner, ts, bad", [
        # The inner triangle pokes through the bottom edge: x(0.125) = (2, 0)
        # lies strictly inside it.
        ([[0, 0], [4, 0], [4, 4], [0, 4]], [[1, -1], [3, -1], [2, 1]],
         [0.5, 0.6, 0.125, 0.8], 2),
        # A large outer square: the tangent ray from 1e-9 before the corner
        # exits 1e-9 past it, a parameter gap below 1e-12.
        ([[0, 0], [1000, 0], [1000, 1000], [0, 1000]],
         [[1100, 100], [1050, 200], [1000, 150]],
         [0.1, (1000 - 1e-9) / 4000, 0.6, 0.3], 1),
    ], ids=["start-inside", "stalled"])
    def test_error_names_failing_row(self, outer, inner, ts, bad):
        npp = synthetic(outer, inner)
        with pytest.raises(npp3.GeometryError) as ref:
            tangent_step_oracle(npp, ts[bad])
        for i, t in enumerate(ts):
            if i != bad:
                tangent_step_oracle(npp, t)
        with pytest.raises(npp3.GeometryError) as got:
            npp3._walk(npp, np.array(ts), 2)
        assert type(got.value) is type(ref.value)
        assert f"t={ts[bad]:.6f}" in str(got.value)
        assert str(got.value) == str(ref.value)


    def test_ray_leaving_the_polygon_at_once_names_its_row(self):
        # Inner vertex (1, -0.01) lies just below the outer square's bottom
        # edge, so the tangent ray from x(0.05) = (0.8, 0) towards it
        # crosses that edge transversally at its start.
        npp = synthetic([[0, 0], [4, 0], [4, 4], [0, 4]],
                        [[1, -0.01], [3, 1], [1, 2]])
        with pytest.raises(npp3.GeometryError,
                           match="^tangent ray leaves the polygon immediately$"):
            tangent_step_oracle(npp, 0.05)
        for t in (0.3, 0.6):
            tangent_step_oracle(npp, t)
        with pytest.raises(npp3.GeometryError) as got:
            npp3._walk(npp, np.array([0.3, 0.05, 0.6]), 1)
        assert type(got.value) is npp3.GeometryError
        assert str(got.value) == ("tangent ray from t=0.050000 leaves the "
                                  "polygon immediately")


    def test_grazing_ray_that_finds_no_exit_names_its_row(self):
        # The outer triangle is 1e-6 high, so its edge from (4, 0) to
        # (2, 1e-6) has the outward normal (5e-7, 1) to first order.  The
        # tangent ray from x(0.625) = (3, 5e-7), the midpoint of that edge,
        # runs horizontally to the inner vertex (3.5, 5e-7): it crosses
        # that edge's line at its start with the rate 5e-7, under the 1e-6
        # of a transversal crossing, and meets no other edge ahead.
        h = 1e-6
        npp = synthetic([[0, 0], [4, 0], [2, h]],
                        [[3.5, h / 2], [4.5, 1], [3.5, 1]])
        t = float(npp.outer.param_of(np.array([3.0, h / 2])))
        assert t == pytest.approx(0.625)
        npp3._step(npp, np.array([0.1, 0.3]))
        with pytest.raises(npp3.GeometryError) as got:
            npp3._walk(npp, np.array([0.1, t, 0.3]), 1)
        assert type(got.value) is npp3.GeometryError
        assert str(got.value) == ("tangent ray from t=0.625000 does not exit "
                                  "the outer polygon")


class TestContactChangePoints:
    def test_identity_vertex_classes(self):
        npp = npp3.build_npp(np.eye(3))
        pts = npp3.contact_change_points(npp, 3)
        assert cluster_count(pts, 1e-5) == 3

    def test_nested_squares_class_bound(self, ns_critical):
        pts = npp3.contact_change_points(ns_critical, 3)
        # 8 solutions x 3 vertices each
        assert cluster_count(pts, 1e-5) == 24

    def test_separable_class_bound(self, sepex):
        B, _ = preprocess_matrix(sepex)
        npp = npp3.build_npp(apply_alpha(sepex, B, 1.0))
        pts = npp3.contact_change_points(npp, 3)
        m, n = sepex.shape
        assert cluster_count(pts, 1e-5) <= 3 * (m + n)

    def test_backward_step_inverts_walk(self, nested_squares):
        # The preimage of every outer vertex under f_j, j <= 3, taken by
        # forward steps on the mirrored instance, is a change point and is
        # mapped back onto the vertex by the walk.  The instances keep every
        # inner vertex off the outer boundary: where one touches it, f_j
        # jumps, and the backward step lands on the jump point, which is
        # a seed's preimage only in the limit.
        instances = interpolated(nested_squares, [0.0, 0.3, ALPHA_BAR, 0.7])
        for seed in range(6):
            instances += interpolated(generic_product(seed), [0.0, 0.9])
        for npp in instances:
            assert min(npp.outer.signed_inside(v)
                       for v in npp.inner.vertices) > 10 * npp3.GEOM_TOL
            mirror = npp3._mirror(npp)
            cands = np.array(npp3.contact_change_points(npp, 3))
            for v in npp.outer.vertices:
                tau = npp.outer.param_of(v)
                p = tau
                for j in range(1, 4):
                    p = -npp3.tangent_step(mirror, -p)[0] % 1.0
                    gap = (npp3.walk_fk(npp, p, j).f - tau) % 1.0
                    assert min(gap, 1.0 - gap) <= 1e-10
                    circ = np.abs(cands - p)
                    assert np.minimum(circ, 1.0 - circ).min() <= 1e-9


class TestFeasibility:
    def test_boundary_touching_feasible(self, ns_critical):
        ok, witness = npp3.feasible_k(ns_critical, 3)
        assert ok and witness is not None

    def test_slightly_supercritical_infeasible(self, nested_squares):
        B, _ = preprocess_matrix(nested_squares)
        npp = npp3.build_npp(apply_alpha(nested_squares, B, ALPHA_BAR + 1e-3))
        assert not npp3.feasible_k(npp, 3)[0]

    def test_identity_feasible(self):
        assert npp3.feasible_k(npp3.build_npp(np.eye(3)), 3)[0]

    def test_full_preprocessing_infeasible(self, ns_preprocessed):
        # A square cannot nest inside a triangle inside itself.
        assert not npp3.feasible_k(ns_preprocessed, 3)[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_slack_dominates_dense_scan(self, seed):
        # The change points include the preimages of the seeds under the
        # final step f_k, so no start on a dense scan beats their maximum.
        for npp in interpolated(generic_product(seed), [0.0, 0.5]):
            t, f = npp3.sample_fk(npp, 3, num=2000).T
            scan = (f - t - 1.0).max()
            assert npp3.max_wrap_slack(npp, 3)[0] >= scan - 1e-12


class TestEnumerate:
    def test_nested_squares_eight_solutions(self, ns_critical):
        sols = npp3.enumerate_solutions(ns_critical, 3)
        assert len(sols) == 8
        m, n = 4, 4
        assert len(sols) <= m + n
        U2 = np.array([[1, A_CONST, 0], [0, 1 - A_CONST, 1],
                       [A_CONST, 1, 0], [1 - A_CONST, 0, 1]])
        theta_U2 = U2 / U2.sum(axis=0)
        best = np.inf
        for S in sols:
            dmat = np.linalg.norm(S[:, :, None] - theta_U2[:, None, :], axis=0)
            best = min(best, max(dmat.min(0).max(), dmat.min(1).max()))
        assert best <= 1e-6

    def test_solution_validity(self, ns_critical):
        inner_cols = np.stack(
            [ns_critical.chart.lift(v) for v in ns_critical.inner.vertices],
            axis=1)
        for S in npp3.enumerate_solutions(ns_critical, 3):
            assert S.min() >= -1e-9
            np.testing.assert_allclose(S.sum(axis=0), 1.0, atol=1e-7)
            for j in range(inner_cols.shape[1]):
                assert npp3.hull_membership(inner_cols[:, j], S, tol=1e-6)

    def test_identity_single_solution(self):
        sols = npp3.enumerate_solutions(npp3.build_npp(np.eye(3)), 3)
        assert len(sols) == 1
        for basis in np.eye(3):
            dists = np.linalg.norm(sols[0] - basis[:, None], axis=0)
            assert dists.min() <= 1e-9

    def test_continuum_detected(self):
        M = np.array([[0.00, 0.5, 0.25, 0.0],
                      [1.00, 0.5, 0.75, 1.0],
                      [1.00, 0.0, 0.10, 0.5],
                      [0.00, 1.0, 0.90, 0.5]])
        B, _ = preprocess_matrix(M)
        npp = npp3.build_npp(M - M @ B)
        with pytest.raises(npp3.NotFinite):
            npp3.enumerate_solutions(npp, 3)

    def test_point_like_inner_polygon_is_a_continuum_of_starts(self):
        # An inner triangle 5e-9 across is a point at the walk's tolerance
        # (GEOM_TOL = 1e-9): every chord through it is a nested 2-gon.  Each
        # 2-step walk through it closes within 5e-10, so no start has
        # interior slack; the midpoints between the touching starts show
        # the continuum.  An inner triangle 1e-7 across admits no chord.
        corner = np.array([[0, 0], [1, 0], [0, 1]])
        square = [[0, 0], [4, 0], [4, 4], [0, 4]]
        npp = synthetic(square, [1.5, 2.0] + 5e-9 * corner)
        assert 0.0 > npp3.max_wrap_slack(npp, 2)[0] >= -npp3.GEOM_TOL
        with pytest.raises(npp3.NotFinite,
                           match="^wrap criterion holds on a continuum of "
                                 "starts$"):
            npp3.enumerate_solutions(npp, 2)
        npp = synthetic(square, [1.5, 2.0] + 1e-7 * corner)
        assert npp3.enumerate_solutions(npp, 2) == []

    def test_no_solution_is_an_empty_list(self, ns_preprocessed):
        # Fully preprocessed nested-squares puts a square between the
        # polygons: no triangle nests, and the enumeration finds none.
        assert npp3.enumerate_solutions(ns_preprocessed, 3) == []


class TestHullMembership:
    def test_column_itself(self, rng):
        X = rng.random((5, 4)) + 0.1
        X = X / X.sum(axis=0)
        assert npp3.hull_membership(X[:, 2], X)

    def test_midpoint(self, rng):
        X = rng.random((5, 4)) + 0.1
        X = X / X.sum(axis=0)
        mid = 0.5 * (X[:, 0] + X[:, 1])
        assert npp3.hull_membership(mid, X)

    def test_nested_squares_separation(self, nested_squares):
        B, _ = preprocess_matrix(nested_squares)
        hull_cols = pullback(apply_alpha(nested_squares, B, ALPHA_BAR)).theta
        inner_vertex = pullback(nested_squares).theta[:, 0]
        outer_vertex = pullback(apply_alpha(nested_squares, B, 1.0)).theta[:, 0]
        assert npp3.hull_membership(inner_vertex, hull_cols)
        assert not npp3.hull_membership(outer_vertex, hull_cols)

    def test_against_lp_oracle(self, rng):
        for _ in range(10):
            X = rng.random((6, 5)) + 0.05
            X = X / X.sum(axis=0)
            x = rng.random(6) + 0.05
            x = x / x.sum()
            assert npp3.hull_membership(x, X) == in_hull_oracle(x, X)


class TestChartIndependence:
    def test_rotation_invariance(self, ns_critical):
        base_feasible = npp3.feasible_k(ns_critical, 3)[0]
        base_count = len(npp3.enumerate_solutions(ns_critical, 3))
        for angle in [0.3, 1.1, 2.7]:
            rot = rotated_chart(ns_critical, angle)
            assert npp3.feasible_k(rot, 3)[0] == base_feasible
            assert len(npp3.enumerate_solutions(rot, 3)) == base_count
