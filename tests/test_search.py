"""Lattice construction, terminal insertion, and earliest-arrival search."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gliderplan.search as search_mod
from gliderplan.errors import ConfigError
from gliderplan.flowfield import (SAMPLE_OK, FlowGrid, InterpScheme,
                                  _nearest, current_bound, sample_batch,
                                  synth_field)
from gliderplan.kinematics import (INFEASIBLE, DiveProfile, ProfileFamilySpec,
                                   VehicleSpec, make_dive_profiles)
from gliderplan.search import (MAX_BATCH_LANES, NEIGHBOR_OFFSETS_8,
                               NEIGHBOR_OFFSETS_16, BlockedRegions, Rect,
                               SearchGraph, build_graph, connect_terminals,
                               make_edge_cost, path_report, segments_clear,
                               tve_dijkstra)
from gliderplan.smoothing import recompute_arrivals, smooth_path

from conftest import (make_gyre_grid, make_land_grid, make_tidal_grid,
                      make_uniform_grid, random_grid)
from oracles import (blocks_reference, brute_force_arrival,
                     build_graph_reference, connect_terminals_reference,
                     path_report_reference, segment_clear_reference,
                     static_shortest_time)

V03 = VehicleSpec(0.3)


def graph_from_edges(n, edges, positions=None):
    """Hand-built SearchGraph for synthetic-cost searches."""
    if positions is None:
        positions = [(float(i), 0.0) for i in range(n)]
    tails = [a for a, _ in edges]
    heads = [b for _, b in sorted(edges, key=lambda e: e[0])]  # stable
    indptr = np.concatenate(([0], np.cumsum(np.bincount(tails, minlength=n))))
    return SearchGraph(list(positions), indptr, np.array(heads, dtype=int),
                       spacing=1.0, neighbor_set=8, region=Rect(0, 0, 1, 1),
                       blocked=BlockedRegions(), lattice_size=n)


def cost_from_table(table):
    """EdgeCostFn reading (a_xy, b_xy) -> seconds from a dict."""
    def cost(a_xy, b_xy, depart):
        return None, table.get((a_xy, b_xy), math.inf)
    return cost


class TestNeighborOffsets:
    def test_offset_tables(self):
        assert len(set(NEIGHBOR_OFFSETS_8)) == 8
        assert len(set(NEIGHBOR_OFFSETS_16)) == 16
        assert set(NEIGHBOR_OFFSETS_8) <= set(NEIGHBOR_OFFSETS_16)
        # the extension is exactly the knight moves
        knights = set(NEIGHBOR_OFFSETS_16) - set(NEIGHBOR_OFFSETS_8)
        assert all(sorted((abs(i), abs(j))) == [1, 2] for i, j in knights)


class TestBuildGraph:
    def test_three_by_three_eight_neighborhood(self):
        graph = build_graph(Rect(0.0, 0.0, 2.0, 2.0), 1.0, neighbor_set=8)
        assert graph.n_vertices == 9
        assert graph.n_edges == 40

    def test_three_by_three_sixteen_neighborhood(self):
        graph = build_graph(Rect(0.0, 0.0, 2.0, 2.0), 1.0, neighbor_set=16)
        assert graph.n_vertices == 9
        assert graph.n_edges == 56

    def test_single_row(self):
        graph = build_graph(Rect(0.0, 0.0, 2.0, 0.5), 1.0, neighbor_set=8)
        assert graph.n_vertices == 3
        assert graph.n_edges == 4

    def test_edges_are_symmetric_with_euclidean_lengths(self):
        spacing = 250.0
        graph = build_graph(Rect(0.0, 0.0, 1000.0, 1000.0), spacing,
                            neighbor_set=16)
        seen = {}
        for a in range(graph.n_vertices):
            ax, ay = graph.vertex_xy[a]
            for b in graph.neighbors(a):
                bx, by = graph.vertex_xy[b]
                seen[(a, b)] = math.hypot(bx - ax, by - ay)
        assert len(seen) == graph.n_edges  # no arc twice
        for (a, b), length in seen.items():
            assert seen[(b, a)] == length
        lengths = sorted(set(round(v, 6) for v in seen.values()))
        assert lengths == [pytest.approx(spacing),
                           pytest.approx(spacing * math.sqrt(2.0)),
                           pytest.approx(spacing * math.sqrt(5.0))]

    def test_exact_multiple_region_keeps_far_edge(self):
        graph = build_graph(Rect(0.0, 0.0, 5000.0, 5000.0), 1000.0, 8)
        xs = sorted(set(x for x, _ in graph.vertex_xy))
        assert xs[0] == 0.0
        assert xs[-1] == 5000.0
        assert graph.n_vertices == 36

    def test_blocked_vertices_are_dropped(self):
        grid = make_land_grid(extent=50_000.0, n=6)  # land column ix=3
        blocked = BlockedRegions(grid=grid)
        graph = build_graph(Rect(0.0, 0.0, 50_000.0, 50_000.0), 10_000.0,
                            8, blocked)
        assert not blocked.mask(*zip(*graph.vertex_xy)).any()
        land_x = float(grid.x_coords[3])
        for x, y in graph.vertex_xy:
            assert abs(x - land_x) > 2_500.0  # nearest-node land margin

    def test_degenerate_region_rejected(self):
        with pytest.raises(ConfigError):
            build_graph(Rect(0.0, 0.0, 0.0, 100.0), 10.0, 8)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ConfigError):
            build_graph(Rect(0.0, 0.0, 1.0, 1.0), 0.0, 8)

    def test_bad_neighbor_set_rejected(self):
        with pytest.raises(ConfigError):
            build_graph(Rect(0.0, 0.0, 1.0, 1.0), 0.5, 12)

    @pytest.mark.parametrize("neighbor_set,offsets", [
        (8, NEIGHBOR_OFFSETS_8), (16, NEIGHBOR_OFFSETS_16)])
    def test_lattice_budget_is_checked_by_estimate(self, monkeypatch,
                                                   neighbor_set, offsets):
        # a 5 x 4 lattice estimates 5 * 4 * len(offsets) directed edges;
        # the budget is lowered around that estimate, so nothing large
        # is ever built
        region = Rect(0.0, 0.0, 40_000.0, 30_000.0)
        estimate = 5 * 4 * len(offsets)
        monkeypatch.setattr(search_mod, "MAX_LATTICE_EDGES", estimate)
        graph = build_graph(region, 10_000.0, neighbor_set)
        assert graph.n_vertices == 20
        monkeypatch.setattr(search_mod, "MAX_LATTICE_EDGES", estimate - 1)
        with pytest.raises(ConfigError, match="grid_spacing"):
            build_graph(region, 10_000.0, neighbor_set)

    @pytest.mark.parametrize("spacing", [1e-3, 5e-324])
    def test_huge_lattice_rejected_before_allocation(self, spacing):
        # 1e-3 m over 100 km would be ~1e17 edges; 5e-324 overflows the
        # column count to infinity
        with pytest.raises(ConfigError,
                           match="grid_spacing: .* lattice edges"):
            build_graph(Rect(0.0, 0.0, 100_000.0, 100_000.0), spacing, 16)


class TestBlockedRegions:
    def test_polygon_blocks_interior_only(self):
        square = ((10.0, 10.0), (20.0, 10.0), (20.0, 20.0), (10.0, 20.0))
        blocked = BlockedRegions(polygons=(square,))
        assert blocked.mask([15.0, 5.0, 25.0], [15.0, 5.0, 15.0]).tolist() == [
            True, False, False]

    def test_concave_polygon_even_odd(self):
        # a U shape: the notch between the arms is outside
        poly = ((0.0, 0.0), (30.0, 0.0), (30.0, 30.0), (20.0, 30.0),
                (20.0, 10.0), (10.0, 10.0), (10.0, 30.0), (0.0, 30.0))
        blocked = BlockedRegions(polygons=(poly,))
        # left arm, right arm, notch
        assert blocked.mask([5.0, 25.0, 15.0], [15.0, 15.0, 20.0]).tolist() == [
            True, True, False]

    def test_outside_flow_domain_blocks(self, still_grid):
        blocked = BlockedRegions(grid=still_grid)
        assert blocked.mask([-1.0, 50.0, 50_000.0],
                            [50.0, 1e9, 50_000.0]).tolist() == [True, True, False]


class TestConnectTerminals:
    def test_open_water_gets_k_links(self):
        graph = build_graph(Rect(0.0, 0.0, 4000.0, 4000.0), 1000.0, 8)
        start, goal = connect_terminals(graph, (1500.0, 1500.0),
                                        (3100.0, 2600.0), k=8)
        assert start == graph.lattice_size
        assert goal == graph.lattice_size + 1
        assert len(graph.neighbors(start)) == 8
        assert len(graph.neighbors(goal)) == 8
        # links are bidirectional, each the last arc of its lattice vertex
        for b in graph.neighbors(start):
            assert graph.neighbors(b)[-1] in (start, goal)
            assert start in graph.neighbors(b)

    def test_terminal_on_vertex_is_reused(self):
        graph = build_graph(Rect(0.0, 0.0, 4000.0, 4000.0), 1000.0, 8)
        n_before = graph.n_vertices
        start, goal = connect_terminals(graph, (1000.0, 2000.0),
                                        (9.0, 3010.0), k=4)
        assert start < graph.lattice_size
        assert graph.vertex_xy[start] == (1000.0, 2000.0)
        assert goal == n_before  # only the goal was inserted

    def test_blocked_terminal_rejected(self):
        square = ((900.0, 900.0), (1100.0, 900.0), (1100.0, 1100.0),
                  (900.0, 1100.0))
        graph = build_graph(Rect(0.0, 0.0, 4000.0, 4000.0), 1000.0, 8,
                            BlockedRegions(polygons=(square,)))
        with pytest.raises(ConfigError, match="blocked area"):
            connect_terminals(graph, (1000.0, 1000.0), (3000.0, 3000.0))

    def test_unconnectable_terminal_rejected(self):
        # wall polygon between the terminal and every lattice vertex
        wall = ((500.0, -100.0), (600.0, -100.0), (600.0, 4100.0),
                (500.0, 4100.0))
        graph = build_graph(Rect(1000.0, 0.0, 4000.0, 4000.0), 1000.0, 8,
                            BlockedRegions(polygons=(wall,)))
        with pytest.raises(ConfigError, match="cannot be connected"):
            connect_terminals(graph, (100.0, 2000.0), (3000.0, 2000.0), k=4)


def _still_grid(xs, ys, land):
    """A still grid on knots xs, ys with land[j][i] filled."""
    u = np.where(np.asarray(land, dtype=bool), -9999.0, 0.0)[None, None]
    return FlowGrid(xs, ys, (0.0,), (0.0,), u, np.zeros_like(u))


def _grid_over(x_lo, x_hi, y_lo, y_hi, land):
    """A still grid on [x_lo, x_hi] x [y_lo, y_hi] with land[j][i] filled."""
    return _still_grid(np.linspace(x_lo, x_hi, len(land[0])),
                       np.linspace(y_lo, y_hi, len(land)), land)


@st.composite
def lattice_cases(draw):
    """Small lattices with odd spacings and origins, land, polygons
    (some edges horizontal, some vertices on lattice points) and
    terminals (some on lattice points)."""
    spacing = draw(st.sampled_from((0.1, 0.3, 0.35, 0.7, 1.1, 2.2))
                   | st.floats(0.05, 3.0))
    x0 = draw(st.sampled_from((0.1, 0.3, 1.7, 3.3)) | st.floats(-5.0, 5.0))
    y0 = draw(st.sampled_from((0.1, 0.3, 1.7, 3.3)) | st.floats(-5.0, 5.0))
    nx = draw(st.integers(1, 7))
    ny = draw(st.integers(1, 7))
    x1 = x0 + (nx - 1 + draw(st.floats(0.01, 0.99))) * spacing
    y1 = y0 + (ny - 1 + draw(st.floats(0.01, 0.99))) * spacing
    region = Rect(x0, y0, x1, y1)
    grid = None
    if draw(st.booleans()):
        # the domain may cover the region or only part of it
        gx0 = x0 + draw(st.floats(-1.0, 0.5)) * spacing
        gy0 = y0 + draw(st.floats(-1.0, 0.5)) * spacing
        gx1 = gx0 + draw(st.floats(0.5, 1.5)) * (x1 - x0 + spacing)
        gy1 = gy0 + draw(st.floats(0.5, 1.5)) * (y1 - y0 + spacing)
        gnx = draw(st.integers(2, 6))
        gny = draw(st.integers(2, 6))
        land = draw(st.lists(st.lists(st.booleans(), min_size=gnx,
                                      max_size=gnx), min_size=gny,
                             max_size=gny))
        grid = _grid_over(gx0, gx1, gy0, gy1, land)
    lattice_point = st.builds(
        lambda i, j: (x0 + i * spacing, y0 + j * spacing),
        st.integers(-1, nx), st.integers(-1, ny))
    free_point = st.tuples(st.floats(x0 - spacing, x1 + spacing),
                           st.floats(y0 - spacing, y1 + spacing))
    polygons = []
    for _ in range(draw(st.integers(0, 3))):
        poly = []
        for _ in range(draw(st.integers(3, 6))):
            x, y = draw(lattice_point | free_point)
            if poly and draw(st.booleans()):
                y = poly[-1][1]  # a horizontal edge
            poly.append((x, y))
        polygons.append(tuple(poly))
    terminal = st.tuples(st.floats(x0, x1), st.floats(y0, y1)) | st.builds(
        lambda i, j: (x0 + i * spacing, y0 + j * spacing),
        st.integers(0, nx - 1), st.integers(0, ny - 1))
    start, goal = draw(terminal), draw(terminal)
    return (region, spacing, draw(st.sampled_from((8, 16))),
            BlockedRegions(grid=grid, polygons=tuple(polygons)), start, goal)


def assert_same_lattice(graph, vertex_xy, heads):
    assert graph.vertex_xy == vertex_xy
    assert [graph.neighbors(a) for a in range(graph.n_vertices)] == heads
    assert graph.n_edges == sum(map(len, heads))


class TestScreenOracle:
    """The array screen and CSR build against the scalar loops."""

    @settings(max_examples=300, deadline=None)
    @given(lattice_cases())
    def test_lattice_matches_scalar_build(self, case):
        region, spacing, neighbor_set, blocked, start, goal = case
        offsets = NEIGHBOR_OFFSETS_8 if neighbor_set == 8 else NEIGHBOR_OFFSETS_16
        vertex_xy, heads = build_graph_reference(region, spacing, offsets,
                                                 blocked)
        graph = build_graph(region, spacing, neighbor_set, blocked)
        assert_same_lattice(graph, vertex_xy, heads)
        expected = connect_terminals_reference(
            vertex_xy, heads, blocked, (start, goal), neighbor_set)
        try:
            got = connect_terminals(graph, start, goal)
        except ConfigError as exc:
            assert str(exc) == expected
            return
        assert got == expected
        assert_same_lattice(graph, vertex_xy, heads)

    def test_terminal_ranking_squares_like_python(self):
        # x ** 2 is pow(), which differs from x * x by an ulp here and
        # reorders two of the nearest vertices
        region = Rect(0.0, 0.2, 1.2, 1.4)
        graph = build_graph(region, 0.3, 16)
        vertex_xy, heads = build_graph_reference(region, 0.3,
                                                 NEIGHBOR_OFFSETS_16,
                                                 BlockedRegions())
        x, y = 0.75, 0.425
        lattice = np.array(vertex_xy)
        by_product = np.argsort(np.square(lattice[:, 0] - x)
                                + np.square(lattice[:, 1] - y),
                                kind="stable")[:16].tolist()
        ends = ((x, y), (1.1, 1.3))
        assert connect_terminals(graph, *ends) == connect_terminals_reference(
            vertex_xy, heads, BlockedRegions(), ends, 16)
        assert_same_lattice(graph, vertex_xy, heads)
        assert heads[graph.lattice_size] != by_product

    @pytest.mark.parametrize("budget", [1, 5, 64])
    def test_screen_budget_does_not_change_the_lattice(self, monkeypatch,
                                                       budget):
        square = ((1_500.0, 1_500.0), (4_500.0, 1_500.0),
                  (4_500.0, 2_000.0), (1_500.0, 2_000.0))
        blocked = BlockedRegions(grid=make_land_grid(), polygons=(square,))
        region = Rect(0.0, 0.0, 50_000.0, 50_000.0)
        expected = build_graph(region, 2_500.0, 16, blocked)
        monkeypatch.setattr(search_mod, "MAX_SCREEN_POINTS", budget)
        graph = build_graph(region, 2_500.0, 16, blocked)
        assert graph.vertex_xy == expected.vertex_xy
        assert np.array_equal(graph.indptr, expected.indptr)
        assert np.array_equal(graph.heads, expected.heads)

    def test_screen_matches_scalar_oracle_point_by_point(self):
        grid = random_grid(np.random.default_rng(5), 7, 6, 1, 1)
        gx, gy = grid.x_coords, grid.y_coords
        polygons = (
            ((gx[1], gy[1]), (gx[3], gy[1]), (gx[3], gy[2]), (gx[1], gy[2])),
            ((gx[2], gy[3]), (gx[5], gy[3]), (gx[4], gy[5]), (gx[3], gy[4]),
             (gx[2], gy[5])))
        blocked = BlockedRegions(grid=grid, polygons=polygons)

        def probes(c):
            # nodes, node midpoints, the domain edge and one ulp beyond
            return np.concatenate((
                c, (c[:-1] + c[1:]) / 2,
                [np.nextafter(c[0], -np.inf), np.nextafter(c[-1], np.inf)],
                np.random.default_rng(c.size).uniform(c[0], c[-1], 8)))

        x, y = (a.ravel() for a in np.meshgrid(probes(gx), probes(gy)))
        expected = [blocks_reference(blocked, px, py)
                    for px, py in zip(x.tolist(), y.tolist())]
        assert any(expected) and not all(expected)
        assert blocked.mask(x, y).tolist() == expected
        assert grid.blocked_at(x, y).tolist() == [
            blocks_reference(BlockedRegions(grid=grid), px, py)
            for px, py in zip(x.tolist(), y.tolist())]

    def test_nearest_node_ties_go_to_the_lower_knot(self, land_grid):
        # nodes every 10 km, land at x = 30 km: an exact midpoint takes
        # the lower node, and the last node maps to itself
        assert BlockedRegions(grid=land_grid).mask(
            [25_000.0, 35_000.0, 50_000.0], [0.0, 0.0, 50_000.0]).tolist() == [
                False, True, False]


@st.composite
def screen_cases(draw):
    """Land on uneven knots, polygons (often concave or self-crossing)
    and segments between clear points; points on the quarter lattice
    fall on cell walls, grid corners and polygon vertices."""
    def knots():
        gaps = draw(st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0))
                             | st.floats(0.1, 3.0), min_size=1, max_size=5))
        return np.cumsum([0.0] + gaps)

    def coord(c):
        return (st.integers(0, int(c[-1] * 4)).map(lambda i: i / 4)
                | st.floats(0.0, float(c[-1])))

    xs, ys = knots(), knots()
    land = draw(st.lists(st.lists(st.sampled_from((False, False, True)),
                                  min_size=xs.size, max_size=xs.size),
                         min_size=ys.size, max_size=ys.size))
    point = st.tuples(coord(xs), coord(ys))
    polygons = tuple(tuple(draw(st.lists(point, min_size=3, max_size=7)))
                     for _ in range(draw(st.integers(0, 2))))
    blocked = BlockedRegions(grid=_still_grid(xs, ys, land),
                             polygons=polygons)
    segments = [(a, b) for a, b in draw(st.lists(st.tuples(point, point),
                                                  min_size=1, max_size=8))
                if a != b and not blocks_reference(blocked, *a)
                and not blocks_reference(blocked, *b)]
    assume(segments)
    return blocked, segments


def _on_knots(land, polygons=()):
    """Knots 0, 2, 4 on both axes: cell walls at 1 and 3."""
    return BlockedRegions(grid=_still_grid((0.0, 2.0, 4.0), (0.0, 2.0, 4.0),
                                           land), polygons=polygons)


_WATER = [[0, 0, 0]] * 3
_CENTER = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
_SQUARE = ((1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0))
# (blocked regions, segment, clear) on the boundaries of the one rule
BOUNDARY_CASES = [
    # along a cell wall it lies in the lower cell, as the wall's points
    # do: clear beside land above it, blocked beside land below it
    (_on_knots(_CENTER), ((1.0, 0.0), (1.0, 4.0)), True),
    (_on_knots([[0, 0, 0], [1, 0, 0], [0, 0, 0]]), ((1.0, 0.0), (1.0, 4.0)),
     False),
    (_on_knots(_CENTER), ((0.0, 1.0), (4.0, 1.0)), True),
    # through grid corners: land that only touches the corner is not
    # entered, land the segment goes on into is
    (_on_knots([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), ((0.0, 0.0), (4.0, 4.0)),
     True),
    (_on_knots([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), ((4.0, 0.0), (0.0, 4.0)),
     True),
    (_on_knots(_CENTER), ((0.0, 0.0), (4.0, 4.0)), False),
    # through a corner that rounding moves by 1e-15 of the segment
    # (strong-gyre's knots; the corner lies on the diagonal exactly)
    (BlockedRegions(grid=_still_grid(
        np.linspace(0.0, 120_000.0, 261)[40:71],
        np.linspace(0.0, 120_000.0, 261)[170:201],
        np.pad([[True]], ((11, 19), (12, 18))))),
     ((20_000.0, 80_000.0), (30_000.0, 90_000.0)), True),
    # axis-parallel, across a land cell
    (_on_knots(_CENTER), ((0.5, 2.5), (3.5, 2.5)), False),
    # touching a polygon vertex, or running along an edge, meets the
    # boundary; a chord between two clear boundary points has its
    # midpoint inside
    (_on_knots(_WATER, (((2.0, 2.0), (3.0, 3.5), (1.0, 3.5)),)),
     ((0.0, 2.0), (4.0, 2.0)), False),
    (_on_knots(_WATER, (_SQUARE,)), ((0.0, 3.0), (4.0, 3.0)), False),
    (_on_knots(_WATER, (_SQUARE,)), ((2.0, 3.0), (3.0, 2.0)), False),
]


def _boundary_examples(test):
    for blocked, segment, _ in BOUNDARY_CASES:
        test = example((blocked, [segment]))(test)
    return test


class TestExactScreen:
    """segments_clear against the scalar exact clip: a segment between
    clear points is blocked when it enters land's interior or meets a
    keep-out polygon."""

    @settings(max_examples=400, deadline=None)
    @given(screen_cases())
    @_boundary_examples
    def test_screen_matches_exact_oracle(self, case):
        blocked, segments = case
        assert segments_clear(blocked, segments) == [
            segment_clear_reference(blocked, *a, *b) for a, b in segments]

    @pytest.mark.parametrize("blocked, segment, clear", BOUNDARY_CASES)
    def test_boundary_cases_follow_the_stated_rule(self, blocked, segment,
                                                   clear):
        assert segments_clear(blocked, [segment]) == [clear]

    def test_a_leg_lies_in_the_cell_its_points_lie_in(self):
        # knots 0, 0.1, 0.3 with land around 0.1: the wall is the midpoint
        # 0.2, where 0.2 - 0.1 rounds above 0.3 - 0.2, yet the point x = 0.2
        # reads the knot 0.1 and is land, as a leg along x = 0.2 is; the
        # next float up is clear, and so is a leg along it
        grid = FlowGrid((0.0, 0.1, 0.3), (0.0, 1.0, 2.0), (0.0,), (0.0,),
                        np.where([[0, 1, 0]] * 3, -9999.0, 0.0)[None, None],
                        np.zeros((1, 1, 3, 3)))
        blocked = BlockedRegions(grid=grid)
        above = np.nextafter(0.2, 1.0)
        assert blocked.mask([0.2, 0.2, above], [0.5, 1.5, 1.0]).tolist() == [
            True, True, False]
        assert [blocks_reference(blocked, px, 1.0) for px in (0.2, above)] == [
            True, False]
        assert segments_clear(blocked, [((0.2, 0.5), (0.2, 1.5)),
                                        ((above, 0.5), (above, 1.5))]) == [
            False, True]
        assert not segment_clear_reference(blocked, 0.2, 0.5, 0.2, 1.5)
        assert segment_clear_reference(blocked, above, 0.5, above, 1.5)

    @settings(max_examples=300, deadline=None)
    @example([-1.0, 1.0])
    @example([0.0, 0.1, 0.3])
    @given(st.lists(st.floats(-1e300, 1e300) | st.integers(-50, 50).map(
        lambda k: k / 10.0), min_size=2, max_size=8, unique=True))
    def test_walls_sit_where_the_nearest_knot_switches(self, knots):
        coords = np.sort(np.array(knots, dtype=np.float64))
        w = BlockedRegions(grid=FlowGrid(
            coords, (0.0,), (0.0,), (0.0,),
            np.full((1, 1, 1, coords.size), -9999.0),
            np.zeros((1, 1, 1, coords.size)))).land_cells[0]
        # a knot within an ulp or two of both neighbours owns no float
        assume(np.all(np.diff(w) > 0))
        assert _nearest(coords, w).tolist() == list(range(coords.size - 1))
        assert _nearest(coords, np.nextafter(w, np.inf)).tolist() == list(
            range(1, coords.size))


class TestDijkstraStatic:
    def test_matches_scipy_on_random_static_graphs(self):
        rng = random.Random(42)
        for trial in range(25):
            n = rng.randint(4, 30)
            edges = []
            table = {}
            positions = [(rng.uniform(0, 100), rng.uniform(0, 100))
                         for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    if a != b and rng.random() < 0.15:
                        w = rng.uniform(1.0, 500.0)
                        edges.append((a, b))
                        table[(tuple(positions[a]), tuple(positions[b]))] = w
            graph = graph_from_edges(n, edges, positions)
            start, goal = 0, n - 1
            expected = static_shortest_time(
                n, [(a, b, table[(tuple(positions[a]), tuple(positions[b]))])
                    for a, b in edges], start, goal)
            path = tve_dijkstra(graph, start, goal, 0.0,
                                cost_from_table(table))
            if math.isinf(expected):
                assert path is None
            else:
                assert path is not None
                assert path.total_time == pytest.approx(expected, rel=1e-9)

    def test_start_equals_goal(self):
        graph = graph_from_edges(2, [(0, 1)])
        path = tve_dijkstra(graph, 0, 0, 5.0, cost_from_table({}))
        assert path is not None
        assert path.waypoints == [(0.0, 0.0)]
        assert path.arrival_times == [5.0]
        assert path.total_time == 0.0

    def test_unreachable_goal_returns_none(self):
        graph = graph_from_edges(3, [(0, 1)])
        assert tve_dijkstra(graph, 0, 2, 0.0, cost_from_table(
            {((0.0, 0.0), (1.0, 0.0)): 10.0})) is None

    def test_bad_indices_rejected(self):
        graph = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ConfigError):
            tve_dijkstra(graph, 0, 7, 0.0, cost_from_table({}))


def fifo_sine_cost(n, edges, seed, period=7200.0):
    """Smooth time-varying FIFO costs on integer-indexed edges.

    Slope of each cost never drops below -0.22, so arrival time is
    strictly increasing in departure time (FIFO holds).
    """
    rng = random.Random(seed)
    base = {e: rng.uniform(50.0, 500.0) for e in edges}
    phase = {e: rng.uniform(0.0, 2.0 * math.pi) for e in edges}

    def raw(a, b, t):
        if (a, b) not in base:
            return math.inf
        return base[(a, b)] * (
            1.0 + 0.5 * math.sin(2.0 * math.pi * t / period + phase[(a, b)]))

    return raw


class TestDijkstraTimeVarying:
    def test_matches_brute_force_under_fifo(self):
        rng = random.Random(7)
        for trial in range(12):
            n = rng.randint(4, 9)
            edges = set()
            for a in range(n):
                for b in range(n):
                    if a != b and rng.random() < 0.4:
                        edges.add((a, b))
            raw = fifo_sine_cost(n, edges, seed=100 + trial)
            graph = graph_from_edges(n, sorted(edges))
            index_of = {(float(i), 0.0): i for i in range(n)}

            def cost(a_xy, b_xy, t, raw=raw):
                return None, raw(index_of[a_xy], index_of[b_xy], t)

            out_edges = [[] for _ in range(n)]
            for a, b in edges:
                out_edges[a].append(b)
            t0 = rng.uniform(0.0, 7200.0)
            expected = brute_force_arrival(
                n, out_edges, lambda a, b, t, raw=raw: raw(a, b, t),
                0, n - 1, t0)
            path = tve_dijkstra(graph, 0, n - 1, t0, cost)
            if expected is None:
                assert path is None
                continue
            assert path is not None
            assert path.arrival_times[-1] == pytest.approx(expected[0],
                                                           rel=1e-12)
            assert path.fifo_violations == 0

    def test_arrival_chain_replays_exactly(self, gyre_grid):
        region = Rect(5_000.0, 5_000.0, 55_000.0, 55_000.0)
        graph = build_graph(region, 10_000.0, 16,
                            BlockedRegions(grid=gyre_grid))
        start, goal = connect_terminals(graph, (6_000.0, 6_000.0),
                                        (54_000.0, 54_000.0))
        cost = make_edge_cost(gyre_grid, V03, (DiveProfile(0.0, 60.0),),
                              h=0.5, n_sub=2, graph=graph)
        path = tve_dijkstra(graph, start, goal, 0.0, cost)
        assert path is not None
        assert path.arrival_times[0] == 0.0
        for i in range(len(path.waypoints) - 1):
            _, dt = cost(path.waypoints[i], path.waypoints[i + 1],
                         path.arrival_times[i])
            assert path.arrival_times[i] + dt == pytest.approx(
                path.arrival_times[i + 1], rel=1e-12)
        assert path.total_time == path.arrival_times[-1] - path.arrival_times[0]
        assert len(path.profiles) == len(path.waypoints) - 1
        assert all(p == DiveProfile(0.0, 60.0) for p in path.profiles)
        length = sum(math.dist(path.waypoints[i], path.waypoints[i + 1])
                     for i in range(len(path.waypoints) - 1))
        assert path.total_length == pytest.approx(length, rel=1e-12)

    def test_equal_arrival_tie_breaks_to_lower_index(self):
        # diamond 0 -> {1, 2} -> 3 with identical times on both routes
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        table = {
            ((0.0, 0.0), (1.0, 0.0)): 10.0,
            ((0.0, 0.0), (2.0, 0.0)): 10.0,
            ((1.0, 0.0), (3.0, 0.0)): 10.0,
            ((2.0, 0.0), (3.0, 0.0)): 10.0,
        }
        graph = graph_from_edges(4, edges)
        path = tve_dijkstra(graph, 0, 3, 0.0, cost_from_table(table))
        assert path.waypoints == [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]

    def test_edges_into_settled_vertices_are_never_timed(self):
        # 2 -> 1 jumps the clock backwards, but 1 settles before 2, so
        # the search never asks for it and keeps its answer
        edges = [(0, 1), (0, 2), (2, 1), (1, 3), (2, 3)]
        graph = graph_from_edges(4, edges)
        times = {(0, 1): 10.0, (0, 2): 20.0, (2, 1): -15.0, (1, 3): 100.0,
                 (2, 3): 100.0}
        calls = []

        def cost(a_xy, b_xy, t):
            calls.append((int(a_xy[0]), int(b_xy[0])))
            return None, times.get(calls[-1], math.inf)

        path = tve_dijkstra(graph, 0, 3, 0.0, cost)
        # every tail has settled by its first call, the start before all
        settled = {0}
        for a, b in calls:
            settled.add(a)
            assert b not in settled
        assert calls == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert path.waypoints == [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]
        assert path.arrival_times == [0.0, 10.0, 110.0]
        assert path.fifo_violations == 0

    def test_negative_leg_into_unsettled_vertex_is_no_fifo_witness(self):
        edges = [(0, 1), (0, 2), (1, 2), (2, 1), (2, 3)]
        graph = graph_from_edges(4, edges)
        table = {
            ((0.0, 0.0), (1.0, 0.0)): 10.0,
            ((0.0, 0.0), (2.0, 0.0)): 20.0,
            ((1.0, 0.0), (2.0, 0.0)): -5.0,
            ((2.0, 0.0), (1.0, 0.0)): 1.0,
            ((2.0, 0.0), (3.0, 0.0)): 10.0,
        }
        by_table = cost_from_table(table)

        def cost(a_xy, b_xy, t):
            # 2 settles at 5, after 1 settled at 10: only the settled
            # flag, not the label order, keeps 2 -> 1 from being timed
            assert (a_xy, b_xy) != ((2.0, 0.0), (1.0, 0.0))
            return by_table(a_xy, b_xy, t)

        path = tve_dijkstra(graph, 0, 3, 0.0, cost)
        # a leg at one departure witnesses nothing, and a cost without a
        # table has no witness
        assert path.fifo_violations == 0
        assert path.waypoints == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0),
                                  (3.0, 0.0)]
        assert path.arrival_times == [0.0, 10.0, 5.0, 15.0]
        assert path.vertices_settled == 4

    def test_fifo_witness_counts_later_departures_arriving_earlier(
            self, still_grid, monkeypatch):
        # seconds by (head x, departure); every leg leaves (0, 0)
        secs = {(1.0, 0.0): 100.0, (1.0, 50.0): 20.0, (1.0, 80.0): 30.0,
                (2.0, 0.0): 100.0, (2.0, 50.0): 60.0,
                (3.0, 0.0): math.inf, (3.0, 50.0): 10.0,
                (4.0, 0.0): -5.0}

        def kernel(tails, heads, departs, profiles, *args):
            return np.array([[secs[xy[0], t]] for xy, t in zip(
                heads, np.broadcast_to(departs, len(heads)).tolist())])

        monkeypatch.setattr(search_mod, "profile_times", kernel)
        cost = make_edge_cost(still_grid, V03, (DiveProfile(0.0, 60.0),))
        assert cost.fifo_witness() == 0
        for x, t in secs:
            cost((0.0, 0.0), (x, 0.0), t)
        # (1, 0): 70 s after leaving at 50 beats 100 s after leaving at
        # 0, once however many departures agree; (3, 0) opens at 50;
        # (2, 0) keeps its order, and (4, 0) has one departure
        assert cost.fifo_witness() == 2

    def test_fifo_witness_sees_a_fast_tidal_channel(self):
        # 0.4 m/s of tide reversing every 12 h against a 0.3 m/s glider:
        # legs open and close with the tide, and the prefetch times some
        # fan-outs at labels that later fall
        grid = make_tidal_grid(amplitude=0.4, period=43_200.0)
        graph = build_graph(Rect(0.0, 0.0, 100_000.0, 100_000.0), 10_000.0,
                            16, BlockedRegions(grid=grid))
        start, goal = connect_terminals(graph, (5_000.0, 50_000.0),
                                        (95_000.0, 50_000.0))
        cost = make_edge_cost(grid, V03, (DiveProfile(0.0, 100.0),), h=1.0,
                              n_sub=1, graph=graph)
        path = tve_dijkstra(graph, start, goal, 20_000.0, cost)
        assert path.fifo_violations == cost.fifo_witness() == 6

    def test_blocking_wall_makes_goal_unreachable(self):
        grid = make_land_grid(extent=50_000.0, n=6)
        blocked = BlockedRegions(grid=grid)
        graph = build_graph(Rect(0.0, 0.0, 50_000.0, 50_000.0), 5_000.0, 16,
                            blocked)
        start, goal = connect_terminals(graph, (5_000.0, 25_000.0),
                                        (45_000.0, 25_000.0))
        cost = make_edge_cost(grid, V03, (DiveProfile(0.0, 60.0,),),
                              h=1.0, n_sub=1, graph=graph)
        assert tve_dijkstra(graph, start, goal, 0.0, cost) is None

    def test_infeasible_departure_time(self, still_grid):
        graph = build_graph(Rect(0.0, 0.0, 20_000.0, 20_000.0), 10_000.0, 8,
                            BlockedRegions(grid=still_grid))
        start, goal = connect_terminals(graph, (1_000.0, 1_000.0),
                                        (19_000.0, 19_000.0))
        cost = make_edge_cost(still_grid, V03, (DiveProfile(0.0, 60.0),),
                              graph=graph)
        assert tve_dijkstra(graph, start, goal, math.inf, cost) is None


def random_mission(seed, field, neighbor_set):
    """A small lattice on a random or fast tidal field, and its terminals."""
    rng = np.random.RandomState(seed)
    if field == "tidal":
        # 0.4 m/s against a 0.3 m/s glider, reversing about once per
        # leg: legs open and close with the tide, and edge times are
        # not FIFO
        axis = np.linspace(0.0, 20_000.0, 5)
        grid = synth_field("tidal_channel", axis, axis, (0.0, 100.0),
                           np.linspace(0.0, 172_800.0, 97),
                           params={"amplitude": 0.4, "period": 43_200.0})
        scheme = InterpScheme()
    else:
        # land only under the 2-knot stencils: the 4-knot ones would
        # touch it from most of so small a lattice
        grid = random_grid(rng, 7, 7, 3, 6, scale=0.25,
                           land=field == "bilinear")
        scheme = {"bilinear": InterpScheme(),
                  "bicubic": InterpScheme("bicubic", "cubic", "cubic"),
                  "akima": InterpScheme("bicubic", "akima", "akima")}[field]
    x0, y0, x1, y1 = grid.horizontal_bounds()
    spacing = min(x1 - x0, y1 - y0) / rng.randint(3, 6)
    graph = build_graph(Rect(x0, y0, x1, y1), spacing, neighbor_set,
                        BlockedRegions(grid=grid))
    ends = [(rng.uniform(x0, x1), rng.uniform(y0, y1)) for _ in range(2)]
    start, goal = connect_terminals(graph, *ends)
    return grid, scheme, graph, start, goal


def plan_and_smooth(graph, start, goal, cost, t0):
    path = tve_dijkstra(graph, start, goal, t0, cost)
    if path is None or len(path.waypoints) < 3:
        return path, None
    return path, smooth_path(path.waypoints, t0, cost)


class CountingKernel:
    """Stands in for search.profile_times, recording each call's tails
    and lanes."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = []

    def __call__(self, tails, heads, departs, profiles, *args):
        out = self.kernel(tails, heads, departs, profiles, *args)
        self.calls.append(({tuple(xy) for xy in np.reshape(tails, (-1, 2))},
                           out.size))
        return out


class TestPrefetch:
    FAMILY = make_dive_profiles(ProfileFamilySpec(0.0, 20.0, 80.0, 40.0, 2, 2))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           field=st.sampled_from(["bilinear", "bicubic", "akima", "tidal"]),
           neighbor_set=st.sampled_from([8, 16]),
           mode=st.sampled_from(["fastest", "max_amplitude"]))
    @example(seed=399, field="bilinear", neighbor_set=8, mode="fastest")
    def test_same_paths_and_traces_as_one_vertex_at_a_time(
            self, seed, field, neighbor_set, mode):
        try:
            grid, scheme, graph, start, goal = random_mission(
                seed, field, neighbor_set)
        except ConfigError:  # a terminal on land or cut off
            assume(False)
        args = (grid, V03, self.FAMILY, 0.5, scheme, 1, mode, 1.1)
        t0 = float(seed % 7_200)
        # both costs screen smoothing's shortcuts against the graph (seed
        # 399 merges across land without the screen); one has no prefetch
        one_at_a_time = make_edge_cost(*args, graph=graph)
        del one_at_a_time.prefetch
        assert (plan_and_smooth(graph, start, goal,
                                make_edge_cost(*args, graph=graph), t0)
                == plan_and_smooth(graph, start, goal, one_at_a_time, t0))

    @pytest.mark.parametrize("seed,field", [(7, "bicubic"), (3, "akima"),
                                            (6, "tidal")])
    def test_mispredictions_change_nothing(self, seed, field, monkeypatch):
        # with max |c| understated as 0 the prefetch window is too wide:
        # some vertices are timed at a label that later falls, and are
        # timed again when they settle
        grid, scheme, graph, start, goal = random_mission(seed, field, 16)
        args = (grid, V03, self.FAMILY, 0.5, scheme, 1, "fastest", 1.1)
        kernel = CountingKernel(search_mod.profile_times)
        monkeypatch.setattr(search_mod, "profile_times", kernel)
        monkeypatch.setattr(FlowGrid, "max_speed", lambda self: 0.0)
        understated = make_edge_cost(*args, graph=graph)
        tve_dijkstra(graph, start, goal, 0.0, understated)
        timed = [xy for tails, _ in kernel.calls for xy in tails]
        assert len(timed) > len(set(timed))
        assert (plan_and_smooth(graph, start, goal, understated, 0.0)
                == plan_and_smooth(graph, start, goal, make_edge_cost(*args),
                                   0.0))

    @staticmethod
    def gyre_lattice():
        grid = make_gyre_grid()
        graph = build_graph(Rect(5_000.0, 5_000.0, 55_000.0, 55_000.0),
                            5_000.0, 16, BlockedRegions(grid=grid))
        start, goal = connect_terminals(graph, (6_000.0, 6_000.0),
                                        (54_000.0, 54_000.0))
        assert graph.n_vertices == 123
        return grid, graph, start, goal

    def test_search_batches_and_smoothing_rechains_for_free(self, monkeypatch):
        grid, graph, start, goal = self.gyre_lattice()
        kernel = CountingKernel(search_mod.profile_times)
        monkeypatch.setattr(search_mod, "profile_times", kernel)
        cost = make_edge_cost(grid, V03, self.FAMILY, 0.5, n_sub=2,
                              graph=graph)
        path = tve_dijkstra(graph, start, goal, 0.0, cost)
        assert len(kernel.calls) == 21  # 28 in Dijkstra's order
        kernel.calls.clear()
        assert recompute_arrivals(path.waypoints, 0.0, cost) == \
            path.arrival_times
        assert kernel.calls == []

    def traced_search(self, monkeypatch, grid, graph, start, goal):
        """Search with a prefetching cost, checking every kernel call as
        it is made; returns the legs timed and the legs read, as (tail,
        head, departure), the kernel calls and the settles whose vertex
        had no live head."""
        args = (grid, V03, self.FAMILY, 0.5)
        one_at_a_time = tve_dijkstra(graph, start, goal, 0.0,
                                     make_edge_cost(*args, n_sub=2))
        settled, idle, timed, reads = {}, [], [], []
        counting = CountingKernel(search_mod.profile_times)

        def kernel(tails, heads, departs, *rest):
            tails = list(map(tuple, np.reshape(tails, (-1, 2))))
            # each call leads with the fan-out of the vertex now settling
            # and times no head that has settled
            assert tails[0] == list(settled)[-1]
            assert set(settled).isdisjoint(heads)
            timed.extend(zip(tails, heads, np.reshape(departs, -1).tolist()))
            return counting(tails, heads, departs, *rest)

        monkeypatch.setattr(search_mod, "profile_times", kernel)
        cost = make_edge_cost(*args, n_sub=2, graph=graph)

        def read(a_xy, b_xy, depart):
            reads.append((a_xy, b_xy, depart))
            return cost(a_xy, b_xy, depart)

        def prefetch(a, depart, frontier, live):
            settled[graph.vertex_xy[a]] = depart
            if not live(a, depart):
                idle.append(a)
            cost.prefetch(a, depart, frontier, live)

        read.prefetch, read.speed_bound = prefetch, cost.speed_bound
        assert tve_dijkstra(graph, start, goal, 0.0, read) == one_at_a_time
        # each leg is timed once and read at most once; a leg goes unread
        # only when a label fell after its prefetch: its tail settles at
        # another departure, or its head settles before its tail
        assert len(set(timed)) == len(timed)
        assert len(set(reads)) == len(reads) and set(reads) <= set(timed)
        rank = {xy: k for k, xy in enumerate(settled)}
        assert all(settled.get(a) != depart
                   or rank.get(b, math.inf) < rank[a]
                   for a, b, depart in set(timed) - set(reads))
        return timed, reads, counting.calls, idle

    def test_search_times_only_the_legs_it_reads(self, monkeypatch):
        timed, reads, _, _ = self.traced_search(monkeypatch,
                                                *self.gyre_lattice())
        # fan-outs of every out-edge would time 1,602 legs here; 13 go
        # unread, as labels fell after their prefetch
        assert (len(timed), len(reads)) == (824, 811)

    def test_a_vertex_with_no_live_head_makes_no_kernel_call(self,
                                                            monkeypatch):
        grid = make_uniform_grid(u0=0.05, extent=50_000.0)
        graph = build_graph(Rect(0.0, 0.0, 50_000.0, 50_000.0), 5_000.0, 16,
                            BlockedRegions(grid=grid))
        start, goal = connect_terminals(graph, (1_000.0, 1_000.0),
                                        (49_000.0, 49_000.0))
        timed, reads, calls, idle = self.traced_search(monkeypatch, grid,
                                                       graph, start, goal)
        # the search heads for the goal: 32 of 123 vertices settle, and
        # 286 legs go unread, as labels fell after their prefetch
        assert (len(idle), len(calls), len(timed), len(reads)) == \
            (1, 9, 618, 332)

    @pytest.mark.parametrize("n_climb", [100, 3])
    def test_no_kernel_call_exceeds_the_lane_cap(self, n_climb, still_grid,
                                                 monkeypatch):
        family = make_dive_profiles(
            ProfileFamilySpec(0.0, 10.0, 1_000.0, 10.0, n_climb, 100))
        assert len(family) == {100: 9_901, 3: 298}[n_climb]

        def kernel(tails, heads, departs, profiles, *args):
            # lanes are counted, never flown: only the (H, P) result
            # is allocated
            return np.full((len(heads), len(profiles)), 600.0)

        counting = CountingKernel(kernel)
        monkeypatch.setattr(search_mod, "profile_times", counting)
        graph = build_graph(Rect(0.0, 0.0, 2_000.0, 2_000.0), 1_000.0, 16,
                            BlockedRegions(grid=still_grid))
        assert graph.n_vertices == 9
        cost = make_edge_cost(still_grid, V03, family, graph=graph)
        assert tve_dijkstra(graph, 0, 8, 0.0, cost) is not None
        # a fan-out is never split, so only a lone tail may pass the cap
        assert all(lanes <= MAX_BATCH_LANES or len(tails) == 1
                   for tails, lanes in counting.calls)
        widest = max(len(tails) for tails, _ in counting.calls)
        assert widest == (1 if n_climb == 100 else 2)


def overshooting_grid(rng, amplitude=0.1):
    """Knots in close pairs whose values flip sign from pair to pair, on
    every axis: Catmull-Rom and Akima overshoot the node speeds."""
    axes, signs = [], []
    for n, gap in ((8, 4_000.0), (7, 4_000.0), (5, 20.0), (6, 3_600.0)):
        gaps = gap * rng.uniform(0.5, 1.0, n - 1)
        gaps[1::2] *= 0.05
        axes.append(np.concatenate(([0.0], np.cumsum(gaps))))
        signs.append((-1.0) ** (np.arange(n) // 2))
    pattern = np.einsum("a,b,c,d->abcd", *signs[::-1])
    return FlowGrid(*axes, amplitude * pattern * rng.uniform(0.5, 1.0,
                                                             pattern.shape),
                    amplitude * pattern * rng.uniform(-1.0, 1.0,
                                                      pattern.shape))


SCHEMES = {"nearest": InterpScheme("nearest", "nearest", "nearest"),
           "bilinear": InterpScheme(),
           "bicubic": InterpScheme("bicubic", "cubic", "cubic"),
           "akima": InterpScheme("bicubic", "akima", "akima")}


class TestAStar:
    FAMILY = TestPrefetch.FAMILY

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           field=st.sampled_from(["bilinear", "bicubic", "akima", "tidal"]),
           neighbor_set=st.sampled_from([8, 16]),
           mode=st.sampled_from(["fastest", "max_amplitude"]))
    def test_arrival_equals_the_bound_less_search(self, seed, field,
                                                  neighbor_set, mode):
        try:
            grid, scheme, graph, start, goal = random_mission(
                seed, field, neighbor_set)
        except ConfigError:  # a terminal on land or cut off
            assume(False)
        args = (grid, V03, self.FAMILY, 0.5, scheme, 1, mode, 1.1)
        t0 = float(seed % 7_200)
        astar = tve_dijkstra(graph, start, goal, t0,
                             make_edge_cost(*args, graph=graph))
        plain = make_edge_cost(*args)
        dijkstra = tve_dijkstra(graph, start, goal, t0,
                                lambda a, b, t: plain(a, b, t))
        assert (astar is None) == (dijkstra is None)
        if astar is not None:
            assert abs(astar.arrival_times[-1]
                       - dijkstra.arrival_times[-1]) <= 1e-9
            assert astar.vertices_settled <= dijkstra.vertices_settled

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    @pytest.mark.parametrize("seed", range(3))
    def test_no_sample_or_leg_beats_the_bound(self, seed, scheme,
                                              monkeypatch):
        rng = np.random.RandomState(seed)
        grid = overshooting_grid(rng)
        bound = current_bound(grid, SCHEMES[scheme])
        x0, y0, x1, y1 = grid.horizontal_bounds()
        n = 20_000
        u, v, reason = sample_batch(
            grid, rng.uniform(x0, x1, n), rng.uniform(y0, y1, n),
            rng.uniform(0.0, grid.z_levels[-1], n),
            rng.uniform(0.0, grid.t_steps[-1], n), SCHEMES[scheme])
        speed = np.hypot(u, v)[reason == SAMPLE_OK]
        assert speed.max() <= bound
        assert (speed.max() > grid.max_speed()) == (scheme in ("bicubic",
                                                               "akima"))

        lanes, fly = [], search_mod.profile_times

        def kernel(tails, heads, *rest):
            out = fly(tails, heads, *rest)
            gap = np.subtract(heads, np.reshape(tails, (-1, 2)))
            lanes.append((np.hypot(gap[:, 0], gap[:, 1])[:, None], out))
            return out

        monkeypatch.setattr(search_mod, "profile_times", kernel)
        graph = build_graph(Rect(x0, y0, x1, y1), (x1 - x0) / 6, 16,
                            BlockedRegions(grid=grid))
        start, goal = connect_terminals(graph, (x0 + 10.0, y0 + 10.0),
                                        (x1 - 10.0, y1 - 10.0))
        cost = make_edge_cost(grid, V03, self.FAMILY, 0.5, SCHEMES[scheme],
                              n_sub=2, graph=graph)
        assert cost.speed_bound == V03.speed_through_water + bound
        tve_dijkstra(graph, start, goal, 0.0, cost)
        dist, secs = (np.concatenate(part) for part in zip(*lanes))
        flown = np.isfinite(secs)
        assert flown.sum() > 100
        assert (secs * cost.speed_bound >= dist)[flown].all()

    def test_catmull_rom_bound_is_nearly_attained(self):
        # tangents from close outer knots swing the spline past the two
        # inner nodes by almost half their value
        grid = FlowGrid([0.0, 1e-3, 1.0, 1.001], [0.0], [0.0], [0.0],
                        np.array([-1.0, 1.0, 1.0, -1.0]).reshape(1, 1, 1, 4),
                        np.zeros((1, 1, 1, 4)))
        scheme = SCHEMES["bicubic"]
        u, _, _ = sample_batch(grid, np.linspace(0.0, 1.001, 2_001), 0.0,
                               0.0, 0.0, scheme)
        assert current_bound(grid, scheme) == 1.5
        assert 1.49 < np.abs(u).max() <= 1.5


class TestBatchedSmoothing:
    FAMILY = TestPrefetch.FAMILY

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           field=st.sampled_from(["bilinear", "bicubic", "akima", "tidal"]),
           neighbor_set=st.sampled_from([8, 16]),
           mode=st.sampled_from(["fastest", "max_amplitude"]),
           walk=st.booleans(), searched=st.booleans())
    @example(seed=0, field="bilinear", neighbor_set=8, mode="fastest",
             walk=True, searched=False)  # a merge across land
    def test_same_smoothing_as_one_leg_per_call_in_no_more_calls(
            self, seed, field, neighbor_set, mode, walk, searched):
        try:
            grid, scheme, graph, start, goal = random_mission(
                seed, field, neighbor_set)
        except ConfigError:  # a terminal on land or cut off
            assume(False)
        args = (grid, V03, self.FAMILY, 0.5, scheme, 1, mode, 1.1)
        t0 = float(seed % 7_200)
        if walk:  # zig-zags whose merges cross land and meet every rejection
            rng, path = random.Random(seed), [start]
            for _ in range(rng.randint(2, 12)):
                heads = [b for b in graph.neighbors(path[-1])
                         if b not in path]
                if heads:
                    path.append(rng.choice(heads))
            waypoints = [graph.vertex_xy[v] for v in path]
        else:
            planned = tve_dijkstra(graph, start, goal, t0,
                                   make_edge_cost(*args, graph=graph))
            waypoints = [] if planned is None else planned.waypoints
        assume(len(waypoints) > 2)
        runs = []
        for batching in (True, False):
            cost = make_edge_cost(*args, graph=graph)
            if searched:  # smooth over the search's legs, as missions do
                tve_dijkstra(graph, start, goal, t0, cost)
            kernel = CountingKernel(search_mod.profile_times)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(search_mod, "profile_times", kernel)
                runs.append((smooth_path(waypoints, t0, cost if batching
                                         else lambda a, b, t: cost(a, b, t)),
                             len(kernel.calls)))
        (batched, batched_calls), (alone, alone_calls) = runs
        assert batched == alone
        assert batched_calls <= alone_calls

    def test_time_legs_times_the_first_miss_with_later_misses(
            self, still_grid, monkeypatch):
        family = make_dive_profiles(
            ProfileFamilySpec(0.0, 10.0, 1_000.0, 10.0, 3, 100))
        assert MAX_BATCH_LANES // len(family) == 13
        counting = CountingKernel(
            lambda tails, heads, departs, profiles, *args:
            np.full((len(heads), len(profiles)), 600.0))
        monkeypatch.setattr(search_mod, "profile_times", counting)
        cost = make_edge_cost(still_grid, V03, family)
        legs = [((0.0, 0.0), (100.0 * k, 50.0), 0.0) for k in range(1, 31)]
        cost.time_legs(legs[:1] + legs)  # a repeat is timed once
        assert counting.calls == [({(0.0, 0.0)}, 13 * len(family))]
        assert [cost.lookup(*leg) is not None for leg in legs] == \
            [True] * 13 + [False] * 17
        cost.time_legs(legs)  # the first leg is held: no call
        cost(*legs[5])
        assert len(counting.calls) == 1
        cost.time_legs(legs[20:] + legs)  # skips the 13 held legs
        assert counting.calls[1] == ({(0.0, 0.0)}, 13 * len(family))
        assert sum(cost.lookup(*leg) is not None for leg in legs) == 26

    def test_time_legs_over_the_cap_times_the_first_leg_alone(
            self, still_grid, monkeypatch):
        family = make_dive_profiles(
            ProfileFamilySpec(0.0, 10.0, 1_000.0, 10.0, 100, 100))
        counting = CountingKernel(
            lambda tails, heads, departs, profiles, *args:
            np.full((len(heads), len(profiles)), 600.0))
        monkeypatch.setattr(search_mod, "profile_times", counting)
        cost = make_edge_cost(still_grid, V03, family)
        cost.time_legs([((0.0, 0.0), (100.0, 0.0), 0.0),
                        ((0.0, 0.0), (200.0, 0.0), 0.0)])
        assert counting.calls == [({(0.0, 0.0)}, len(family))]


class TestLegScreen:
    """With a graph, the leg table screens every leg it is asked to time
    against the graph's land and keep-out polygons, once per (tail,
    head), and stores a blocked leg as infeasible without timing it."""

    FAMILY = TestPrefetch.FAMILY
    KEEP_OUT = ((12_000.0, 22_000.0), (18_000.0, 22_000.0),
                (18_000.0, 28_000.0), (12_000.0, 28_000.0))
    # make_land_grid's land fills the cells with 25 km < x <= 35 km
    LAND = ((20_000.0, 5_000.0), (40_000.0, 5_000.0))
    POLYGON = ((10_000.0, 25_000.0), (20_000.0, 25_000.0))
    OPEN = ((5_000.0, 5_000.0), (15_000.0, 15_000.0))

    @pytest.fixture
    def counted(self, monkeypatch):
        """(kernel, screen): the kernel calls and screen calls made."""
        kernel = CountingKernel(search_mod.profile_times)
        screens = []
        screen = search_mod._segments_clear

        def counting(blocked, *ends):
            screens.append(ends[0].size)
            return screen(blocked, *ends)

        monkeypatch.setattr(search_mod, "profile_times", kernel)
        monkeypatch.setattr(search_mod, "_segments_clear", counting)
        return kernel.calls, screens

    @pytest.fixture(scope="class")
    def graph(self):
        blocked = BlockedRegions(grid=make_land_grid(),
                                 polygons=(self.KEEP_OUT,))
        return build_graph(Rect(0.0, 0.0, 50_000.0, 50_000.0), 10_000.0, 8,
                           blocked)

    def make_cost(self, graph):
        return make_edge_cost(make_land_grid(), V03, self.FAMILY, 0.5,
                              graph=graph)

    @pytest.mark.parametrize("leg", ["LAND", "POLYGON"])
    def test_a_blocked_leg_reads_infeasible_without_a_kernel_call(
            self, leg, graph, counted):
        kernel, _ = counted
        cost, (a, b) = self.make_cost(graph), getattr(self, leg)
        assert cost(a, b, 0.0) == (None, INFEASIBLE)
        cost.time_legs([(a, b, 600.0)])
        assert cost.lookup(a, b, 600.0) == (None, INFEASIBLE)
        assert kernel == []
        assert cost(*self.OPEN, 0.0)[1] < INFEASIBLE
        assert len(kernel) == 1

    def test_a_batch_led_by_a_blocked_leg_makes_no_kernel_call(
            self, graph, counted):
        kernel, screens = counted
        cost = self.make_cost(graph)
        cost.time_legs([(*self.LAND, 0.0), (*self.OPEN, 0.0),
                        (*self.POLYGON, 0.0)])
        assert screens == [3]  # the offered legs in one call
        assert kernel == []
        assert cost.lookup(*self.LAND, 0.0) == (None, INFEASIBLE)
        assert cost.lookup(*self.POLYGON, 0.0) == (None, INFEASIBLE)
        assert cost.lookup(*self.OPEN, 0.0) is None
        cost.time_legs([(*self.OPEN, 0.0), (*self.LAND, 600.0)])
        assert screens == [3] and len(kernel) == 1

    def test_a_leg_is_screened_once_and_only_with_a_graph(self, graph,
                                                          counted):
        _, screens = counted
        cost = self.make_cost(graph)
        for depart in (0.0, 600.0, 0.0):
            assert cost(*self.LAND, depart) == (None, INFEASIBLE)
        assert screens == [1]
        cost = self.make_cost(None)
        cost(*self.LAND, 0.0)
        cost.time_legs([(*self.POLYGON, 0.0)])
        assert screens == [1]


class TestPathReport:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_one_scalar_sample_per_leg(self, seed):
        rng = np.random.RandomState(seed)
        grid = random_grid(rng, 7, 6, 3, 4, scale=0.4)
        scheme = [InterpScheme(), InterpScheme("bicubic", "akima", "akima"),
                  InterpScheme("nearest", "cubic", "nearest")][seed % 3]
        x0, y0, x1, y1 = grid.horizontal_bounds()
        # some waypoints off the grid or by its land column, departures
        # before and after the time axis
        n = rng.randint(2, 12)
        wp = list(zip(rng.uniform(x0 - 500.0, x1 + 500.0, n).tolist(),
                      rng.uniform(y0 - 500.0, y1 + 500.0, n).tolist()))
        t = np.sort(rng.uniform(0.0, 1.2 * grid.t_steps[-1], n)).tolist()
        profiles = [None if rng.rand() < 0.3 else
                    DiveProfile(*sorted(rng.uniform(0.0, 60.0, 2).tolist()))
                    for _ in range(n - 1)]
        from gliderplan.search import PlannedPath
        path = PlannedPath(wp, t, profiles)
        depth = None if seed % 2 else 12.5
        # repr tells NaN fields apart and compares the others exactly
        assert repr(path_report(path, grid, V03, scheme, depth)) == repr(
            path_report_reference(path, grid, V03, scheme, depth))

    def make_path(self, grid, u0):
        from gliderplan.search import PlannedPath
        return PlannedPath(
            waypoints=[(10_000.0, 10_000.0), (20_000.0, 10_000.0),
                       (20_000.0, 20_000.0)],
            arrival_times=[0.0, 40_000.0, 90_000.0],
            profiles=[DiveProfile(0.0, 60.0), DiveProfile(0.0, 60.0)])

    def test_uniform_eastward_current(self):
        grid = make_uniform_grid(u0=0.1)
        path = self.make_path(grid, 0.1)
        report = path_report(path, grid, V03)
        assert len(report) == 2
        east_leg = report[0]
        assert east_leg.u == pytest.approx(0.1, abs=1e-12)
        assert east_leg.v == pytest.approx(0.0, abs=1e-12)
        assert east_leg.psi_deg == pytest.approx(0.0, abs=1e-9)
        assert east_leg.depth == pytest.approx(30.0)  # band midpoint
        assert not east_leg.zero_current
        assert not east_leg.follows_current  # slower than the vehicle
        north_leg = report[1]
        assert north_leg.psi_deg == pytest.approx(-90.0, abs=1e-9)

    def test_strong_current_sets_follow_flag(self):
        grid = make_uniform_grid(u0=0.4)
        report = path_report(self.make_path(grid, 0.4), grid, V03)
        assert report[0].follows_current          # aligned and faster
        assert not report[1].follows_current      # perpendicular

    def test_zero_current_flag(self, still_grid):
        report = path_report(self.make_path(still_grid, 0.0), still_grid,
                             V03)
        assert report[0].zero_current
        assert report[0].psi_deg == 0.0
        assert report[0].magnitude == 0.0

    def test_explicit_depth_overrides_band(self):
        grid = make_uniform_grid(u0=0.1)
        report = path_report(self.make_path(grid, 0.1), grid, V03,
                             depth=55.0)
        assert report[0].depth == 55.0

    def test_unsampleable_leg_marked(self):
        grid = make_land_grid()
        from gliderplan.search import PlannedPath
        land_x = float(grid.x_coords[3])
        path = PlannedPath(
            waypoints=[(land_x, 1_000.0), (land_x, 9_000.0)],
            arrival_times=[0.0, 1_000.0],
            profiles=[None])
        report = path_report(path, grid, V03)
        assert not report[0].sampled
        assert math.isnan(report[0].u)
