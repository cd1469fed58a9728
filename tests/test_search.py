"""Lattice construction, terminal insertion, and earliest-arrival search."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gliderplan.search as search_mod
from gliderplan.errors import ConfigError
from gliderplan.flowfield import FlowGrid, InterpScheme, synth_field
from gliderplan.kinematics import (DiveProfile, ProfileFamilySpec, VehicleSpec,
                                   make_dive_profiles)
from gliderplan.search import (MAX_BATCH_LANES, NEIGHBOR_OFFSETS_8,
                               NEIGHBOR_OFFSETS_16, BlockedRegions, Rect,
                               SearchGraph, build_graph, connect_terminals,
                               make_edge_cost, path_report, tve_dijkstra)
from gliderplan.smoothing import recompute_arrivals, smooth_path

from conftest import (make_gyre_grid, make_land_grid, make_uniform_grid,
                      random_grid)
from oracles import brute_force_arrival, static_shortest_time

V03 = VehicleSpec(0.3)


def graph_from_edges(n, edges, positions=None):
    """Hand-built SearchGraph for synthetic-cost searches."""
    if positions is None:
        positions = [(float(i), 0.0) for i in range(n)]
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        ax, ay = positions[a]
        bx, by = positions[b]
        adjacency[a].append((b, math.hypot(bx - ax, by - ay)))
    return SearchGraph(list(positions), adjacency, spacing=1.0,
                       neighbor_set=8, region=Rect(0, 0, 1, 1),
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
        for a, nbrs in enumerate(graph.adjacency):
            ax, ay = graph.vertex_xy[a]
            for b, length in nbrs:
                bx, by = graph.vertex_xy[b]
                assert length == pytest.approx(math.hypot(bx - ax, by - ay),
                                               rel=1e-12)
                seen[(a, b)] = length
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
        land_x = float(grid.x_coords[3])
        for x, y in graph.vertex_xy:
            assert not blocked.blocks(x, y)
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
        assert blocked.blocks(15.0, 15.0)
        assert not blocked.blocks(5.0, 5.0)
        assert not blocked.blocks(25.0, 15.0)

    def test_concave_polygon_even_odd(self):
        # a U shape: the notch between the arms is outside
        poly = ((0.0, 0.0), (30.0, 0.0), (30.0, 30.0), (20.0, 30.0),
                (20.0, 10.0), (10.0, 10.0), (10.0, 30.0), (0.0, 30.0))
        blocked = BlockedRegions(polygons=(poly,))
        assert blocked.blocks(5.0, 15.0)       # left arm
        assert blocked.blocks(25.0, 15.0)      # right arm
        assert not blocked.blocks(15.0, 20.0)  # notch

    def test_outside_flow_domain_blocks(self, still_grid):
        blocked = BlockedRegions(grid=still_grid)
        assert blocked.blocks(-1.0, 50.0)
        assert blocked.blocks(50.0, 1e9)
        assert not blocked.blocks(50_000.0, 50_000.0)


class TestConnectTerminals:
    def test_open_water_gets_k_links(self):
        graph = build_graph(Rect(0.0, 0.0, 4000.0, 4000.0), 1000.0, 8)
        start, goal = connect_terminals(graph, (1500.0, 1500.0),
                                        (3100.0, 2600.0), k=8)
        assert start == graph.lattice_size
        assert goal == graph.lattice_size + 1
        assert len(graph.adjacency[start]) == 8
        assert len(graph.adjacency[goal]) == 8
        # links are bidirectional
        for b, length in graph.adjacency[start]:
            assert (start, length) in [(i, l) for i, l in graph.adjacency[b]]

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

    def test_negative_duration_counts_fifo_violation(self):
        # a cost that jumps the clock backwards can beat a settled label;
        # the search keeps its answer but reports the violation
        edges = [(0, 1), (0, 2), (2, 1), (1, 3), (2, 3)]
        graph = graph_from_edges(4, edges)

        def cost(a_xy, b_xy, t):
            key = (int(a_xy[0]), int(b_xy[0]))
            if key == (0, 1):
                return None, 10.0
            if key == (0, 2):
                return None, 20.0
            if key == (2, 1):
                return None, -15.0
            if key == (1, 3):
                return None, 100.0
            if key == (2, 3):
                return None, 100.0
            return None, math.inf

        path = tve_dijkstra(graph, 0, 3, 0.0, cost)
        assert path is not None
        assert path.fifo_violations == 1
        assert path.arrival_times[-1] == pytest.approx(110.0)

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
    def test_same_paths_and_traces_as_one_vertex_at_a_time(
            self, seed, field, neighbor_set, mode):
        try:
            grid, scheme, graph, start, goal = random_mission(
                seed, field, neighbor_set)
        except ConfigError:  # a terminal on land or cut off
            assume(False)
        args = (grid, V03, self.FAMILY, 0.5, scheme, 1, mode, 1.1)
        t0 = float(seed % 7_200)
        assert (plan_and_smooth(graph, start, goal,
                                make_edge_cost(*args, graph=graph), t0)
                == plan_and_smooth(graph, start, goal,
                                   make_edge_cost(*args), t0))

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

    def test_search_batches_and_smoothing_rechains_for_free(self, monkeypatch):
        grid = make_gyre_grid()
        graph = build_graph(Rect(5_000.0, 5_000.0, 55_000.0, 55_000.0),
                            5_000.0, 16, BlockedRegions(grid=grid))
        start, goal = connect_terminals(graph, (6_000.0, 6_000.0),
                                        (54_000.0, 54_000.0))
        kernel = CountingKernel(search_mod.profile_times)
        monkeypatch.setattr(search_mod, "profile_times", kernel)
        cost = make_edge_cost(grid, V03, self.FAMILY, 0.5, n_sub=2,
                              graph=graph)
        path = tve_dijkstra(graph, start, goal, 0.0, cost)
        assert len(kernel.calls) == 28
        kernel.calls.clear()
        assert recompute_arrivals(path.waypoints, 0.0, cost) == \
            path.arrival_times
        assert kernel.calls == []

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


class TestPathReport:
    def make_path(self, grid, u0):
        from gliderplan.search import PlannedPath
        return PlannedPath(
            waypoints=[(10_000.0, 10_000.0), (20_000.0, 10_000.0),
                       (20_000.0, 20_000.0)],
            arrival_times=[0.0, 40_000.0, 90_000.0],
            profiles=[DiveProfile(0.0, 60.0), DiveProfile(0.0, 60.0)],
            total_time=90_000.0, total_length=20_000.0)

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
            profiles=[None], total_time=1_000.0, total_length=8_000.0)
        report = path_report(path, grid, V03)
        assert not report[0].sampled
        assert math.isnan(report[0].u)
