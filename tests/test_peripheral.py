import json
import random

import pytest

from raagout.errors import CapabilityError, DomainError
from raagout.families import diamond_chain, four_path, four_path_classes
from raagout.graphs import DefiningGraph, bits, compress_mask, mask_of
from raagout.load import build_pair
from raagout import orders
from raagout.peripheral import (
	PeripheralPair,
	cone_graph,
	fast_periphery,
	induced,
	is_invariant,
	saturate,
	saturation,
)

from helpers import (
	auto_tree_nodes,
	brute_invariant,
	checked_saturate,
	connected_graphs_upto_iso,
	graph_from_edges,
	random_peripheral,
	split_twin_members,
	twin_blowup,
)


def path3():
	return DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def free2():
	return DefiningGraph(["u", "v"], [])


def normalized(graph, g=(), h=()):
	return PeripheralPair(graph, g, h)


def joined(pp, extra):
	"""pp with the masks in extra joined into G, built by the constructor."""
	return PeripheralPair(pp.graph, pp.g_members + tuple(extra), pp.h_members)


def names_of(graph, masks):
	return sorted(sorted(graph.names(m)) for m in masks)


# ---- construction and normalization ----


def test_json_roundtrip():
	g = path3()
	pp = PeripheralPair(g, [g.mask(["a", "b"])], [g.mask(["a", "b"])])
	obj = json.loads(json.dumps(pp.to_json_obj()))
	back = build_pair(obj, g)
	assert back.g_members == pp.g_members
	assert back.h_members == pp.h_members


def test_full_member_rejected():
	g = path3()
	with pytest.raises(DomainError):
		PeripheralPair(g, [g.full], [])
	with pytest.raises(DomainError):
		PeripheralPair(g, [], [g.full])


def test_members_dedup_and_sort():
	g = path3()
	a = g.mask(["a"])
	ab = g.mask(["a", "b"])
	pp = PeripheralPair(g, [ab, a, ab, 0], [])
	assert pp.g_members == (a, ab)


def test_normalize_weak():
	# the constructor folds H into G: each member and its one-vertex-deleted subsets
	g = DefiningGraph(["a", "b", "c", "d"], [])
	m = g.mask(["a", "b", "c"])
	pp = PeripheralPair(g, [], [m])
	assert names_of(g, pp.g_members) == [
		["a", "b"],
		["a", "b", "c"],
		["a", "c"],
		["b", "c"],
	]
	# H itself is untouched
	assert pp.h_members == (m,)


def test_derived_pairs_refuse_a_full_extra():
	g = path3()
	pp = normalized(g)
	with pytest.raises(DomainError, match="proper subgraphs"):
		pp.adding_h([g.full])


def test_derived_pairs_pass_h_through():
	# H was checked where the pair entered; saturation hands the same
	# tuple on rather than cleaning it again
	g = diamond_chain(2)
	pp = PeripheralPair(g, [g.mask(["a1"])], [g.mask(["c0"]), g.mask(["c2"])])
	for derived in (saturation(pp), saturate(pp)):
		assert derived.h_members is pp.h_members


# ---- invariance ----


def test_invariance_path():
	g = path3()
	pp = normalized(g)
	assert is_invariant(pp, g.mask(["b"]))
	# a <= c, so anything holding a without c fails upward closure
	assert not is_invariant(pp, g.mask(["a", "b"]))
	assert not is_invariant(pp, g.mask(["b", "c"]))
	assert not is_invariant(pp, g.mask(["a", "c"]))
	assert not is_invariant(pp, g.mask(["a"]))


def test_invariance_respects_members():
	# the member through a and not c withdraws the transvection onto c
	g = path3()
	pp = normalized(g, g=[g.mask(["a", "b"])])
	assert is_invariant(pp, g.mask(["a", "b"]))


def test_invariance_star_separation():
	# two components of the complement of st(b) both meeting the candidate
	g = DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
	pp = normalized(g)
	assert not is_invariant(pp, g.mask(["a", "c"]))
	g2 = DefiningGraph(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])
	pp2 = normalized(g2)
	assert not is_invariant(pp2, g2.mask(["a", "d"]))


def test_invariance_diamond_chain():
	g = diamond_chain(2)
	pp = normalized(g)
	assert is_invariant(pp, g.mask(["c1", "a2", "b2", "c2"]))
	assert is_invariant(pp, g.mask(["c0", "a1", "b1", "c1"]))
	assert not is_invariant(pp, g.mask(["c0"]))


def test_members_with_two_vertices_invariant():
	# a relative component holding at least two vertices is preserved
	rng = random.Random(7)
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		for _ in range(10):
			glist, hlist = random_peripheral(g, rng)
			pp = PeripheralPair(g, glist, hlist)
			for comp in orders.g_components(g, pp.g_members, g.full):
				if comp.bit_count() >= 2 and comp != g.full:
					assert is_invariant(pp, comp)


def test_invariance_closed_under_intersection():
	rng = random.Random(11)
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		pp = normalized(g)
		invariant = [m for m in range(1, g.full) if brute_invariant(pp, m)]
		for m1 in invariant:
			for m2 in invariant:
				meet = m1 & m2
				if meet and meet != g.full:
					assert brute_invariant(pp, meet)


def test_upward_cones_invariant_absolute():
	for edges in connected_graphs_upto_iso(5):
		g = graph_from_edges(5, edges)
		pp = normalized(g)
		for v in range(g.n):
			cone = 1 << v
			for w in range(g.n):
				if w != v and g.dominates(v, w):
					cone |= 1 << w
			if cone != g.full:
				assert is_invariant(pp, cone)


# ---- saturation ----


def test_saturate_path():
	pp = normalized(path3())
	sat = checked_saturate(pp)
	assert sat.saturated
	# only <b> survives: a <= b, a <= c and c <= a, c <= b kill every
	# other candidate on upward closure
	assert names_of(pp.graph, sat.g_members) == [["b"]]


def test_saturate_free_group():
	pp = normalized(free2())
	sat = checked_saturate(pp)
	assert sat.g_members == ()


def test_saturate_keeps_existing_members():
	g = path3()
	pp = normalized(g, g=[g.mask(["a", "b"])])
	sat = checked_saturate(pp)
	assert g.mask(["a", "b"]) in sat.g_members


def test_saturate_idempotent():
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		sat = saturate(normalized(g))
		again = saturate(sat)
		assert set(again.g_members) == set(sat.g_members)


def _saturate_cases():
	"""Random pairs on random graphs, then on twin blow-ups of at most 8 vertices.

	Members of the blow-ups mostly hold one twin and not another, so the
	tables twins share in the member-free index are cut or glued for one
	of them only.
	"""
	rng = random.Random(2031)
	for trial in range(300):
		n = rng.randrange(1, 8)
		full = (1 << n) - 1
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		density = rng.random()
		g = graph_from_edges(n, [e for e in pairs if rng.random() < density])
		glist = [rng.randrange(1, full) for _ in range(rng.randrange(5))] if n > 1 else []
		yield g, glist, [m for m in glist if rng.random() < 0.5]
	rng = random.Random(2039)
	for trial in range(100):
		g, groups = twin_blowup(rng, max_n=8)
		glist = split_twin_members(rng, g, groups, rng.randrange(5))
		yield g, glist, [m for m in glist if rng.random() < 0.5]


def test_saturate_matches_every_proper_mask_checked():
	for g, glist, hlist in _saturate_cases():
		full = g.full
		pp = PeripheralPair(g, glist, hlist)
		invariant = {m for m in range(1, full) if brute_invariant(pp, m)}
		assert {m for m in range(1, full) if is_invariant(pp, m)} == invariant
		sat = checked_saturate(pp)
		assert set(sat.g_members) == set(pp.g_members) | invariant
		assert sat.index is pp.index
		# the closure is the least invariant superset: the intersection of
		# the brute-force invariant sets holding the mask, else everything
		for m in range(1, full):
			least = full
			for s in invariant:
				if s & m == m:
					least &= s
			assert pp.index.closure(m) == least


def index_invariant(index, m):
	"""The invariance rule read off rows and gv, with no closure.

	m is an up-set of the order, and for every x outside, its part away
	from st(x) meets at most one G^x-component.
	"""
	if any(index.rows[u] & ~m for u in bits(m)):
		return False
	return all(
		sum(1 for c in index.gv[x] if c & m) <= 1 for x in bits(index.graph.full & ~m)
	)


def test_closures_on_tree_indexes_are_least_invariant_supersets():
	# the kernel indexes of an auto tree are refined, the image indexes
	# built from closures; on each, a closure is the intersection of the
	# invariant sets holding the mask, and on small graphs those sets are
	# the brute-force ones of the listed members
	rng = random.Random(7)
	checked = large = 0
	for node in auto_tree_nodes():
		d = node.pair
		graph, index = d.graph, d.index
		full = graph.full
		pairs = [(1 << u) | (1 << v) for u in range(graph.n) for v in range(u, graph.n)]
		if graph.n > 10:
			# too many sets to list, but these are the kernel chains that
			# carry the most closures: against a fresh build of the listed G
			fresh = orders.PairIndex(graph, d.g_members)
			for m in pairs:
				assert index.closure(m) == fresh.closure(m)
			large += 1
			continue
		invariant = [s for s in range(1, full) if index_invariant(index, s)]
		if graph.n <= 6:
			assert invariant == [s for s in range(1, full) if brute_invariant(d, s)]
		for m in pairs + [rng.randrange(1, full + 1) for _ in range(10)]:
			least = full
			for s in invariant:
				if s & m == m:
					least &= s
			assert index.closure(m) == least
		checked += 1
	assert checked > 900 and large > 10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_saturate_counts_diamond_chain(d):
	sat = saturate(normalized(diamond_chain(d)))
	assert len(sat.g_members) == 8 * d * d - 4 * d - 6


def test_saturate_counts_four_path():
	g = four_path(1, 1, 1, 1)
	sat = saturate(normalized(g))
	assert names_of(g, sat.g_members) == [
		["w1", "x1", "y1"],
		["x1"],
		["x1", "y1"],
		["x1", "y1", "z1"],
		["y1"],
	]
	# the same five on larger classes, up to the 19 vertices of the
	# benchmark's shape: the two middle cliques, their union, and that
	# union with either free end class
	for sizes in ((2, 3, 2, 3), (5, 5, 4, 5)):
		g = four_path(*sizes)
		w, x, y, z = four_path_classes(*sizes)
		sat = saturate(normalized(g))
		assert names_of(g, sat.g_members) == sorted(
			sorted(m) for m in (x, y, x + y, w + x + y, x + y + z)
		)


def test_saturate_cap():
	g = DefiningGraph(["v%d" % i for i in range(21)], [])
	with pytest.raises(CapabilityError):
		saturate(normalized(g))


def test_saturation_lists_members_on_first_read():
	for d in (2, 3):
		pp = normalized(diamond_chain(d))
		lazy = saturation(pp)
		assert lazy.saturated and lazy.index is pp.index and lazy._g_members is None
		assert lazy.g_members == saturate(pp).g_members
	# the cap guards the listing, not the pair or its closures
	pp = normalized(diamond_chain(7))
	big = saturation(pp)
	closures = {big.index.closure(1 << v) for v in range(pp.graph.n)} - {pp.graph.full}
	assert closures and all(brute_invariant(pp, m) for m in closures)
	with pytest.raises(CapabilityError):
		big.g_members


# ---- induced pairs ----


def test_induced_drops_full_and_empty():
	g = path3()
	d = g.mask(["a", "b"])
	pp = normalized(g, g=[d, g.mask(["c"])])
	sub = induced(pp, d)
	assert sub.graph.vertices == ("a", "b")
	assert sub.g_members == ()


def test_induced_cuts_members():
	g = diamond_chain(2)
	b = g.mask(["c1", "a2", "b2", "c2"])
	a1 = g.mask(["c0", "a1", "b1", "c1"])
	sub = induced(normalized(g, g=[b, a1]), b)
	assert names_of(sub.graph, sub.g_members) == [["c1"]]
	# adjacency carried over: the induced graph is the top diamond
	assert sub.graph.vertices == ("c1", "a2", "b2", "c2")
	c1 = sub.graph.index["c1"]
	assert sub.graph.adj[c1] == sub.graph.mask(["a2", "b2"])


# ---- fast periphery ----


def test_fast_periphery_needs_an_invariant_target():
	# a lies below b in the order, so <a> is not invariant; <b> is, and
	# it need not be a member of G
	g = path3()
	pp = normalized(g)
	with pytest.raises(DomainError, match="^target is not invariant for this pair$"):
		fast_periphery(pp, g.mask(["a"]))
	with pytest.raises(DomainError, match="^peripheral members must be proper subgraphs$"):
		fast_periphery(pp, g.full)
	with pytest.raises(DomainError, match="nonempty"):
		fast_periphery(pp, 0)
	assert g.mask(["b"]) not in pp.g_members
	assert fast_periphery(pp, g.mask(["b"])) == ()


def test_fast_periphery_asks_no_membership():
	# an invariant target outside G gives the periphery it gives once joined to G
	rng = random.Random(23)
	checked = 0
	for _ in range(60):
		n = rng.randrange(2, 7)
		density = rng.random()
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		g = graph_from_edges(n, [e for e in pairs if rng.random() < density])
		pp = PeripheralPair(g, *random_peripheral(g, rng))
		for d in range(1, g.full):
			if is_invariant(pp, d):
				assert fast_periphery(pp, d) == fast_periphery(joined(pp, [d]), d), (
					g.to_json_obj(),
					pp.to_json_obj(),
					d,
				)
				checked += d not in pp.g_members
	assert checked > 100


@pytest.mark.parametrize("d", [2, 3])
def test_fast_periphery_diamond_top(d):
	g = diamond_chain(d)
	top = ["c%d" % (d - 1), "a%d" % d, "b%d" % d, "c%d" % d]
	b = g.mask(top)
	pp = joined(normalized(g), [b])
	assert names_of(g, fast_periphery(pp, b)) == [["c%d" % (d - 1)]]


def test_fast_periphery_star_with_handle():
	# a four-leaf star; two leaves carry an outside handle, which makes
	# their pair relatively connected away from the star
	g = DefiningGraph(
		["v", "w", "x", "y", "z", "p", "q"],
		[
			["w", "v"],
			["w", "x"],
			["w", "y"],
			["w", "z"],
			["x", "p"],
			["y", "q"],
			["p", "q"],
		],
	)
	d = g.mask(["v", "w", "x", "y", "z"])
	pp = normalized(g)
	assert is_invariant(pp, d)
	per = fast_periphery(joined(pp, [d]), d)
	assert names_of(g, per) == [["x"], ["x", "y"], ["y"]]


def test_fast_periphery_members_invariant():
	# every reported peripheral subgroup is itself invariant
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		pp = normalized(g)
		for d in range(1, g.full):
			if not is_invariant(pp, d):
				continue
			for m in fast_periphery(joined(pp, [d]), d):
				assert is_invariant(joined(pp, [d]), m)


# ---- cone graphs ----


def test_cone_graph_free3():
	g = DefiningGraph(["x", "y", "z"], [])
	cg = cone_graph(g, [g.mask(["x", "y"])])
	assert cg.vertices == ("x", "y", "z", "@0", "@G", "@*")
	assert cg.adj[cg.index["@0"]] == cg.mask(["x", "y"])
	assert cg.adj[cg.index["@G"]] == cg.mask(["x", "y", "z"])
	assert cg.adj[cg.index["@*"]] == cg.mask(["x", "y", "z"])


def test_cone_graph_rejects_full():
	g = path3()
	with pytest.raises(DomainError):
		cone_graph(g, [g.full])


def test_cone_graph_rejects_a_vertex_named_like_a_cone():
	g = DefiningGraph(["a", "@G"], [])
	with pytest.raises(DomainError, match="clashes"):
		cone_graph(g, [])


def test_cone_graph_members_invariant():
	# inside the coned graph every coned member becomes invariant
	for edges in connected_graphs_upto_iso(3):
		g = graph_from_edges(3, edges)
		for d in range(1, g.full):
			cg = cone_graph(g, [d])
			pp = normalized(cg)
			lifted = mask_of(cg.index[g.vertices[v]] for v in bits(d))
			assert is_invariant(pp, lifted)


# ---- induced order and components on saturated pairs ----


def _saturated_cases(nmax=4, seed=3):
	rng = random.Random(seed)
	for edges in connected_graphs_upto_iso(nmax):
		g = graph_from_edges(nmax, edges)
		glist, hlist = random_peripheral(g, rng)
		pp = PeripheralPair(g, glist, hlist)
		yield g, saturate(pp)


def test_induced_order_matches():
	# for u inside a saturated member, relative order is computable on the
	# induced pair alone
	for g, sat in _saturated_cases():
		for d in sat.g_members:
			sub = induced(sat, d)
			inside = list(bits(d))
			for u in inside:
				for v in range(g.n):
					got = orders.leq_rel(g, sat.g_members, u, v)
					if not d >> v & 1:
						assert not got
						continue
					cu = inside.index(u)
					cv = inside.index(v)
					sub_got = orders.leq_rel(sub.graph, sub.g_members, cu, cv)
					assert got == sub_got


def test_induced_components_match():
	# components away from an inside star restrict to intersections
	for g, sat in _saturated_cases():
		for d in sat.g_members:
			sub = induced(sat, d)
			inside = list(bits(d))
			for x in bits(d):
				cx = inside.index(x)
				big = orders.gv_components(g, sat.g_members, x)
				cut = sorted(
					{m for m in (compress_mask(c & d, d) for c in big) if m}
				)
				small = sorted(orders.gv_components(sub.graph, sub.g_members, cx))
				assert small == cut
