import json
import random

import pytest

from raagout.errors import CapabilityError, DomainError
from raagout.families import four_path
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
	brute_invariant,
	checked_saturate,
	connected_graphs_upto_iso,
	graph_from_edges,
	random_peripheral,
)


def path3():
	return DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def free2():
	return DefiningGraph(["u", "v"], [])


def diamond_chain(d):
	names = ["c0"]
	edges = []
	for i in range(1, d + 1):
		names += ["a%d" % i, "b%d" % i, "c%d" % i]
		prev = "c%d" % (i - 1)
		edges += [
			[prev, "a%d" % i],
			[prev, "b%d" % i],
			["a%d" % i, "c%d" % i],
			["b%d" % i, "c%d" % i],
		]
	return DefiningGraph(names, edges)


def normalized(graph, g=(), h=()):
	return PeripheralPair(graph, g, h).normalize()


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
	g = DefiningGraph(["a", "b", "c", "d"], [])
	m = g.mask(["a", "b", "c"])
	pp = PeripheralPair(g, [], [m]).normalize()
	assert pp.normalized
	assert names_of(g, pp.g_members) == [
		["a", "b"],
		["a", "b", "c"],
		["a", "c"],
		["b", "c"],
	]
	# H itself is untouched
	assert pp.h_members == (m,)


def test_unnormalized_rejected():
	pp = PeripheralPair(path3(), [], [])
	with pytest.raises(DomainError):
		is_invariant(pp, 1)
	with pytest.raises(DomainError):
		saturate(pp)


def test_adding_g_keeps_flags():
	g = path3()
	pp = normalized(g)
	out = pp.adding_g([g.mask(["b"])])
	assert out.normalized
	assert g.mask(["b"]) in out.g_members
	# a saturated pair stays saturated with an invariant mask, not with another
	sat = saturate(pp)
	assert sat.adding_g([g.mask(["b"])]).saturated
	assert not sat.adding_g([g.mask(["a"])]).saturated


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
			pp = PeripheralPair(g, glist, hlist).normalize()
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


def test_saturate_matches_every_proper_mask_checked():
	rng = random.Random(2031)
	for trial in range(300):
		n = rng.randrange(1, 8)
		full = (1 << n) - 1
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		density = rng.random()
		g = graph_from_edges(n, [e for e in pairs if rng.random() < density])
		glist = [rng.randrange(1, full) for _ in range(rng.randrange(5))] if n > 1 else []
		hlist = [m for m in glist if rng.random() < 0.5]
		pp = PeripheralPair(g, glist, hlist).normalize()
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
	assert sub.normalized


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


def test_fast_periphery_needs_membership():
	g = path3()
	pp = normalized(g)
	with pytest.raises(DomainError):
		fast_periphery(pp, g.mask(["b"]))


@pytest.mark.parametrize("d", [2, 3])
def test_fast_periphery_diamond_top(d):
	g = diamond_chain(d)
	top = ["c%d" % (d - 1), "a%d" % d, "b%d" % d, "c%d" % d]
	b = g.mask(top)
	pp = normalized(g).adding_g([b])
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
	per = fast_periphery(pp.adding_g([d]), d)
	assert names_of(g, per) == [["x"], ["x", "y"], ["y"]]


def test_fast_periphery_members_invariant():
	# every reported peripheral subgroup is itself invariant
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		pp = normalized(g)
		for d in range(1, g.full):
			if not is_invariant(pp, d):
				continue
			for m in fast_periphery(pp.adding_g([d]), d):
				assert is_invariant(pp.adding_g([d]), m)


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
		pp = PeripheralPair(g, glist, hlist).normalize()
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
