import itertools
import random

from raagout.decompose import Leaf, RestrictionStep
from raagout.graphs import DefiningGraph, compress_mask, mask_of
from raagout import orders
from raagout.peripheral import PeripheralPair, induced, saturate

from helpers import auto_tree_nodes, brute_invariant, connected_graphs_upto_iso, graph_from_edges


def path3():
	return DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def edgeless(names):
	return DefiningGraph(list(names), [])


def test_leq_rel_plain_is_domination():
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		for u in range(g.n):
			for v in range(g.n):
				assert orders.leq_rel(g, [], u, v) == g.dominates(u, v)


def test_leq_rel_blocking():
	g = path3()
	a, b, c = range(3)
	assert g.dominates(a, c)
	# a member through a that misses c forbids a <= c
	assert not orders.leq_rel(g, [mask_of([a])], a, c)
	assert not orders.leq_rel(g, [mask_of([a, b])], a, c)
	# members through both, or missing a, do not interfere
	assert orders.leq_rel(g, [mask_of([a, c])], a, c)
	assert orders.leq_rel(g, [mask_of([b])], a, c)


def test_blocked_masks_agrees_with_leq_rel():
	g = edgeless("pqr")
	memberings = [
		[],
		[0b011],
		[0b011, 0b101],
		[0b001, 0b010, 0b100],
		[0b111],
	]
	for members in memberings:
		blocked = orders.blocked_masks(g, members)
		for u in range(g.n):
			for v in range(g.n):
				expect = g.dominates(u, v) and not blocked[u] >> v & 1
				assert orders.leq_rel(g, members, u, v) == expect


def g_adjacent(graph, members, u, v):
	"""Whether u and v are adjacent or share a member."""
	if graph.adj[u] >> v & 1:
		return True
	return any(m >> u & 1 and m >> v & 1 for m in members)


def test_g_adjacent():
	g = path3()
	a, b, c = range(3)
	assert g_adjacent(g, [], a, b)
	assert not g_adjacent(g, [], a, c)
	assert g_adjacent(g, [mask_of([a, c])], a, c)
	# membership only counts when shared
	assert not g_adjacent(g, [mask_of([a]), mask_of([c])], a, c)


def test_g_components_gluing():
	g = edgeless("abc")
	a, b, c = range(3)
	assert orders.g_components(g, [], g.full) == [1 << a, 1 << b, 1 << c]
	assert orders.g_components(g, [mask_of([a, b])], g.full) == [
		mask_of([a, b]),
		1 << c,
	]
	assert orders.g_components(g, [g.full], g.full) == [g.full]


def test_g_components_restricted_mask():
	g = edgeless("abcd")
	a, b, c, d = range(4)
	# only the part of a member inside the mask glues, and a single
	# surviving vertex glues nothing
	m = mask_of([a, b, c])
	assert orders.g_components(g, [m], mask_of([a, b, d])) == [
		mask_of([a, b]),
		1 << d,
	]
	assert orders.g_components(g, [mask_of([a, b])], mask_of([a, d])) == [
		1 << a,
		1 << d,
	]


def test_g_components_union_of_plain_components():
	# every G-component splits as a union of ordinary ones
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		masks = [0, g.full, g.adj[0], g.full & ~g.star_masks[0]]
		for members in itertools.combinations([g.adj[v] for v in range(g.n)], 2):
			for mask in masks:
				plain = g.components(mask)
				for comp in orders.g_components(g, members, mask):
					covered = 0
					for p in plain:
						if p & comp:
							assert p & ~comp == 0
							covered |= p
					assert covered == comp


def test_gv_components_drop_members_through_v():
	g = DefiningGraph(
		["c0", "a1", "b1", "c1"],
		[["c0", "a1"], ["c0", "b1"], ["a1", "c1"], ["b1", "c1"]],
	)
	c0 = 0
	c1 = 3
	# st(c1) leaves only c0; a member through c1 must not glue anything
	assert orders.gv_components(g, [g.mask(["c1", "c0"])], c1) == [1 << c0]


def test_gv_components_glue_across_star():
	g = DefiningGraph(
		["a", "b", "c", "d", "e"],
		[["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]],
	)
	a, b, c, d, e = range(5)
	assert orders.gv_components(g, [], c) == [1 << a, 1 << e]
	assert orders.gv_components(g, [g.mask(["a", "e"])], c) == [mask_of([a, e])]


def test_n_g():
	g = DefiningGraph(["w", "x", "y", "z"], [["w", "x"], ["x", "y"], ["y", "z"]])
	w, x, y, z = range(4)
	assert orders.n_g(g, [], 1 << w) == mask_of([w, x])
	assert orders.n_g(g, [g.mask(["w", "z"])], 1 << w) == mask_of([w, x, z])
	# untouched members contribute nothing
	assert orders.n_g(g, [g.mask(["y", "z"])], 1 << w) == mask_of([w, x])


# ---- the per-pair index against the member-list definitions ----


def _random_members(rng, n, count):
	full = (1 << n) - 1
	return [rng.randrange(1, full) for _ in range(count)] if full > 1 else []


def _random_graph(rng, n):
	pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
	density = rng.random()
	return graph_from_edges(n, [e for e in pairs if rng.random() < density])


def _bfs_g_components(g, members, mask):
	"""Components of mask under g_adjacent, grown one vertex at a time."""
	left = [v for v in range(g.n) if mask >> v & 1]
	out = []
	while left:
		comp = [left.pop(0)]
		for u in comp:
			for v in list(left):
				if g_adjacent(g, members, u, v):
					left.remove(v)
					comp.append(v)
		out.append(mask_of(comp))
	return out


def test_g_components_matches_bfs_over_g_adjacent():
	rng = random.Random(41)
	for _ in range(400):
		n = rng.randrange(1, 8)
		g = _random_graph(rng, n)
		members = _random_members(rng, n, rng.randrange(6))
		mask = rng.randrange(g.full + 1)
		assert orders.g_components(g, members, mask) == _bfs_g_components(g, members, mask)


def test_pair_index_matches_leq_rel_and_gv_components():
	rng = random.Random(43)
	for _ in range(300):
		n = rng.randrange(1, 8)
		g = _random_graph(rng, n)
		members = _random_members(rng, n, rng.randrange(8))
		index = orders.PairIndex(g, members)
		for u in range(n):
			row = mask_of(v for v in range(n) if orders.leq_rel(g, members, u, v))
			assert index.rows[u] == row
			down = mask_of(w for w in range(n) if orders.leq_rel(g, members, w, u))
			assert index.down[u] == down
		for v in range(n):
			assert list(index.gv[v]) == orders.gv_components(g, members, v)


def _fields(index):
	return index.rows, index.down, index.gv


def test_refined_index_matches_fresh_build():
	# PairIndex.refined directly, and through the pairs that derive their
	# index: adding_g, adding_h (the kernel edge) and normalize
	rng = random.Random(47)
	for trial in range(300):
		n = rng.randrange(1, 8)
		g = _random_graph(rng, n)
		glist = _random_members(rng, n, rng.randrange(5))
		hlist = [m for m in glist if rng.random() < 0.5]
		extra = _random_members(rng, n, rng.randrange(4))
		index = orders.PairIndex(g, glist)
		assert _fields(index.refined(extra)) == _fields(orders.PairIndex(g, glist + extra))
		assert _fields(index) == _fields(orders.PairIndex(g, glist))
		pp = PeripheralPair(g, glist, hlist).normalize()
		assert pp.index is not None  # built now, so the pairs below refine it
		for derived in (pp.adding_g(extra), pp.adding_h(extra), pp.normalize()):
			assert derived._index is not None
			fresh = orders.PairIndex(g, derived.g_members)
			assert _fields(derived.index) == _fields(fresh)
		kernel = pp.adding_h(extra)
		assert kernel.normalized and not kernel.saturated
		again = PeripheralPair(g, pp.g_members, pp.h_members + tuple(extra)).normalize()
		assert (kernel.g_members, kernel.h_members) == (again.g_members, again.h_members)
	# the closure-built index of a pair induced from a saturated one, on
	# every subgraph, against a fresh build over the induced member list
	rng = random.Random(53)
	for trial in range(100):
		n = rng.randrange(1, 7)
		g = _random_graph(rng, n)
		glist = _random_members(rng, n, rng.randrange(4))
		hlist = [m for m in glist if rng.random() < 0.5]
		sat = saturate(PeripheralPair(g, glist, hlist).normalize())
		for dmask in range(1, g.full + 1):
			cut = induced(sat, dmask)
			assert _fields(cut.index) == _fields(orders.PairIndex(cut.graph, cut.g_members))
	# and at every node of the auto trees: the image of a restriction or a
	# projection is induced from the saturated node, the kernel refined
	# from its index
	for node in auto_tree_nodes():
		d, step = node.descriptor, node.step
		if isinstance(step, Leaf):
			continue
		if isinstance(step, RestrictionStep):
			target = step.dmask
			kernel = step.kernel.descriptor.pair
			assert _fields(kernel.index) == _fields(orders.PairIndex(d.graph, kernel.g_members))
		else:
			target = d.graph.full & ~step.zmask
		image = step.image.descriptor
		fresh = orders.PairIndex(image.graph, induced(d.pair, target).g_members)
		assert _fields(image.pair.index) == _fields(fresh)


def test_spanning_sets_stand_for_every_invariant_set():
	# spanning(D) is invariant, and cut to D it gives the index that every
	# invariant set cut to D gives, on each subgraph D
	rng = random.Random(59)
	for trial in range(300):
		n = rng.randrange(1, 8)
		g = _random_graph(rng, n)
		glist = _random_members(rng, n, rng.randrange(5))
		hlist = [m for m in glist if rng.random() < 0.5]
		pp = PeripheralPair(g, glist, hlist).normalize()
		invariant = {m for m in range(1, g.full) if brute_invariant(pp, m)}
		for dmask in range(1, g.full + 1):
			spanning = pp.index.spanning(dmask)
			assert set(spanning) <= invariant
			assert list(spanning) == sorted(spanning, key=lambda m: (m.bit_count(), m))
			sub = g.induced(dmask)
			cut = lambda ms: [compress_mask(c, dmask) for c in {m & dmask for m in ms} - {0, dmask}]
			fresh = orders.PairIndex(sub, cut(invariant))
			assert _fields(orders.PairIndex(sub, cut(spanning))) == _fields(fresh)
