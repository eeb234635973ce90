import itertools
import random

from raagout.decompose import Leaf, RestrictionStep
from raagout.graphs import DefiningGraph, bits, by_size, mask_of
from raagout import orders
from raagout.peripheral import PeripheralPair, induced, saturate

from helpers import (
	auto_tree_nodes,
	brute_invariant,
	compress_mask,
	connected_graphs_upto_iso,
	graph_from_edges,
	gv_components,
	leq_rel,
	reference_index,
	split_twin_members,
	twin_blowup,
)


def path3():
	return DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def edgeless(names):
	return DefiningGraph(list(names), [])


def test_leq_rel_plain_is_domination():
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		for u in range(g.n):
			for v in range(g.n):
				assert leq_rel(g, [], u, v) == g.dominates(u, v)


def test_leq_rel_blocking():
	g = path3()
	a, b, c = range(3)
	assert g.dominates(a, c)
	# a member through a that misses c forbids a <= c
	assert not leq_rel(g, [mask_of([a])], a, c)
	assert not leq_rel(g, [mask_of([a, b])], a, c)
	# members through both, or missing a, do not interfere
	assert leq_rel(g, [mask_of([a, c])], a, c)
	assert leq_rel(g, [mask_of([b])], a, c)


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
	assert gv_components(g, [g.mask(["c1", "c0"])], c1) == [1 << c0]


def test_gv_components_glue_across_star():
	g = DefiningGraph(
		["a", "b", "c", "d", "e"],
		[["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]],
	)
	a, b, c, d, e = range(5)
	assert gv_components(g, [], c) == [1 << a, 1 << e]
	assert gv_components(g, [g.mask(["a", "e"])], c) == [mask_of([a, e])]


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
	# fixed member lists on an edgeless triple, in and out of size order,
	# then seeded ones; _refine cuts the rows in the order given
	pqr = edgeless("pqr")
	memberings = ([], [0b011], [0b011, 0b101], [0b101, 0b001], [0b001, 0b010, 0b100], [0b111])
	cases = [(pqr, members) for members in memberings]
	rng = random.Random(43)
	for _ in range(300):
		n = rng.randrange(1, 8)
		g = _random_graph(rng, n)
		cases.append((g, _random_members(rng, n, rng.randrange(8))))
	for g, members in cases:
		n = g.n
		index = orders.PairIndex(g, members)
		for u in range(n):
			row = mask_of(v for v in range(n) if leq_rel(g, members, u, v))
			assert index.rows[u] == row
		for v in range(n):
			assert list(index.gv[v]) == gv_components(g, members, v)


def _fields(index):
	return index.rows, index.gv, index.splits


def test_refined_index_matches_fresh_build():
	# PairIndex.refined directly, and through the pairs that derive their
	# index, adding_h (the kernel edge) and the pair itself
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
		pp = PeripheralPair(g, glist, hlist)
		assert pp.index is not None  # built now, so the pairs below refine it
		for derived in (pp.adding_h(extra), pp):
			assert derived._index is not None
			fresh = orders.PairIndex(g, derived.g_members)
			assert _fields(derived.index) == _fields(fresh)
		kernel = pp.adding_h(extra)
		assert not kernel.saturated
		again = PeripheralPair(g, pp.g_members, pp.h_members + tuple(extra))
		assert (kernel.g_members, kernel.h_members) == (again.g_members, again.h_members)
	# twin blow-ups: in a member-free index, twins with one link share a
	# row and twins with one star share a G^x-component tuple and owner
	# table; members holding one twin and not its partner cut or glue the
	# tables of one of them only, so every field, owner tables included,
	# must equal a per-vertex reference build, the shared index's too
	rng = random.Random(59)
	for trial in range(200):
		g, groups = twin_blowup(rng)
		glist = split_twin_members(rng, g, groups, rng.randrange(4))
		hlist = [m for m in glist if rng.random() < 0.5]
		extra = split_twin_members(rng, g, groups, rng.randrange(1, 4))
		bare = orders.PairIndex(g)
		for group in groups:
			x, *twins = bits(group)
			for y in twins:
				assert (bare.gv[x] is bare.gv[y]) == (g.star_masks[x] == g.star_masks[y])
		index = orders.PairIndex(g, glist)
		assert _fields(index) == reference_index(g, glist)
		assert _fields(index.refined(extra)) == reference_index(g, glist + extra)
		assert _fields(bare.refined(glist + extra)) == reference_index(g, glist + extra)
		pp = PeripheralPair(g, glist, hlist)
		assert pp.index is not None
		kernel = pp.adding_h(extra)
		assert _fields(kernel.index) == reference_index(g, kernel.g_members)
		assert _fields(bare) == reference_index(g, ())
	# the index of a pair induced from a saturated one, cut from the
	# pair's on an invariant target or the complement of the center and
	# built from the closures on any other subgraph, on every subgraph,
	# against a fresh build over the induced member list
	rng = random.Random(53)
	for trial in range(100):
		n = rng.randrange(1, 7)
		g = _random_graph(rng, n)
		glist = _random_members(rng, n, rng.randrange(4))
		hlist = [m for m in glist if rng.random() < 0.5]
		sat = saturate(PeripheralPair(g, glist, hlist))
		for dmask in range(1, g.full + 1):
			cut = induced(sat, dmask)
			assert _fields(cut.index) == _fields(orders.PairIndex(cut.graph, cut.g_members))
	# and at every node of the auto trees: the image of a restriction or a
	# projection is induced from the saturated node, the kernel refined
	# from its index
	for node in auto_tree_nodes():
		d, step = node.pair, node.step
		if isinstance(step, Leaf):
			continue
		if isinstance(step, RestrictionStep):
			target = step.dmask
			kernel = step.kernel.pair
			assert _fields(kernel.index) == _fields(orders.PairIndex(d.graph, kernel.g_members))
		else:
			target = d.graph.full & ~step.zmask
		image = step.image.pair
		fresh = orders.PairIndex(image.graph, induced(d, target).g_members)
		assert _fields(image.index) == _fields(fresh)


def test_refined_index_carries_closures_a_fresh_build_agrees_with():
	# an index with a filled closure cache, refined by arbitrary extras
	# (not invariant, as a restriction target may be before it joins) and
	# by the kernel edge's folds of an invariant set D: the refined tables
	# and every closure equal a fresh build's, each carried closure is
	# the source's, and on the kernel edge every closure missing D is
	# carried
	rng = random.Random(61)
	carried = dropped = 0
	for trial in range(1000):
		n = rng.randrange(1, 9)
		g = _random_graph(rng, n)
		glist = _random_members(rng, n, rng.randrange(5))
		hlist = [m for m in glist if rng.random() < 0.5]
		pp = PeripheralPair(g, glist, hlist)
		source = pp.index
		for m in [1 << v for v in range(n)] + _random_members(rng, n, 8):
			source.closure(m)
		dmask = source.closure(rng.randrange(1, g.full + 1))
		before = dict(source._closed)
		kernel_edge = 0 < dmask < g.full
		extras = [_random_members(rng, n, rng.randrange(1, 4))]
		if kernel_edge:
			# what adding_h([dmask]) joins: dmask and its one-vertex-deleted subsets
			extras.append([dmask] + [dmask & ~(1 << v) for v in range(n) if dmask >> v & 1])
		for extra in extras:
			refined = source.refined(extra)
			fresh = orders.PairIndex(g, pp.g_members + tuple(extra))
			assert _fields(refined) == _fields(fresh)
			kept = dict(refined._closed)
			assert all(before[m] == c for m, c in kept.items())
			for m, c in before.items():
				assert refined.closure(m) == fresh.closure(m)
				assert refined.closure(m) & ~c == 0
			carried += len(kept)
			dropped += len(before) - len(kept)
		if kernel_edge:
			kernel = pp.adding_h([dmask]).index
			assert _fields(kernel) == _fields(refined)
			assert {m for m, c in before.items() if not c & dmask} <= set(kernel._closed)
		assert source._closed == before  # refining adds nothing to the source
	assert carried > 0 and dropped > 0


def _spanning_cases():
	"""300 seeded relative pairs on 1 to 7 vertices."""
	rng = random.Random(59)
	for trial in range(300):
		n = rng.randrange(1, 8)
		g = _random_graph(rng, n)
		glist = _random_members(rng, n, rng.randrange(5))
		hlist = [m for m in glist if rng.random() < 0.5]
		yield PeripheralPair(g, glist, hlist)


def test_spanning_sets_stand_for_every_invariant_set():
	# spanning(D) is invariant, and cut to D it gives the index that every
	# invariant set cut to D gives, on each subgraph D
	for pp in _spanning_cases():
		g = pp.graph
		invariant = {m for m in range(1, g.full) if brute_invariant(pp, m)}
		for dmask in range(1, g.full + 1):
			spanning = pp.index.spanning(dmask)
			assert set(spanning) <= invariant
			assert list(spanning) == sorted(spanning, key=lambda m: (m.bit_count(), m))
			sub = g.induced(dmask)
			cut = lambda ms: [compress_mask(c, dmask) for c in {m & dmask for m in ms} - {0, dmask}]
			fresh = orders.PairIndex(sub, cut(invariant))
			assert _fields(orders.PairIndex(sub, cut(spanning))) == _fields(fresh)


def _spanning_by_definition(fresh, dmask):
	"""The closures in fresh of each vertex and non-adjacent pair of dmask, less the whole graph."""
	g = fresh.graph
	found = set()
	for a in bits(dmask):
		found.add(fresh.closure(1 << a))
		for b in bits(dmask & ~g.star_masks[a]):
			found.add(fresh.closure(1 << a | 1 << b))
	found.discard(g.full)
	return by_size(found)


def test_spanning_is_the_closures_of_vertices_and_non_adjacent_pairs():
	# spanning(D) against its definition, with the closures taken from an
	# index built afresh from the listed members: on every subgraph of the
	# pairs above, and on the carried indexes of the auto-tree nodes, for
	# the whole graph and the step's target
	for pp in _spanning_cases():
		fresh = orders.PairIndex(pp.graph, pp.g_members)
		for dmask in range(1, pp.graph.full + 1):
			assert pp.index.spanning(dmask) == _spanning_by_definition(fresh, dmask)
	for node in auto_tree_nodes():
		pp, step = node.pair, node.step
		if pp.graph.n > 10:
			continue
		fresh = orders.PairIndex(pp.graph, pp.g_members)
		targets = [pp.graph.full]
		if isinstance(step, RestrictionStep):
			targets.append(step.dmask)
		elif not isinstance(step, Leaf):
			targets.append(pp.graph.full & ~step.zmask)
		for dmask in targets:
			assert pp.index.spanning(dmask) == _spanning_by_definition(fresh, dmask)


def _pair_masks(n):
	"""Every mask of one or two vertices."""
	return [1 << a | 1 << b for a in range(n) for b in range(a, n)]


def test_derived_indexes_cut_filter_and_bound_as_their_lemmas_say():
	# the three lemmas of the derived indexes, on every invariant target
	# and the complement of the center of seeded pairs: the cut index
	# (PairIndex.cut) equals a fresh build over its member list, and its
	# closures a fresh build's; spanning of an invariant target, filtered
	# from the whole graph's, equals it worked out; and the closures a
	# refined index finds inside the bounds refined keeps equal a fresh
	# build's, for the kernel edge's folds and for arbitrary extras
	rng = random.Random(67)
	cuts = centers = bounded = 0
	for trial in range(200):
		n = rng.randrange(2, 8)
		g = _random_graph(rng, n)
		glist = _random_members(rng, n, rng.randrange(5))
		hlist = [m for m in glist if rng.random() < 0.5]
		pp = PeripheralPair(g, glist, hlist)
		pp.index.spanning(g.full)
		invariant = [d for d in range(1, g.full) if pp.index.closure(d) == d]
		targets = set(invariant)
		if g.is_connected() and 0 < g.center < g.full:
			targets.add(g.full & ~g.center)
			centers += 1
		for dmask in sorted(targets):
			sub = g.induced(dmask)
			fresh = orders.PairIndex(pp.graph, pp.g_members)
			computed = fresh.spanning(dmask)
			if dmask in invariant:
				assert dmask not in pp.index._spanning
				assert pp.index.spanning(dmask) == computed
			members = by_size(
				compress_mask(c, dmask) for c in {m & dmask for m in computed} - {0, dmask}
			)
			cut = pp.index.cut(sub, dmask)
			built = orders.PairIndex(sub, members)
			assert _fields(cut) == _fields(built)
			assert cut.split_mask == built.split_mask
			assert cut.spanning(sub.full) == built.spanning(sub.full) == members
			for m in _pair_masks(sub.n):
				assert cut.closure(m) == built.closure(m)
			cuts += 1
		# bounds: refine an index whose closures of every vertex and pair
		# and whose spanning sets are worked out, then work them out again
		for extra in [_random_members(rng, n, rng.randrange(1, 4))] + [
			[d] + [d & ~(1 << v) for v in bits(d)] for d in invariant[:3]
		]:
			source = orders.PairIndex(g, pp.g_members)
			for m in _pair_masks(n):
				source.closure(m)
			source.spanning(g.full)
			refined = source.refined(extra)
			fresh = orders.PairIndex(g, pp.g_members + tuple(extra))
			for m, c in refined._bounds.items():
				assert fresh.closure(m) & ~c == 0
				bounded += c != fresh.closure(m)
			for m in _pair_masks(n):
				assert refined.closure(m) == fresh.closure(m)
			assert refined.spanning(g.full) == fresh.spanning(g.full)
			assert not refined._bounds
			for m, c in refined._closed.items():
				assert c == fresh.closure(m)
	assert cuts > 2000 and centers > 20 and bounded > 200
