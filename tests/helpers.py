"""Shared test helpers: brute-force oracles and small-graph enumeration.

Everything here is deliberately independent of the package's own algorithms:
closures of rewriting moves, exhaustive searches and closed forms, usable as
ground truth for the fast implementations.
"""

import itertools
import random
from collections import deque
from functools import lru_cache

from raagout import families, orders
from raagout.autos import Automorphism, LaurenceGenerator, is_inner
from raagout.decompose import decompose
from raagout.graphs import DefiningGraph, bits, mask_of
from raagout.peripheral import PeripheralPair, saturate
from raagout.words import enc, inverse, mask_word


def word_closure(word, graph, cap=200000):
	"""All words reachable by commuting swaps and free cancellations."""
	start = tuple(word)
	seen = {start}
	dq = deque([start])
	adj = graph.adj
	while dq:
		w = dq.popleft()
		for i in range(len(w) - 1):
			a, b = w[i], w[i + 1]
			va, vb = a >> 1, b >> 1
			cands = []
			if va != vb and adj[va] >> vb & 1:
				cands.append(w[:i] + (b, a) + w[i + 2 :])
			if a == b ^ 1:
				cands.append(w[:i] + w[i + 2 :])
			for nw in cands:
				if nw not in seen:
					if len(seen) >= cap:
						raise RuntimeError("word closure too large")
					seen.add(nw)
					dq.append(nw)
	return seen


def brute_equal(w1, w2, graph):
	return bool(word_closure(w1, graph) & word_closure(w2, graph))


def brute_reduced_set(word, graph):
	cl = word_closure(word, graph)
	m = min(len(w) for w in cl)
	return {w for w in cl if len(w) == m}


def brute_canonical(word, graph):
	"""Lexicographically least reduced representative, by exhaustion."""
	return min(brute_reduced_set(word, graph))


def brute_cyc_core_length(word, graph, conj_letters):
	"""Minimal length among conjugates g w g^-1 with g over short words."""
	best = None
	for k in range(3):
		for g in itertools.product(conj_letters, repeat=k):
			w2 = tuple(g) + tuple(word) + tuple(x ^ 1 for x in reversed(g))
			m = min(len(u) for u in word_closure(w2, graph))
			if best is None or m < best:
				best = m
	return best


def foata(word, graph):
	"""Cartier-Foata normal form of a word in the RAAG, from a heap of pieces.

	Each letter drops onto the heap one level above the highest piece it
	does not commute with (a piece on its own vertex counts as not
	commuting); when that highest piece is its inverse, the two cancel
	instead. The heap left over is the one of the reduced trace, so two
	words are equal in the group exactly when their forms agree. Returns
	the levels bottom up, each as a sorted tuple of letters.
	"""
	adj = graph.adj
	pieces = []  # (letter, level)
	for lt in word:
		v = lt >> 1
		top = None
		for i, (m, level) in enumerate(pieces):
			u = m >> 1
			if (u == v or not adj[u] >> v & 1) and (top is None or level > pieces[top][1]):
				top = i
		if top is not None and pieces[top][0] == lt ^ 1:
			del pieces[top]
		else:
			pieces.append((lt, 1 if top is None else pieces[top][1] + 1))
	height = max((level for _, level in pieces), default=0)
	return tuple(
		tuple(sorted(m for m, level in pieces if level == k)) for k in range(1, height + 1)
	)


def same_map(phi, psi):
	"""Do phi and psi send every vertex to the same group element?

	Compared through foata, so the package's canonical form is not used.
	"""
	graph = phi.ctx.graph
	return all(
		foata(phi.images[2 * v], graph) == foata(psi.images[2 * v], graph)
		for v in range(graph.n)
	)


def inverts(phi):
	"""Does phi's inverse witness undo it on every vertex, on both sides?"""
	identity = Automorphism.identity(phi.ctx)
	return same_map(phi.compose(phi.invert()), identity) and same_map(
		phi.invert().compose(phi), identity
	)


def preserves_closed_form(gen, dmask):
	"""Does the realized generator carry the subgroup on dmask to a conjugate?

	Inversions always do; a transvection does unless it moves a vertex of
	dmask by one outside it; a partial conjugation does when its acting
	letter is in dmask, or when it conjugates none or all of dmask away
	from the acting star; a symmetry must map dmask onto itself.
	"""
	g = gen.graph
	if gen.kind == "inv":
		return True
	if gen.kind == "trv":
		moved, acting = gen.data
		return not dmask >> moved & 1 or bool(dmask >> acting & 1)
	if gen.kind == "pc":
		acting, region = gen.data
		if dmask >> acting & 1:
			return True
		return not region & dmask or not dmask & ~g.star_masks[acting] & ~region
	return mask_of(gen.data[v] for v in bits(dmask)) == dmask


def acts_trivially_on(gen, dmask):
	"""Does the realized generator agree with a conjugation on dmask?

	Inversions and transvections act trivially exactly when the moved
	vertex is outside; a partial conjugation does when its region misses
	dmask or swallows all of dmask away from the acting star (then
	conjugating by the acting letter itself matches it); a symmetry must
	fix dmask pointwise.
	"""
	g = gen.graph
	if gen.kind in ("inv", "trv"):
		return not dmask >> gen.data[0] & 1
	if gen.kind == "pc":
		acting, region = gen.data
		return not region & dmask or not dmask & ~g.star_masks[acting] & ~region
	return all(gen.data[v] == v for v in bits(dmask))


def supp(ctx, letters):
	"""The vertices of the reduced form of letters, as a mask."""
	return mask_word(ctx.reduce(letters))


def conjugate(ctx, g, w):
	"""Reduced form of g w g^-1."""
	return ctx.reduce(tuple(g) + tuple(w) + inverse(g))


def link_of_set(graph, mask):
	"""Common link of a set of vertices; the empty set links to everything."""
	out = graph.full
	for v in bits(mask):
		out &= graph.adj[v]
	return out


def preserves_word(ctx, phi, dmask):
	"""Word-level test: does phi carry the subgroup on dmask to a conjugate?

	Returns (verdict, witness): (True, g) with g^-1 phi(.) g inside the
	subgroup, (False, None) on a refutation, (None, None) otherwise. The
	oracle that preserves_closed_form and gen_in_relative are checked
	against.

	A cyclically reduced image support leaving dmask refutes outright.
	Failing that, the conjugators valid for vertex v form k_v C(core_v)
	A_dmask; centralizers of cyclically reduced words only use the core's
	support and its common links, so when the offset k_u^-1 k_v of a pair
	of vertices needs letters beyond dmask and those links, no common
	conjugator exists. Candidate witnesses are the cyclic-reduction
	conjugators, their pairwise offsets and single letters.
	"""
	graph = ctx.graph
	cores = {}
	ks = {}
	for v in bits(dmask):
		core, k = ctx.cyc_reduce(phi.images[2 * v])
		if mask_word(core) & ~dmask:
			return False, None
		cores[v] = core
		ks[v] = k

	def carried_by(g):
		return all(
			not supp(ctx, inverse(g) + phi.images[2 * v] + g) & ~dmask for v in bits(dmask)
		)

	cands = [()]
	for k in ks.values():
		cands.append(ctx.canonical(k))
		cands.append(ctx.canonical(inverse(k)))
	lmask = 0
	for v in bits(dmask):
		lmask |= supp(ctx, phi.images[2 * v])
	for x in bits(lmask):
		cands.append((enc(x, 1),))
		cands.append((enc(x, -1),))
	items = list(ks.values())
	for i, ku in enumerate(items):
		for kv in items[i + 1 :]:
			cands.append(ctx.canonical(ku + inverse(kv)))
			cands.append(ctx.canonical(kv + inverse(ku)))
	tried = set()
	for g in cands:
		if g in tried:
			continue
		tried.add(g)
		if carried_by(g):
			return True, g
	vs = list(ks)
	for i, u in enumerate(vs):
		for v in vs[i + 1 :]:
			allowed = (
				dmask
				| link_of_set(graph, mask_word(cores[u]))
				| link_of_set(graph, mask_word(cores[v]))
			)
			off = ctx.reduce(inverse(ks[u]) + ks[v])
			if mask_word(off) & ~allowed:
				return False, None
	return None, None


def compress_mask(mask, within):
	"""Reindex mask & within against the bit positions of within, one bit of within at a time.

	>>> bin(compress_mask(0b1010, 0b1110))
	'0b101'
	"""
	out = 0
	for pos, i in enumerate(bits(within)):
		if mask >> i & 1:
			out |= 1 << pos
	return out


def leq_rel(graph, members, u, v):
	"""u <=_G v read straight off the member list: domination plus no member separates u from v."""
	if not graph.dominates(u, v):
		return False
	for m in members:
		if m >> u & 1 and not m >> v & 1:
			return False
	return True


def gv_components(graph, members, v):
	"""G^v-components of the complement of st(v), from the members avoiding v."""
	s = graph.full & ~graph.star_masks[v]
	gv = [m for m in members if not m >> v & 1]
	return orders.g_components(graph, gv, s)


def brute_invariant(pp, dmask):
	"""Invariance spelled out from leq_rel and gv_components alone, with no index."""
	g = pp.graph
	outside = g.full & ~dmask
	for u in bits(dmask):
		for v in bits(outside):
			if leq_rel(g, pp.g_members, u, v):
				return False
	for v in bits(outside):
		if sum(1 for c in gv_components(g, pp.g_members, v) if c & dmask) > 1:
			return False
	return True


def checked_saturate(pp):
	"""saturate(pp), after the three checks its lemma promises.

	The scan returns every old member, the index handed over equals a
	fresh build over the saturated list, and the scan run again on that
	fresh index gives the same list, so the saturation is a fixpoint.
	"""
	sat = saturate(pp)
	found = set(sat.g_members)
	assert set(pp.g_members) <= found, "saturation dropped a member of G"
	fresh = orders.PairIndex(pp.graph, sat.g_members)
	for field in ("rows", "gv"):
		assert getattr(fresh, field) == getattr(pp.index, field), field
	assert set(fresh.invariant_sets()) == found, "saturation is not a fixpoint"
	return sat


def cyclic_transports(ctx, core):
	"""Canonical forms reachable by moving one front letter of core to the back."""
	out = []
	seen = 0
	core = list(core)
	for p, lt in enumerate(core):
		v = lt >> 1
		if seen & ~ctx.adj[v] == 0:
			rest = core[:p] + core[p + 1 :]
			out.append(ctx.canonical(tuple(rest) + (lt,)))
		seen |= 1 << v
	return out


def words_over(graph, mask, maxlen):
	"""All words (not only reduced) with letters from the given vertex mask."""
	letters = []
	for v in range(graph.n):
		if mask >> v & 1:
			letters.extend((2 * v, 2 * v + 1))
	out = [()]
	frontier = [()]
	for _ in range(maxlen):
		nxt = []
		for w in frontier:
			for lt in letters:
				nxt.append(w + (lt,))
		out.extend(nxt)
		frontier = nxt
	return out


@lru_cache(maxsize=None)
def connected_graphs_upto_iso(n):
	"""Connected graphs on n labelled vertices, one per isomorphism class.

	Returned as tuples of edge pairs (i, j), i < j.
	"""
	pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
	perms = list(itertools.permutations(range(n)))
	seen = set()
	out = []
	for picks in itertools.product((0, 1), repeat=len(pairs)):
		edges = frozenset(p for p, take in zip(pairs, picks) if take)
		canon = min(
			tuple(sorted((min(pm[i], pm[j]), max(pm[i], pm[j])) for i, j in edges))
			for pm in perms
		)
		if canon in seen:
			continue
		seen.add(canon)
		g = graph_from_edges(n, sorted(edges))
		if g.is_connected():
			out.append(tuple(sorted(edges)))
	return tuple(out)


def graph_from_edges(n, edges):
	names = [chr(ord("a") + i) for i in range(n)]
	return DefiningGraph(names, [[names[i], names[j]] for i, j in edges])


def twin_blowup(rng, max_base=5, max_n=15):
	"""A random graph on at most max_base vertices, each vertex replaced by 1-3 twins.

	Each group of twins is either a clique (one star) or edgeless (one
	link), and its members copy every edge of the vertex they replace.
	Groups are drawn one by one and stop growing at max_n vertices in all.
	Returns the graph and its twin groups as masks.
	"""
	base = rng.randrange(1, max_base + 1)
	density = rng.random()
	base_edges = [(i, j) for i in range(base) for j in range(i + 1, base) if rng.random() < density]
	groups = []
	n = 0
	for i in range(base):
		size = min(rng.randrange(1, 4), max_n - (base - i - 1) - n)
		groups.append((list(range(n, n + size)), rng.random() < 0.5))
		n += size
	edges = []
	for vs, clique in groups:
		if clique:
			edges.extend((a, b) for a in vs for b in vs if a < b)
	for i, j in base_edges:
		edges.extend((a, b) for a in groups[i][0] for b in groups[j][0])
	return graph_from_edges(n, edges), [mask_of(vs) for vs, _ in groups]


def split_twin_members(rng, graph, groups, count):
	"""count random proper members, most holding one twin of some group and not another.

	Refining by such a member cuts the row or glues the G^x-components of
	one twin but not of its partner.
	"""
	out = []
	pairs = [g for g in groups if g.bit_count() > 1]
	for _ in range(count):
		m = rng.randrange(1, graph.full + 1)
		if pairs and rng.random() < 0.75:
			a, b = rng.sample(list(bits(rng.choice(pairs))), 2)
			m = (m | 1 << a) & ~(1 << b)
		if 0 < m < graph.full:
			out.append(m)
	return out


def reference_index(graph, members):
	"""rows, gv and splits of PairIndex(graph, members), built vertex by vertex.

	Rows come from leq_rel, gv from gv_components and owner tables from
	owner_table, one for each vertex, so no table is shared between twins.
	"""
	n = graph.n
	rows = tuple(
		mask_of(v for v in range(n) if leq_rel(graph, members, u, v)) for u in range(n)
	)
	gv = tuple(tuple(gv_components(graph, members, v)) for v in range(n))
	splits = tuple(
		(graph.full & ~graph.star_masks[x], orders.owner_table(graph, comps))
		if len(comps) > 1
		else None
		for x, comps in enumerate(gv)
	)
	return rows, gv, splits


def random_peripheral(graph, rng, max_members=3):
	"""A random (G, H) pair of proper special subgroups, H inside G."""
	full = graph.full
	masks = []
	for _ in range(rng.randrange(max_members + 1)):
		m = rng.randrange(1, full)  # nonempty proper
		masks.append(m)
	g_list = masks
	h_list = [m for m in masks if rng.random() < 0.5]
	return g_list, h_list


def strip_front_rescanning(letters, smask, adj):
	"""(prefix, remainder) of WordContext.strip_front by rescanning from the front.

	Moves the first smask-letter that commutes with every letter before it
	to the prefix, then scans the rest again from its front, until no
	letter moves.
	"""
	rem = list(letters)
	prefix = []
	changed = True
	while changed:
		changed = False
		seen = 0
		for p, lt in enumerate(rem):
			v = lt >> 1
			if seen & ~adj[v] == 0 and smask >> v & 1:
				prefix.append(lt)
				del rem[p]
				changed = True
				break
			seen |= 1 << v
	return tuple(prefix), tuple(rem)


def foata_word(word, graph):
	"""A reduced word for word: its foata levels read bottom up."""
	return [lt for level in foata(word, graph) for lt in level]


def cyc_reduce_rescanning(letters, graph):
	"""(core, conj) of WordContext.cyc_reduce by cancelling one pair at a time.

	Scans for the letters movable to the front and to the back, cancels
	the first front letter whose inverse is a distinct back letter,
	reduces again through foata, and rescans, until no such pair is left;
	each cancelled front letter joins conj.
	"""
	adj = graph.adj
	core = foata_word(letters, graph)
	conj = []
	while True:
		front = []
		seen = 0
		for p, lt in enumerate(core):
			v = lt >> 1
			if seen & ~adj[v] == 0:
				front.append((p, lt))
			seen |= 1 << v
		back = []
		seen = 0
		for q in range(len(core) - 1, -1, -1):
			lt = core[q]
			v = lt >> 1
			if seen & ~adj[v] == 0:
				back.append((q, lt))
			seen |= 1 << v
		hit = None
		for p, lt in front:
			want = lt ^ 1
			for q, m in back:
				if m == want and q != p:
					hit = (p, q, lt)
					break
			if hit:
				break
		if hit is None:
			return tuple(core), tuple(conj)
		p, q, lt = hit
		conj.append(lt)
		core = [core[i] for i in range(len(core)) if i != p and i != q]
		core = foata_word(core, graph)


def magnus2(word, a, b):
	"""Degree-2 Magnus coefficient of the letter pair (a, b), a != b.

	Summed over every pair of positions i < j straight from the
	definition, with no running counts.
	"""
	total = 0
	for i, x in enumerate(word):
		for y in word[i + 1 :]:
			if x >> 1 == a and y >> 1 == b:
				total += (-1 if x & 1 else 1) * (-1 if y & 1 else 1)
	return total


def word_johnson(ctx, words):
	"""First Johnson image of an automorphism acting trivially on homology, from words.

	words[v] is the image phi(v) of vertex v, reduced or not. For each
	vertex v the word v^-1 phi(v) lies in the commutator subgroup
	gamma2, and gamma2/gamma3 is free abelian on the non-edges {a < b}. The
	coordinate on {a, b} is the degree-2 Magnus coefficient mu(ab), the
	sum of e*f over letter pairs a^e before b^f; one pass over the word
	with running exponent sums finds it. Swapping two commuting letters
	only moves edge pairs and a cancelling pair adds e*f - e*f, so the
	value is well defined on the group; it is additive on gamma2 and kills
	gamma3, which makes phi -> image a homomorphism on IA. Returns
	{(v, a, b): coefficient} without zeros. The oracle for the closed
	forms the certificate reads off generator kinds.
	"""
	graph = ctx.graph
	below = [((1 << b) - 1) & ~graph.star_masks[b] for b in range(graph.n)]
	out = {}
	for v in range(graph.n):
		sums = [0] * graph.n
		for lt in (2 * v + 1, *words[v]):
			b = lt >> 1
			e = -1 if lt & 1 else 1
			for a in bits(below[b]):
				if sums[a]:
					key = (v, a, b)
					out[key] = out.get(key, 0) + sums[a] * e
			sums[b] += e
	return {key: c for key, c in out.items() if c}


def box_inner_vector(ctx, phis, box):
	"""A nonzero exponent vector in [-box, box]^k whose product is inner.

	The product is phis[0]^e0 after phis[1]^e1 after ..., built by plain
	repeated composition; returns None when every product is non-inner.
	"""
	for vec in itertools.product(range(-box, box + 1), repeat=len(phis)):
		if not any(vec):
			continue
		prod = Automorphism.identity(ctx)
		for phi, e in zip(phis, vec):
			step = phi if e > 0 else phi.invert()
			for _ in range(abs(e)):
				prod = prod.compose(step)
		if is_inner(ctx, prod.images).status == "yes":
			return vec
	return None


def pivot_by_generators(pp):
	"""The first member, by size then mask, some listed generator restricts nontrivially to.

	Asks every generator of the pair about every member through
	acts_trivially_on, with no order index.
	"""
	gens = pp.gens()
	for m in sorted(pp.g_members, key=lambda m: (m.bit_count(), m)):
		if any(not acts_trivially_on(gen, m) for gen in gens):
			return m
	return None


def auto_tree_nodes(seed=5):
	"""Every node of the auto decompositions of some families and random pairs.

	The families are diamond_chain(2..4) and four_path (1,1,1,1) and
	(2,1,2,1). The random inputs are the absolute pair and two random
	pairs on each graph from connected_graphs_upto_iso(4), and the same on
	40 random graphs with 5 or 6 vertices, connected or not.
	"""
	rng = random.Random(seed)
	graphs = [
		families.diamond_chain(2),
		families.diamond_chain(3),
		families.diamond_chain(4),
		families.four_path(1, 1, 1, 1),
		families.four_path(2, 1, 2, 1),
	]
	inputs = [PeripheralPair(g) for g in graphs]
	graphs = [graph_from_edges(4, edges) for edges in connected_graphs_upto_iso(4)]
	for _ in range(40):
		n = rng.choice((5, 6))
		density = rng.random()
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		graphs.append(graph_from_edges(n, [e for e in pairs if rng.random() < density]))
	for g in graphs:
		inputs.append(PeripheralPair(g))
		for _ in range(2):
			glist, hlist = random_peripheral(g, rng)
			inputs.append(PeripheralPair(g, glist, hlist))
	out = []
	for pp in inputs:
		out.extend(node for _, _, _, node, _ in decompose(pp).walk())
	return out


def subgraph_center(graph, mask):
	"""Vertices of the induced subgraph adjacent to all its other vertices."""
	z = 0
	for v in bits(mask):
		if mask & ~graph.star_masks[v] == 0:
			z |= 1 << v
	return z


def is_clique(graph, mask):
	return subgraph_center(graph, mask) == mask


def diamond_quartet():
	"""The four single-diamond groups with their expected dimensions.

	Returns (name, pair, lower-bound generator list, dimension) tuples;
	the first three groups have dimension 2, the last 1.
	"""
	out = []
	for name, g_names, h_names, dim in [
		("plain", [], [], 2),
		("preserved-corner", [["c1"]], [], 2),
		("fixed-corner", [], [["c1"]], 2),
		("both-corners", [["c0"]], [["c1"]], 1),
	]:
		graph = families.diamond_chain(1)
		pair = PeripheralPair(
			graph,
			[graph.mask(n) for n in g_names],
			[graph.mask(n) for n in h_names],
		)
		# pc a1 on {b1} is the whole conjugation by a1 here, hence inner;
		# the two disjoint transvections carry the rank instead.
		gens = [LaurenceGenerator.transvection(graph, "b1", "a1")]
		if dim == 2:
			gens.append(LaurenceGenerator.transvection(graph, "c0", "c1"))
		out.append((name, pair, gens, dim))
	return out
