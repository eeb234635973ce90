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
from raagout.autos import Automorphism, is_inner
from raagout.decompose import GroupDescriptor, decompose
from raagout.graphs import DefiningGraph, bits, mask_of
from raagout.peripheral import PeripheralPair, _invariant_scan, saturate


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


def brute_invariant(pp, dmask):
	"""Invariance spelled out from leq_rel and gv_components alone, with no index."""
	g = pp.graph
	outside = g.full & ~dmask
	for u in bits(dmask):
		for v in bits(outside):
			if orders.leq_rel(g, pp.g_members, u, v):
				return False
	for v in bits(outside):
		if sum(1 for c in orders.gv_components(g, pp.g_members, v) if c & dmask) > 1:
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
	for field in ("rows", "down", "gv"):
		assert getattr(fresh, field) == getattr(pp.index, field), field
	assert set(_invariant_scan(pp.graph, fresh)) == found, "saturation is not a fixpoint"
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


def pivot_by_generators(d):
	"""The first member, by size then mask, some listed generator restricts nontrivially to.

	Asks every generator of the descriptor about every member through
	acts_trivially_on, with no order index.
	"""
	gens = d.gens()
	for m in sorted(d.pair.g_members, key=lambda m: (m.bit_count(), m)):
		if any(not gen.acts_trivially_on(m) for gen in gens):
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
	descriptors = [GroupDescriptor.absolute(g) for g in graphs]
	graphs = [graph_from_edges(4, edges) for edges in connected_graphs_upto_iso(4)]
	for _ in range(40):
		n = rng.choice((5, 6))
		density = rng.random()
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		graphs.append(graph_from_edges(n, [e for e in pairs if rng.random() < density]))
	for g in graphs:
		descriptors.append(GroupDescriptor.absolute(g))
		for _ in range(2):
			glist, hlist = random_peripheral(g, rng)
			descriptors.append(GroupDescriptor(g, PeripheralPair(g, glist, hlist).normalize()))
	out = []
	for d in descriptors:
		out.extend(node for _, node, _ in decompose(d).walk())
	return out
