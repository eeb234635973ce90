"""Builders for the worked example families.

Two parametrized families exercise the whole pipeline end to end: chains
of diamonds glued corner to corner, and graphs whose vertex classes form
a four-vertex path. Each family ships its defining graph, a decomposition
script whose tree folds to the expected dimension, and an explicit
generator list certifying the matching lower bound.
"""

from .errors import DomainError
from .graphs import DefiningGraph, bits
from .autos import LaurenceGenerator


# ---- diamond chains ----


def diamond_chain(d):
	"""d diamonds in a row, consecutive ones sharing a corner vertex.

	Vertices c0..cd are the corners; the i-th diamond has side vertices
	ai, bi between the corners c(i-1) and ci.
	"""
	if d < 1:
		raise DomainError("need at least one diamond")
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


def diamond_script(d):
	"""Split off the top diamond, then the rest of the chain.

	The remaining branches are small enough that automatic mode finishes
	them with known leaf shapes; the folded upper bound comes out to
	4d - 1 for d >= 2.
	"""
	if d < 2:
		return []
	top = ["c%d" % (d - 1), "a%d" % d, "b%d" % d, "c%d" % d]
	rest = ["c0"]
	for i in range(1, d):
		rest += ["a%d" % i, "b%d" % i, "c%d" % i]
	return [
		{"op": "restrict", "target": top, "mode": "fast"},
		{"op": "restrict", "target": rest, "mode": "fast"},
	]


def diamond_labels(graph):
	"""Label map onto a diamond chain, or None when the graph is not one.

	Keys are the builder's vertex names, values the graph's own names.
	Peeling from a degree-two corner pins the whole chain, and the total
	degree count rules out any extra edges.
	"""
	n = graph.n
	if n < 4 or n % 3 != 1:
		return None
	d = (n - 1) // 3

	def deg(v):
		return bin(graph.adj[v]).count("1")

	if sum(deg(v) for v in range(n)) != 8 * d:
		return None
	for start in range(n):
		if deg(start) != 2:
			continue
		labels = {"c0": start}
		used = 1 << start
		prev = start
		ok = True
		for i in range(1, d + 1):
			side = list(bits(graph.adj[prev] & ~used))
			if len(side) != 2:
				ok = False
				break
			a, b = side
			if deg(a) != 2 or deg(b) != 2 or graph.adj[a] >> b & 1:
				ok = False
				break
			used |= 1 << a | 1 << b
			common = graph.adj[a] & graph.adj[b] & ~used
			if bin(common).count("1") != 1:
				ok = False
				break
			prev = common.bit_length() - 1
			used |= common
			labels["a%d" % i] = a
			labels["b%d" % i] = b
			labels["c%d" % i] = prev
		if ok and used == graph.full:
			return {k: graph.vertices[v] for k, v in labels.items()}
	return None


def _pc_component(graph, acting, inside):
	"""Partial conjugation by acting on its whole component containing inside."""
	region = None
	for comp in graph.components(graph.full & ~graph.star_masks[graph.index[acting]]):
		if comp >> graph.index[inside] & 1:
			region = comp
	if region is None:
		raise DomainError("%s is in the star of %s" % (inside, acting))
	return LaurenceGenerator.partial_conj(graph, acting, region)


def diamond_generators(graph, d, labels=None):
	"""The commuting generator list whose span has rank 4d - 1.

	labels translates the builder's vertex names for a chain recognized
	inside another graph.
	"""
	look = labels.__getitem__ if labels else lambda s: s
	gens = []
	for i in range(1, d + 1):
		gens.append(
			LaurenceGenerator.transvection(graph, look("b%d" % i), look("a%d" % i))
		)
	for i in range(1, d + 1):
		gens.append(_pc_component(graph, look("a%d" % i), look("b%d" % i)))
	for i in range(2, d):
		gens.append(_pc_component(graph, look("a%d" % i), look("c%d" % d)))
	for i in range(1, d):
		gens.append(_pc_component(graph, look("c%d" % i), look("c0")))
	gens.append(LaurenceGenerator.transvection(graph, look("c0"), look("c1")))
	gens.append(LaurenceGenerator.transvection(graph, look("c%d" % d), look("c%d" % (d - 1))))
	return gens


# ---- four-class paths ----


def four_path(p, q, r, s):
	"""Graph whose vertex classes form a path: free, clique, clique, free.

	Class sizes are p, q, r, s with every edge present between
	consecutive classes; the two middle classes are complete.
	"""
	if min(p, q, r, s) < 1:
		raise DomainError("class sizes must be positive")
	w, x, y, z = four_path_classes(p, q, r, s)
	edges = []
	for block in (x, y):
		edges += [[a, b] for a in block for b in block if a < b]
	for left, right in ((w, x), (x, y), (y, z)):
		edges += [[a, b] for a in left for b in right]
	return DefiningGraph(w + x + y + z, edges)


def four_path_classes(p, q, r, s):
	"""The vertex names of the four classes of four_path(p, q, r, s), in path order."""
	w = ["w%d" % i for i in range(1, p + 1)]
	x = ["x%d" % i for i in range(1, q + 1)]
	y = ["y%d" % i for i in range(1, r + 1)]
	z = ["z%d" % i for i in range(1, s + 1)]
	return w, x, y, z


def four_path_script(p, q, r, s):
	"""Peel both class stars, then both middle cliques, then project twice.

	One branch takes the star of the lower middle class apart: its two
	clique images split off as integer general linear leaves, the central
	class projects away, and what is left is a free product with one held
	clique factor. The other branch does the same around the upper middle
	class; the innermost kernel is trivial.
	"""
	w, x, y, z = four_path_classes(p, q, r, s)
	return [
		{
			"op": "restrict",
			"target": w + x + y,
			"mode": "fast",
			"image": [
				{"op": "restrict", "target": y, "mode": "fast", "image": [{"op": "leaf"}]},
				{"op": "restrict", "target": x, "mode": "fast", "image": [{"op": "leaf"}]},
				{"op": "project"},
				{"op": "leaf"},
			],
		},
		{
			"op": "restrict",
			"target": x + y + z,
			"mode": "fast",
			"image": [
				{"op": "project"},
				{"op": "leaf"},
			],
		},
		{"op": "leaf"},
	]


def four_path_dimension(p, q, r, s):
	return (
		q * (q - 1) // 2
		+ r * (r - 1) // 2
		+ r * s
		+ p * q
		+ q * (2 * s - 1)
		+ r * (2 * p - 1)
	)


def four_path_generators(graph, p, q, r, s):
	"""The nilpotent generator list whose Hirsch length meets the bound.

	Commutators of listed transvections land back in the list, so the
	span is class-two nilpotent rather than abelian; its dimension is the
	plain generator count.
	"""
	w, x, y, z = four_path_classes(p, q, r, s)
	gens = []
	for block in (x, y):
		for i, acting in enumerate(block):
			for moved in block[i + 1 :]:
				gens.append(LaurenceGenerator.transvection(graph, moved, acting))
	for acting, moved_block in ((x, w), (y, z), (x, z), (y, w)):
		for v in acting:
			for u in moved_block:
				gens.append(LaurenceGenerator.transvection(graph, u, v))
	for acting, targets in ((x, z), (y, w)):
		for v in acting:
			for u in targets[:-1]:
				gens.append(_pc_component(graph, v, u))
	return gens
