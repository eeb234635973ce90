"""Defining graphs for right-angled Artin groups.

A right-angled Artin group A is given by a finite simplicial graph: one
generator per vertex, with a commuting relation for each edge. Everything
downstream (word reduction, automorphism generators, decomposition trees)
works with full subgraphs of the defining graph, so subgraphs are represented
as integer bitmasks over a fixed vertex order and the graph object carries
precomputed link/star masks.

The domination preorder u <= v (lk(u) contained in st(v)) and its equivalence
classes also live here, since they only depend on the graph. Each class spans
either a clique or an edgeless subgraph, and a symmetry in a relative group
must map every vertex into its own class.
"""

from .errors import DomainError


def bits(mask):
	"""Iterate over the indices of the set bits of mask.

	>>> list(bits(0b1101))
	[0, 2, 3]
	"""
	while mask:
		low = mask & -mask
		yield low.bit_length() - 1
		mask ^= low


def mask_of(indices):
	m = 0
	for i in indices:
		m |= 1 << i
	return m


def by_size(masks):
	"""The masks as a tuple, ordered by size, then by value."""
	out = sorted(masks)
	out.sort(key=int.bit_count)
	return tuple(out)


def compress_masks(masks, within):
	"""Each m & within of masks, reindexed against the bit positions of within.

	Bit i of within becomes bit pos, where pos counts the bits of within
	below i. One position list of within serves every mask, so each mask
	costs one step per vertex it holds, not per vertex of within.

	>>> [bin(m) for m in compress_masks([0b1010, 0b0101], 0b1110)]
	['0b101', '0b10']
	"""
	place = [0] * within.bit_length()
	for pos, i in enumerate(bits(within)):
		place[i] = 1 << pos
	out = []
	for m in masks:
		m &= within
		c = 0
		while m:
			low = m & -m
			c |= place[low.bit_length() - 1]
			m ^= low
		out.append(c)
	return out


class DefiningGraph:
	"""A finite simplicial graph on distinct names in a fixed order; no loops, no repeated edges."""

	def __init__(self, vertices, edges):
		vertices = tuple(vertices)
		index = {v: i for i, v in enumerate(vertices)}
		adj = [0] * len(vertices)
		for a, b in edges:
			i, j = index[a], index[b]
			adj[i] |= 1 << j
			adj[j] |= 1 << i
		self._build(vertices, index, adj)

	def _build(self, vertices, index, adj):
		"""Set every field from the names, their positions and the adjacency masks.

		Every graph is built here, from edges (__init__) or from masks (induced).
		"""
		self.vertices = vertices
		self.n = len(vertices)
		self.index = index
		self.full = (1 << self.n) - 1
		self.adj = tuple(adj)
		# st(v) masks; used constantly by the word kernel and the orders.
		self.star_masks = tuple(adj[i] | (1 << i) for i in range(self.n))
		# the vertices adjacent to every other vertex
		self.center = mask_of(i for i, s in enumerate(self.star_masks) if s == self.full)
		self._classes = None

	# ---- serialization ----

	def to_json_obj(self):
		edges = []
		for i in range(self.n):
			for j in bits(self.adj[i]):
				if j > i:
					edges.append([self.vertices[i], self.vertices[j]])
		return {"vertices": list(self.vertices), "edges": edges}

	# ---- mask helpers ----

	def mask(self, names):
		"""Mask of a list of vertex names."""
		m = 0
		for name in names:
			if name not in self.index:
				raise DomainError("unknown vertex %r" % name)
			m |= 1 << self.index[name]
		return m

	def names(self, mask):
		return [self.vertices[i] for i in bits(mask)]

	def induced(self, mask):
		"""The induced subgraph on mask as a graph of its own.

		Vertex order is inherited, so compress_masks translates masks over
		this graph to masks over the result; the adjacency is the kept
		vertices' rows of adj, compressed that way.
		"""
		keep = list(bits(mask))
		names = tuple(self.vertices[i] for i in keep)
		out = object.__new__(DefiningGraph)
		out._build(
			names,
			{v: i for i, v in enumerate(names)},
			compress_masks([self.adj[i] for i in keep], mask),
		)
		return out

	# ---- connectivity ----

	def components(self, mask):
		"""Connected components of the induced subgraph, as masks.

		Ordered by least vertex index.
		"""
		adj = self.adj
		out = []
		rest = mask
		while rest:
			comp = 0
			frontier = rest & -rest
			while frontier:
				comp |= frontier
				nxt = 0
				# inline lowest-bit loop: frontiers hold 1-3 vertices, and a
				# bits() generator costs more than the body on those
				while frontier:
					low = frontier & -frontier
					nxt |= adj[low.bit_length() - 1]
					frontier ^= low
				frontier = nxt & mask & ~comp
			out.append(comp)
			rest &= ~comp
		return out

	def is_connected(self):
		return len(self.components(self.full)) <= 1

	def clique_number(self):
		"""Size of a largest clique, by branch and bound.

		Branches wait on a list, so the depth is not bound by the recursion limit.
		"""
		best = 0
		stack = [(0, self.full)]
		while stack:
			clique_size, candidates = stack.pop()
			if clique_size + candidates.bit_count() <= best:
				continue
			if candidates == 0:
				best = clique_size
				continue
			v = (candidates & -candidates).bit_length() - 1
			stack.append((clique_size, candidates & ~(1 << v)))
			stack.append((clique_size + 1, candidates & self.adj[v]))
		return best

	# ---- domination order and vertex classes ----

	def dominates(self, u, v):
		"""u <= v in the standard order: lk(u) contained in st(v)."""
		return self.adj[u] & ~self.star_masks[v] == 0

	def vertex_classes(self):
		"""Domination-equivalence classes, as masks ordered by least member.

		Two vertices are equivalent when each dominates the other. Each class
		spans a clique or an edgeless subgraph.
		"""
		if self._classes is not None:
			return self._classes
		assigned = 0
		out = []
		for v in range(self.n):
			if assigned >> v & 1:
				continue
			cls = 1 << v
			for w in range(v + 1, self.n):
				if self.dominates(v, w) and self.dominates(w, v):
					cls |= 1 << w
			assert cls & assigned == 0
			assigned |= cls
			out.append(cls)
		self._classes = out
		return out

	def class_of(self, v):
		for cls in self.vertex_classes():
			if cls >> v & 1:
				return cls
		raise AssertionError("vertex %d not classified" % v)

	def __repr__(self):
		return "DefiningGraph(%d vertices, %d edges)" % (
			self.n,
			sum(a.bit_count() for a in self.adj) // 2,
		)
