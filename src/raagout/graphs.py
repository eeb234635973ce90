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


def compress_mask(mask, within):
	"""Reindex mask & within against the bit positions of within.

	>>> bin(compress_mask(0b1010, 0b1110))
	'0b101'
	"""
	out = 0
	for pos, i in enumerate(bits(within)):
		if mask >> i & 1:
			out |= 1 << pos
	return out


class DefiningGraph:
	"""A finite simplicial graph on distinct names in a fixed order; no loops, no repeated edges."""

	def __init__(self, vertices, edges):
		self.vertices = tuple(vertices)
		self.n = len(self.vertices)
		self.index = {v: i for i, v in enumerate(self.vertices)}
		self.full = (1 << self.n) - 1
		adj = [0] * self.n
		for a, b in edges:
			i, j = self.index[a], self.index[b]
			adj[i] |= 1 << j
			adj[j] |= 1 << i
		self.adj = tuple(adj)
		# st(v) masks; used constantly by the word kernel and the orders.
		self.star_masks = tuple(adj[i] | (1 << i) for i in range(self.n))
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

		Vertex order is inherited, so compress_mask translates masks over
		this graph to masks over the result.
		"""
		keep = list(bits(mask))
		names = [self.vertices[i] for i in keep]
		edges = []
		for a, i in enumerate(keep):
			for b in range(a + 1, len(keep)):
				if self.adj[i] >> keep[b] & 1:
					edges.append((names[a], names[b]))
		return DefiningGraph(names, edges)

	def link_of_set(self, mask):
		"""Common link of a set of vertices; the empty set links to everything."""
		out = self.full
		for v in bits(mask):
			out &= self.adj[v]
		return out

	# ---- connectivity ----

	def components(self, mask=None):
		"""Connected components of the induced subgraph, as masks.

		Ordered by least vertex index.
		"""
		if mask is None:
			mask = self.full
		out = []
		rest = mask
		while rest:
			seed = rest & -rest
			comp = 0
			frontier = seed
			while frontier:
				comp |= frontier
				nxt = 0
				for v in bits(frontier):
					nxt |= self.adj[v] & mask & ~comp
				frontier = nxt
			out.append(comp)
			rest &= ~comp
		return out

	def is_connected(self, mask=None):
		if mask is None:
			mask = self.full
		if mask == 0:
			return True
		return len(self.components(mask)) == 1

	def subgraph_center(self, mask):
		"""Vertices of the induced subgraph adjacent to all its other vertices."""
		z = 0
		for v in bits(mask):
			if mask & ~self.star_masks[v] == 0:
				z |= 1 << v
		return z

	def is_clique(self, mask):
		return self.subgraph_center(mask) == mask

	def clique_number(self, mask=None):
		"""Size of a largest clique in the induced subgraph."""
		if mask is None:
			mask = self.full
		best = 0

		def grow(clique_size, candidates):
			nonlocal best
			if clique_size + candidates.bit_count() <= best:
				return
			if candidates == 0:
				best = max(best, clique_size)
				return
			v = (candidates & -candidates).bit_length() - 1
			grow(clique_size + 1, candidates & self.adj[v])
			grow(clique_size, candidates & ~(1 << v))

		grow(0, mask)
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
