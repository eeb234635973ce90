"""Relative versions of domination, adjacency and connectivity.

Fixing a collection G of special subgroups (given as vertex masks of their
defining subgraphs), the order u <=_G v refines domination by requiring every
member of G through u to contain v. Two vertices are G-adjacent when they are
adjacent or lie in a common member; gluing along co-membership turns ordinary
components into G-components. The G^v variants only glue along members
avoiding v, which is what partial conjugations with acting letter v care
about.

All functions take the member collection as an iterable of masks, so both the
preserved list and its normalized closure can be passed without conversion.
leq_rel reads the order straight off the member list, one pair at a time;
PairIndex tabulates the order and the G^v-components, and that table is what
generator enumeration, invariance tests and saturation read. Joining members
to G only cuts order rows and merges components, so an index is the
member-free one (domination and plain components) refined by the members,
and the index of a larger G is refined from the smaller one's by the added
members alone, not rebuilt from the whole list.
"""

from .graphs import bits, mask_of


def leq_rel(graph, members, u, v):
	"""u <=_G v: domination plus no member separates u from v."""
	if not graph.dominates(u, v):
		return False
	for m in members:
		if m >> u & 1 and not m >> v & 1:
			return False
	return True


def blocked_masks(graph, members):
	"""blocked[u] = vertices v such that some member contains u but not v.

	With this table, u <=_G v iff u <= v and v is not blocked for u. It is
	the complement of the intersection of the members through u, and that
	intersection cannot shrink below u itself; members sorted by size, as
	pairs keep them, get there early.
	"""
	blocked = []
	for u in range(graph.n):
		bit = 1 << u
		common = graph.full
		for m in members:
			if m & bit:
				common &= m
				if common == bit:
					break
		blocked.append(graph.full & ~common)
	return blocked


def g_components(graph, members, mask):
	"""G-components of the induced subgraph on mask, as masks.

	Co-membership in any member counts as adjacency, so each G-component is a
	union of ordinary components: start from those and merge the ones each
	piece m & mask meets. Ordered by least vertex.
	"""
	return _glue(graph, graph.components(mask), [m & mask for m in members])


def owner_table(graph, comps):
	"""owner[w] is the mask in comps holding vertex w, 0 off their union.

	With disjoint comps, a nonempty piece of their union meets two of them
	exactly when piece & ~owner[least vertex of piece] is nonzero; an empty
	piece reads owner[-1] and passes.
	"""
	owner = [0] * graph.n
	for c in comps:
		for w in bits(c):
			owner[w] = c
	return owner


def _glue(graph, comps, pieces):
	"""Merge the components that each piece meets, ordered by least vertex.

	Every piece lies inside the union of comps, so a piece inside one
	component costs one owner_table lookup.
	"""
	comps = list(comps)
	if len(comps) < 2:
		return comps
	owner = owner_table(graph, comps)
	for piece in pieces:
		if piece & ~owner[(piece & -piece).bit_length() - 1]:
			merged = 0
			for c in comps:
				if c & piece:
					merged |= c
			comps = [c for c in comps if not c & merged]
			comps.append(merged)
			if len(comps) == 1:
				break
			for w in bits(merged):
				owner[w] = merged
	comps.sort(key=lambda c: c & -c)
	return comps


def gv_components(graph, members, v):
	"""G^v-components of the complement of st(v)."""
	s = graph.full & ~graph.star_masks[v]
	gv = [m for m in members if not m >> v & 1]
	return g_components(graph, gv, s)


def n_g(graph, members, theta):
	"""theta together with every vertex G-adjacent to it."""
	out = theta
	for t in bits(theta):
		out |= graph.adj[t]
	for m in members:
		if m & theta:
			out |= m
	return out


class PairIndex:
	"""The relative order and the G^v-components of one member list.

	rows[u] is the mask of every v with u <=_G v and down[v] the mask of
	every u with u <=_G v; both are closed under the order, since it is
	transitive. gv[v] lists the G^v-components of the complement of st(v),
	as gv_components does.

	PairIndex(graph, members) is the member-free index (domination rows,
	plain components) refined by members. An index is never changed once
	built: refined(extra) returns the index of the member list joined with
	extra, which cuts each row u by the extra members through u and merges
	the components their pieces meet, so only the extra members are read.
	The owner tables behind splits, the closures and the spanning sets
	are worked out on first use and kept.
	"""

	__slots__ = ("graph", "rows", "down", "gv", "_splits", "_closed", "_spanning")

	def __init__(self, graph, members=()):
		n = graph.n
		self.graph = graph
		self.rows = tuple(
			mask_of(v for v in range(n) if graph.dominates(u, v)) for u in range(n)
		)
		self.gv = tuple(
			tuple(graph.components(graph.full & ~graph.star_masks[v])) for v in range(n)
		)
		self._join(members)

	def refined(self, extra):
		"""The index of this member list joined with extra."""
		out = object.__new__(PairIndex)
		out.graph, out.rows, out.gv = self.graph, self.rows, self.gv
		out._join(extra)
		return out

	@property
	def splits(self):
		"""(x, away, owner) for every x with two or more G^x-components.

		away is the complement of st(x) and owner the owner_table of the
		G^x-components, so a set S meets two of them exactly when
		S & away & ~owner[least vertex of S & away] is nonzero.
		"""
		if self._splits is None:
			graph = self.graph
			self._splits = tuple(
				(x, graph.full & ~graph.star_masks[x], owner_table(graph, comps))
				for x, comps in enumerate(self.gv)
				if len(comps) > 1
			)
		return self._splits

	def closure(self, mask):
		"""The least invariant set holding mask, the whole graph if no proper one does.

		This is the invariance rule, which peripheral.is_invariant reads as
		"the set is its own closure": a set is invariant when it is an
		up-set of the order and no outside star separates it, that is, for
		x outside, its part away from st(x) meets at most one
		G^x-component. Invariant sets are closed under intersection. An intersection of up-sets is an up-set,
		and for x outside S & T, the part of S & T away from st(x) lies in
		the part of S or of T that x does not hold, so it meets at most one
		G^x-component. Every invariant superset of mask therefore holds
		what this adds, round by round: the rows of the set's vertices, and
		each outside x whose G^x-components the set meets twice. A round
		that adds nothing ends on an invariant set, after at most n rounds.
		"""
		out = self._closed.get(mask)
		if out is not None:
			return out
		rows = self.rows
		splits = self.splits
		out = mask
		while True:
			grown = out
			for u in bits(out):
				grown |= rows[u]
			for x, away, owner in splits:
				part = grown & away
				if part & ~owner[(part & -part).bit_length() - 1]:
					grown |= 1 << x
			if grown == out:
				break
			out = grown
		self._closed[mask] = out
		return out

	def spanning(self, mask):
		"""The proper closures of each vertex of mask and of each non-adjacent pair in it.

		By size, then mask. Lemma: each of these sets is invariant, and
		every invariant set that glues two components or meets two
		G^x-components holds one, so on a saturated pair, whose G is every
		proper invariant set, they give the same order rows, components and
		least qualifying set as all of G. An invariant set through u holds
		closure({u}), so the members through u meet in it, and it cuts row u
		inside any subgraph as all of G does. An invariant set S that holds
		a and b from two components of some subgraph, plain ones or
		G^x-components, holds closure({a, b}); a and b are not adjacent, as
		they lie in two components, and closure({a, b}) glues or meets the
		same two and misses all that S misses. A set some generator
		restricts nontrivially to holds a moved vertex v or meets two
		G^x-components at a and b (decompose._pivot), so it holds
		closure({v}) or closure({a, b}), which qualifies as well.

		closure({a, b}) is the closure of closure({a}) | closure({b}), so
		the pairs are taken over distinct single closures, one pair of them
		whenever some vertex of one is not adjacent to some vertex of the
		other; a closure that holds the other, or is the whole graph, adds
		nothing. The result is kept per mask.
		"""
		out = self._spanning.get(mask)
		if out is not None:
			return out
		graph = self.graph
		full = graph.full
		# each single closure: the vertices of mask it is the closure of,
		# and the vertices adjacent to all of them
		classes = {}
		for v in bits(mask):
			c = self.closure(1 << v)
			vs, near = classes.get(c, (0, full))
			classes[c] = vs | 1 << v, near & graph.adj[v]
		found = set(classes)
		classes = [(c, vs, mask & ~near) for c, (vs, near) in classes.items() if c != full]
		for i, (ca, _, apart) in enumerate(classes):
			for cb, vb, _ in classes[i + 1 :]:
				if vb & apart and ca & ~cb and cb & ~ca:
					found.add(self.closure(ca | cb))
		found.discard(full)
		out = self._spanning[mask] = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
		return out

	def _join(self, members):
		graph = self.graph
		self._splits = None
		self._closed = {}
		self._spanning = {}
		members = list(members)
		blocked = blocked_masks(graph, members)
		self.rows = rows = tuple(r & ~b for r, b in zip(self.rows, blocked))
		gv = []
		for v, comps in enumerate(self.gv):
			if len(comps) > 1:
				away = graph.full & ~graph.star_masks[v]
				pieces = [m & away for m in members if not m >> v & 1]
				comps = tuple(_glue(graph, comps, pieces))
			gv.append(comps)
		self.gv = tuple(gv)
		down = [0] * graph.n
		for u, row in enumerate(rows):
			for v in bits(row):
				down[v] |= 1 << u
		self.down = tuple(down)
