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
member-free one (domination and plain components) refined by the members.
The index of a larger G is refined from the smaller one's by the added
members alone, and it carries over what they leave unchanged: the rows they
do not cut, the G^x-component lists and owner tables they merge nothing of,
and the least invariant supersets already found that miss every changed
row and split. Along a restriction chain each kernel adds one trivial-action
target D, so only the closures that meet D are worked out again.
"""

from .graphs import bits, by_size


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
		# inline lowest-bit loop: components are small, and a bits()
		# generator costs more than the body on those
		rest = c
		while rest:
			low = rest & -rest
			owner[low.bit_length() - 1] = c
			rest ^= low
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
	as gv_components does. splits holds (x, away, owner) for every x with
	two or more G^x-components: away is the complement of st(x) and owner
	the owner_table of the G^x-components, so a set S meets two of them
	exactly when S & away & ~owner[least vertex of S & away] is nonzero.

	PairIndex(graph, members) is the member-free index (domination rows,
	plain components) refined by members. In the member-free index,
	vertices with one link share a row, and vertices with one star share
	a G^x-component tuple and owner table. No table is ever changed in
	place; refining builds fresh ones. An index is never changed once
	built: refined(extra) returns the index of the member list joined with
	extra. It reads only the extra members, and it carries over from this
	index every row they do not cut, every G^x-component tuple and owner
	table they merge nothing of (the same objects), and every kept closure
	that misses the vertices whose row or components changed. The spanning
	sets are worked out again, from the carried closures, on first use.
	"""

	__slots__ = ("graph", "rows", "down", "gv", "splits", "_closed", "_spanning")

	def __init__(self, graph, members=()):
		full = graph.full
		star = graph.star_masks
		self.graph = graph
		# u <= v when lk(u) lies in st(v), that is, when v is in the star
		# of every neighbour of u; twins with one link share the row, and
		# down takes each distinct row once, with all its twins
		twins = {}  # link -> [row, the vertices with that link]
		for u, link in enumerate(graph.adj):
			hit = twins.get(link)
			if hit is None:
				row = full
				# inline lowest-bit loop: cheaper than a bits() generator here
				rest = link
				while rest:
					low = rest & -rest
					row &= star[low.bit_length() - 1]
					rest ^= low
				twins[link] = [row, 1 << u]
			else:
				hit[1] |= 1 << u
		down = [0] * graph.n
		for row, us in twins.values():
			for v in bits(row):
				down[v] |= us
		rows = [twins[link][0] for link in graph.adj]
		self.rows, self.down = tuple(rows), tuple(down)
		# the G^x-components depend on st(x) alone, so twins with one star
		# share the component tuple and its owner table
		split_of = {}
		gv = []
		splits = []
		for x, s in enumerate(star):
			hit = split_of.get(s)
			if hit is None:
				comps = tuple(graph.components(full & ~s))
				owner = owner_table(graph, comps) if len(comps) > 1 else None
				hit = split_of[s] = comps, owner
			comps, owner = hit
			gv.append(comps)
			if owner is not None:
				splits.append((x, full & ~s, owner))
		self.gv, self.splits = tuple(gv), tuple(splits)
		self._closed = {}
		self._spanning = {}
		members = tuple(members)
		if members:
			self._refine(members)

	def refined(self, extra):
		"""The index of this member list joined with extra.

		Joining members only cuts rows and merges G^x-components. Row u is
		cut by the extra members through u, down follows bit by bit, and
		the G^x-components are glued only when some piece m & away of an
		extra member m avoiding x meets two of them; every other x keeps its
		tuple and owner table. changed marks each u whose row was cut and
		each x whose components merged.

		Lemma: a kept closure C with C & changed == 0 is also the closure
		of its mask in the refined index. The rounds of closure read only
		the rows of vertices of the growing set, which stays inside C, and
		test the splits of the x outside it. Rows of vertices in C are
		unchanged. An x in C has unchanged components, so its test gives
		what it gave before. An x outside C tested negative on every subset
		of C, as C & away meets at most one G^x-component, and merging
		components keeps it so. Every round therefore adds what it added
		before, and the fixed point is the same C. Such closures are
		carried over, and the rest are recomputed on demand. On the kernel
		edge of a restriction the extra members are the target D and its
		one-vertex-deleted subsets, all inside D, so only rows of D are cut,
		and a piece meets two G^x-components only for x in D, as D is
		invariant: changed lies in D, and every closure that misses D
		carries over. The spanning sets are not carried; they come back
		from the carried closures. When nothing changed, the tables are
		equal, and the new index shares this one's closure and spanning
		caches.
		"""
		out = object.__new__(PairIndex)
		out.graph, out.rows, out.down = self.graph, self.rows, self.down
		out.gv, out.splits = self.gv, self.splits
		out._closed, out._spanning = self._closed, self._spanning
		out._refine(extra)
		return out

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

		Each row is read once. Lemma: rows are closed under the order, as v
		in row u puts row v inside row u, so the union of the rows of a
		set's vertices is an up-set, and so is the union of an up-set with
		the rows of some more vertices. The first round reads the rows of
		mask's vertices; each later round reads only the rows of the
		vertices the last split test added, since the row of every other
		vertex of the set is already inside. The split test skips every x
		the set holds, as it can only add outside ones. Each round thus
		ends on the set that reading every row of the set would give, so
		the fixed point is the same. The rounds after the first row pass
		are _upward, which takes any up-set as its start: reading the rows
		of an up-set's vertices gives it back, so its closure starts at the
		split test (spanning starts its pairs there).
		"""
		out = self._closed.get(mask)
		if out is None:
			rows = self.rows
			up = 0
			todo = mask
			while todo:
				low = todo & -todo
				up |= rows[low.bit_length() - 1]
				todo ^= low
			out = self._closed[mask] = self._upward(up)
		return out

	def _upward(self, out):
		"""The closure of the up-set out (see closure): split tests, then the rows of what they add."""
		rows = self.rows
		splits = self.splits
		while True:
			grown = out
			for x, away, owner in splits:
				if grown >> x & 1:
					continue
				part = grown & away
				if part & ~owner[(part & -part).bit_length() - 1]:
					grown |= 1 << x
			todo = grown & ~out
			if not todo:
				return out
			out = grown
			while todo:
				low = todo & -todo
				out |= rows[low.bit_length() - 1]
				todo ^= low

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
		G^x-components at a and b (peripheral._pivot), so it holds
		closure({v}) or closure({a, b}), which qualifies as well.

		closure({a, b}) is the closure of closure({a}) | closure({b}), so
		the pairs are taken over distinct single closures, one pair of them
		whenever some vertex of one is not adjacent to some vertex of the
		other; a closure that holds the other, or is the whole graph, adds
		nothing. Closures are up-sets, and a union of two up-sets is an
		up-set, so the rows of its vertices add nothing to it: the closure
		of a pair starts from the union at the split test (_upward), with
		no pass over its rows. It is kept under the union's mask, as
		closure keeps it. The result is kept per mask.
		"""
		out = self._spanning.get(mask)
		if out is not None:
			return out
		graph = self.graph
		full = graph.full
		closed = self._closed
		# each single closure: the vertices of mask it is the closure of,
		# and the vertices adjacent to all of them
		classes = {}
		for v in bits(mask):
			bit = 1 << v
			c = closed.get(bit)
			if c is None:
				c = self.closure(bit)
			vs, near = classes.get(c, (0, full))
			classes[c] = vs | bit, near & graph.adj[v]
		found = set(classes)
		classes = [(c, vs, mask & ~near) for c, (vs, near) in classes.items() if c != full]
		for i, (ca, _, apart) in enumerate(classes):
			for cb, vb, _ in classes[i + 1 :]:
				if vb & apart and ca & ~cb and cb & ~ca:
					union = ca | cb
					c = closed.get(union)
					if c is None:
						c = closed[union] = self._upward(union)
					found.add(c)
		found.discard(full)
		out = self._spanning[mask] = by_size(found)
		return out

	def _refine(self, extra):
		"""Refine this index, still under construction, by extra (see refined)."""
		graph = self.graph
		extra = list(extra)
		rows, down = list(self.rows), list(self.down)
		changed = 0
		for u, blocked in enumerate(blocked_masks(graph, extra)):
			cut = rows[u] & blocked
			if cut:
				rows[u] ^= cut
				bit = 1 << u
				changed |= bit
				for v in bits(cut):
					down[v] &= ~bit
		gv = list(self.gv)
		splits = []
		for x, away, owner in self.splits:
			# the pieces are built only for an x that some extra member
			# merges; the test stops at the first such member
			for m in extra:
				if not m >> x & 1:
					p = m & away
					if p & ~owner[(p & -p).bit_length() - 1]:
						break
			else:
				splits.append((x, away, owner))
				continue
			pieces = [m & away for m in extra if not m >> x & 1]
			comps = gv[x] = tuple(_glue(graph, gv[x], pieces))
			changed |= 1 << x
			if len(comps) > 1:
				splits.append((x, away, owner_table(graph, comps)))
		self.rows, self.down = tuple(rows), tuple(down)
		self.gv, self.splits = tuple(gv), tuple(splits)
		if changed:
			self._closed = {m: c for m, c in self._closed.items() if not c & changed}
			self._spanning = {}
