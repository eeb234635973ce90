"""Relative versions of domination, adjacency and connectivity.

Fixing a collection G of special subgroups (given as vertex masks of their
defining subgraphs), the order u <=_G v refines domination by requiring every
member of G through u to contain v. Two vertices are G-adjacent when they are
adjacent or lie in a common member; gluing along co-membership turns ordinary
components into G-components. The G^v variants only glue along members
avoiding v, which is what partial conjugations with acting letter v care
about.

g_components and n_g take the member collection as an iterable of masks, so
both the preserved list and its normalized closure can be passed without
conversion. PairIndex tabulates the order and the G^v-components of one
member list, and this module alone knows how those tables are stored: the
rest of the package reads rows, gv, closure, spanning, refined,
invariant_sets and pivot, never the split list, owner tables or down-sets
behind them.

Joining members to G only cuts order rows and merges components, so an
index is the member-free one (domination and plain components) refined by
the members. The index of a larger G is refined from the smaller one's by
the added members alone, and it carries over what they leave unchanged: the
rows they do not cut, the G^x-component lists and owner tables they merge
nothing of, and the least invariant supersets already found that miss every
changed row and split. Along a restriction chain each kernel adds one
trivial-action target D, so only the closures that meet D are worked out
again.

A peripheral pair carries the index of its G, and a pair built from another
one with the same graph derives its index rather than rebuilding it:
saturation hands the index over unchanged, since the sets it adds change
neither the order nor any G^v-component, and adding_h refines it by the
members it adds. The invariant sets are closed under intersection, so each
set has a least invariant superset (PairIndex.closure), and the closures of
single vertices and non-adjacent pairs (PairIndex.spanning) stand for a
saturated G in the pivot search, the induced index and the leaf shapes.
"""

from .graphs import bits, by_size


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

	rows[u] is the mask of every v with u <=_G v; it is closed under the
	order, since the order is transitive. gv[v] lists the G^v-components of
	the complement of st(v), the G-components of that set under the
	members avoiding v. splits holds (x, away, owner) for every x with two
	or more G^x-components: away is the complement of st(x) and owner the
	owner_table of the G^x-components, so a set S meets two of them exactly
	when S & away & ~owner[least vertex of S & away] is nonzero. Only this
	class reads splits; the down-sets of the order are built where they
	are read (invariant_sets).

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

	__slots__ = ("graph", "rows", "gv", "splits", "_closed", "_spanning")

	def __init__(self, graph, members=()):
		full = graph.full
		star = graph.star_masks
		self.graph = graph
		# u <= v when lk(u) lies in st(v), that is, when v is in the star
		# of every neighbour of u; twins with one link share the row
		row_of = {}  # link -> row
		rows = []
		for link in graph.adj:
			row = row_of.get(link)
			if row is None:
				row = full
				# inline lowest-bit loop: cheaper than a bits() generator here
				rest = link
				while rest:
					low = rest & -rest
					row &= star[low.bit_length() - 1]
					rest ^= low
				row_of[link] = row
			rows.append(row)
		self.rows = tuple(rows)
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
		cut to the intersection of the extra members through u, and the
		G^x-components are glued only when some piece m & away of an
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
		out.graph, out.rows = self.graph, self.rows
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
		G^x-components at a and b (pivot), so it holds
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

	def pivot(self, moved):
		"""The least set of spanning(full), by size then mask, that holds a vertex of moved or meets two G^x-components for an x inside it; None if none.

		PeripheralPair.pivot passes the vertices its inversions and
		transvections move, and says why this is the least invariant set
		some generator restricts nontrivially to. The sets tried are
		invariant, so no x outside one sees it meet two G^x-components,
		and only the split letters inside it are looked up.
		"""
		split_at = {}  # x -> (away, owner) for each split letter x
		split_mask = 0
		for x, away, owner in self.splits:
			split_at[x] = away, owner
			split_mask |= 1 << x
		for m in self.spanning(self.graph.full):
			if m & moved:
				return m
			todo = m & split_mask
			while todo:
				low = todo & -todo
				away, owner = split_at[low.bit_length() - 1]
				part = m & away
				if part & ~owner[(part & -part).bit_length() - 1]:
					return m
				todo ^= low
		return None

	def invariant_sets(self):
		"""All proper nonempty invariant masks, as up-sets of the relative order.

		Branches on the lowest undecided vertex v: either v is in, and with it
		everything above it (rows[v]), or v is out, and with it everything below
		it (down[v]). Once an out vertex x sees the in set meet one of its
		G^x-components, every other G^x-component must stay out too, so those
		and everything below them are shut out at once and x is settled. A
		branch dies when its in and out sets meet. Vertices whose star holds
		the whole in set (core) impose nothing yet. Every surviving leaf is an
		up-set that no outside star separates, so the cost follows the number
		of up-sets rather than 2^n.

		The tables are built as the search reaches them, so the cost follows
		what it visits. An x with at most one G^x-component shuts nothing out
		and starts settled. The shut-out sets of a split x are built on its
		first visit, one per G^x-component, as the OR of the down-closures of
		the other components (prefix and suffix ORs), and read through x's
		owner table from splits. The core a row imposes is built the
		first time the search branches on its vertex. The in branch goes on in
		place, so each branch pushes one state. Together with the shared
		twin tables of the member-free PairIndex, this took the saturate
		benchmark from a median of 1,199 to 1,570 instances/s over ten runs
		each (2 cores, python 3.11): four_path(5,5,4,5) searches 13 nodes for
		its 5 sets, and building every table up front cost more than that.
		The down-sets are the one table built whole, read off the rows
		when the search starts.

		A branch can die only while settling: the in set is an up-set and
		the out set a down-set, so adding rows[v] or down[v] for an
		undecided v cannot make them meet. The settle loop therefore stops
		at the first shut-out set that meets the in set. Without that exit,
		511 of the 1,172 settle steps of a diamond_chain(6) instance (mean
		over random vertex orders) run on dead branches, and each of the
		147 dead branches dies settling the vertex it branched out on. The
		exit and an inline loop for the row core took the saturate
		benchmark from a median of 1,519 to 1,759 instances/s (six
		alternated 30 s pairs, same host).

		A depth-first search over the closed sets of closure finds the
		same sets, but it cut the saturate benchmark to about a third and
		took diamond_chain(6) from 1.6 to 9.7 ms; retry it only with a faster
		closure.
		"""
		graph = self.graph
		n = graph.n
		rows, gv = self.rows, self.gv
		full = graph.full
		star = graph.star_masks
		# down[v] is every u with u <=_G v, read off the rows
		down = [0] * n
		for u, row in enumerate(rows):
			bit = 1 << u
			# inline lowest-bit loop: cheaper than a bits() generator here
			while row:
				low = row & -row
				down[low.bit_length() - 1] |= bit
				row ^= low
		aways = [0] * n
		owners = [None] * n  # owner tables of the x with two or more G^x-components
		settled = full
		for x, away, owner in self.splits:
			aways[x] = away
			owners[x] = owner
			settled ^= 1 << x
		shut = [None] * n  # shut[x][c]: everything at or below the G^x-components but c
		row_core = [None] * n  # the vertices whose star holds all of rows[v]
		out = []
		stack = [(0, 0, settled, full)]  # in, out, settled, core
		while stack:
			inside, outside, settled, core = stack.pop()
			while True:
				todo = outside & ~(settled | core)
				while todo:
					low = todo & -todo
					x = low.bit_length() - 1
					table = shut[x]
					if table is None:
						table = shut[x] = _shut_table(gv[x], down)
					part = inside & aways[x]
					outside |= table[owners[x][(part & -part).bit_length() - 1]]
					if outside & inside:
						break
					settled |= low
					todo = outside & ~(settled | core)
				if inside & outside:
					break
				rest = full & ~(inside | outside)
				if not rest:
					if inside and outside:
						out.append(inside)
					break
				v = (rest & -rest).bit_length() - 1
				stack.append((inside, outside | down[v], settled, core))
				row = rows[v]
				c = row_core[v]
				if c is None:
					c = full
					# inline lowest-bit loop: cheaper than a bits() generator here
					ys = row
					while ys:
						low = ys & -ys
						c &= star[low.bit_length() - 1]
						ys ^= low
					row_core[v] = c
				inside |= row
				core &= c
		return out

	def _refine(self, extra):
		"""Refine this index, still under construction, by extra (see refined)."""
		graph = self.graph
		extra = list(extra)
		# u <=_G v needs v in every member through u: intersect the extra
		# members over the vertices they hold, then cut only those rows
		meets = {}  # u -> the intersection of the extra members through u
		for m in extra:
			rest = m
			while rest:
				low = rest & -rest
				u = low.bit_length() - 1
				meets[u] = meets.get(u, m) & m
				rest ^= low
		rows = list(self.rows)
		changed = 0
		for u, meet in meets.items():
			cut = rows[u] & ~meet
			if cut:
				rows[u] ^= cut
				changed |= 1 << u
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
		self.rows = tuple(rows)
		self.gv, self.splits = tuple(gv), tuple(splits)
		if changed:
			self._closed = {m: c for m, c in self._closed.items() if not c & changed}
			self._spanning = {}


def _shut_table(comps, down):
	"""Each of comps mapped to everything at or below the others, through prefix and suffix ORs."""
	below = []
	for c in comps:
		d = 0
		# inline lowest-bit loop: components are small, and a bits()
		# generator costs more than the body on those
		while c:
			low = c & -c
			d |= down[low.bit_length() - 1]
			c ^= low
		below.append(d)
	table = {}
	acc = 0
	for c, d in zip(comps, below):
		table[c] = acc
		acc |= d
	acc = 0
	for c, d in zip(reversed(comps), reversed(below)):
		table[c] |= acc
		acc |= d
	return table
