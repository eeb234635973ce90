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
rest of the package reads rows, gv, closure, spanning, refined, cut,
invariant_sets and pivot, never the split table, owner tables or down-sets
behind them.

Joining members to G only cuts order rows and merges components, so an
index is the member-free one (domination and plain components) refined by
the members. The index of a larger G is refined from the smaller one's by
the added members alone, and it carries over what they leave unchanged: the
rows they do not cut, the G^x-component lists and split entries they merge
nothing of, and the least invariant supersets already found that miss every
changed row and split. Along a restriction chain each kernel adds one
trivial-action target D, so only the closures that meet D are worked out
again, and those only inside the old ones: joining members only shrinks
closures, so each dropped closure bounds the new one, and its rounds test
only the split letters inside the bound.

A peripheral pair carries the index of its G, and a pair built from another
one derives its index rather than rebuilding it: saturation hands the index
over unchanged, since the sets it adds change neither the order nor any
G^v-component; adding_h refines it by the members it adds; and the image of
a restriction or projection cuts it to the target (PairIndex.cut), whose
rows and components are the parent's cut down. The invariant sets are closed
under intersection, so each set has a least invariant superset
(PairIndex.closure), and the closures of single vertices and non-adjacent
pairs (PairIndex.spanning) stand for a saturated G in the pivot search, the
induced index and the leaf shapes. The sets of an invariant target are
those of the whole graph that lie inside it, so the image's members are
filtered from the ones the pivot search built, and they are the image's
own spanning sets.
"""

from .graphs import bits, by_size, compress_masks, cut_masks


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
	members avoiding v. splits[x] is (away, owner) for every x with two or
	more G^x-components and None for every other x, and split_mask marks
	the x it is set for: away is the complement of st(x) and owner the
	owner_table of the G^x-components, so a set S meets two of them exactly
	when S & away & ~owner[least vertex of S & away] is nonzero. Only this
	class reads splits; the down-sets of the order are built where they
	are read (invariant_sets).

	PairIndex(graph, members) is the member-free index (domination rows,
	plain components) refined by members. In the member-free index,
	vertices with one link share a row, and vertices with one star share
	a G^x-component tuple and split entry. No table is ever changed in
	place; refining builds fresh ones. An index is never changed once
	built: refined(extra) returns the index of the member list joined with
	extra, and cut(sub, dmask) the index of the pair induced on dmask,
	each from this index's tables (their docstrings give the lemmas).
	"""

	__slots__ = ("graph", "rows", "gv", "splits", "split_mask", "_closed", "_spanning", "_bounds")

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
		# share the component tuple and its split entry
		split_of = {}
		gv = []
		splits = []
		split_mask = 0
		for x, s in enumerate(star):
			hit = split_of.get(s)
			if hit is None:
				comps = tuple(graph.components(full & ~s))
				split = (full & ~s, owner_table(graph, comps)) if len(comps) > 1 else None
				hit = split_of[s] = comps, split
			comps, split = hit
			gv.append(comps)
			splits.append(split)
			if split is not None:
				split_mask |= 1 << x
		self.gv, self.splits, self.split_mask = tuple(gv), tuple(splits), split_mask
		self._closed = {}
		self._spanning = {}
		self._bounds = {}
		members = tuple(members)
		if members:
			self._refine(members)

	def refined(self, extra):
		"""The index of this member list joined with extra.

		Joining members only cuts rows and merges G^x-components. Row u is
		cut to the intersection of the extra members through u, and the
		G^x-components are glued only when some piece m & away of an
		extra member m avoiding x meets two of them; every other x keeps its
		tuple and split entry. changed marks each u whose row was cut and
		each x whose components merged.

		Lemma (carry): a kept closure C with C & changed == 0 is also the
		closure of its mask in the refined index. The rounds of closure
		read only the rows of vertices of the growing set, which stays
		inside C, and test the splits of the x outside it. Rows of vertices
		in C are unchanged. An x in C has unchanged components, so its test
		gives what it gave before. An x outside C tested negative on every
		subset of C, as C & away meets at most one G^x-component, and
		merging components keeps it so. Every round therefore adds what it
		added before, and the fixed point is the same C. Such closures are
		carried over. On the kernel edge of a restriction the extra members
		are the target D and its one-vertex-deleted subsets, all inside D,
		so only rows of D are cut, and a piece meets two G^x-components
		only for x in D, as D is invariant: changed lies in D, and every
		closure that misses D carries over.

		Lemma (bound): every other kept closure C is an upper bound of its
		mask's closure in the refined index. Every invariant set of this
		index is invariant in the refined one: refined rows lie inside the
		old ones, so an up-set stays one, and for x outside it, its part
		away from st(x) met at most one G^x-component, and the refined
		G^x-components are unions of the old. Joining members thus only
		shrinks closures. Such closures are kept as bounds (_upward says
		how a bound is used), on top of the bounds this index still keeps,
		until spanning(graph.full) is built, after which every closure the
		pivot search and the cut read is worked out. The spanning sets come
		back from the carried closures and the bounds.
		When nothing changed, the tables are equal, and the new index shares
		this one's closure, spanning and bound caches.
		"""
		out = object.__new__(PairIndex)
		out.graph, out.rows = self.graph, self.rows
		out.gv, out.splits, out.split_mask = self.gv, self.splits, self.split_mask
		out._closed, out._spanning, out._bounds = self._closed, self._spanning, self._bounds
		out._refine(extra)
		return out

	def cut(self, sub, dmask):
		"""The index of the pair induced on dmask: PairIndex(sub, members), sub = graph.induced(dmask).

		members is spanning(dmask) cut to dmask (graphs.cut_masks);
		peripheral.induced says when that is the index of the image's G.
		When dmask is invariant (a restriction target) or the complement of
		the center (a projection target), the index is cut from this one's
		tables, with no pass over the members: row v and the
		G^v-components of each v in dmask are cut to dmask and compressed,
		the components sorted again by least vertex; each member is its
		own closure, and the members are the spanning sets of the whole
		subgraph. On any other dmask it is built from the members.

		Lemma (cut): for such a D and u, v in D, v is in the new row u
		exactly when it is in row u, and the G^v-components of the new
		index are the nonempty traces on D of the old ones. Then an old
		invariant set S gives the new invariant set S & D, and a new
		invariant set T is old invariant (D invariant) or T | z is, z the
		center (rows of central vertices lie in z, and z lies in every
		star), so the new closure of a set X inside D is its old closure
		cut to D, all of D when that holds D. The spanning sets of the
		subgraph are thus the members, and a member, being invariant, is
		its own closure.
		- Rows. v in row u puts v in closure({u}), so in every member
		  through u, and lk(u) in st(v) puts lk(u) & D in st(v) & D.
		  Conversely, let lk(u) & D lie in st(v) and let every member
		  through u hold v, so v is in closure({u}) (a member, or it holds
		  D), and in every G-member through u, as G-members are invariant.
		  Off D, a central vertex is in both stars, so lk(u) lies in st(v).
		  For D invariant, a w in lk(u) - D not adjacent to v would make
		  D & st(w) an invariant set holding u and missing v, against v in
		  closure({u}). It is an up-set: a vertex p of D adjacent to w has
		  w in lk(p), inside the star of every q above p. An x in D outside
		  st(w) leaves w away from st(x), and every vertex of D & st(w) away
		  from st(x) is adjacent to w, so they meet one component; an x
		  outside D sees a part of D, which meets one.
		- Components, D the complement of z: for x in D, V - st(x) lies in
		  D, so the old G^x-components are sets of D. A member avoiding x is
		  invariant, so its part away from st(x) lies in one old
		  G^x-component. A G-member avoiding x that holds a and b away from
		  st(x), not adjacent, holds closure({a, b}), which cut to D is a
		  member avoiding x.
		- Components, D invariant: each new G^x-component lies in one old
		  one, as for z. Conversely, let a and b be in one old
		  G^x-component, joined by a chain away from st(x) whose steps are
		  edges or G-members avoiding x, and take a stretch d, y1, ..., yj,
		  d' of it with only its ends in D. Let Y be the y's, M the
		  G-members of its steps and T = D & (st(Y) | M). T holds d and d'
		  and misses x, and it is invariant. It is an up-set, a union of
		  the D & st(y) and the D & m; an x' outside D sees a part of D; an
		  x' in D outside T is in no st(y) and no m, so the steps glue Y
		  and the parts of the m away from st(x') into one
		  G^x'-component, and each vertex of T away from st(x') is
		  adjacent to a y or in an m. So d and d' are adjacent, or
		  closure({d, d'}) is a member avoiding x that glues them, and the
		  stretches join a to b in the new index.
		"""
		graph = self.graph
		members = cut_masks(self.spanning(dmask), dmask)
		if dmask != graph.full & ~graph.center and self.closure(dmask) != dmask:
			return PairIndex(sub, members)
		out = object.__new__(PairIndex)
		out.graph = sub
		out.rows = tuple(compress_masks([self.rows[v] for v in bits(dmask)], dmask))
		# twins with one star share a component tuple here, so they share
		# the cut one and its split entry
		cut_of = {}
		gv = []
		splits = []
		split_mask = 0
		for pos, v in enumerate(bits(dmask)):
			source = self.gv[v]
			hit = cut_of.get(id(source))
			if hit is None:
				comps = [c for c in compress_masks(source, dmask) if c]
				comps.sort(key=lambda c: c & -c)
				comps = tuple(comps)
				split = None
				if len(comps) > 1:
					split = sub.full & ~sub.star_masks[pos], owner_table(sub, comps)
				hit = cut_of[id(source)] = comps, split
			comps, split = hit
			gv.append(comps)
			splits.append(split)
			if split is not None:
				split_mask |= 1 << pos
		out.gv, out.splits, out.split_mask = tuple(gv), tuple(splits), split_mask
		out._closed = {m: m for m in members}
		out._spanning = {sub.full: members}
		out._bounds = {}
		return out

	def closure(self, mask):
		"""The least invariant set holding mask, the whole graph if no proper one does.

		This is the invariance rule, which peripheral.is_invariant reads as
		"the set is its own closure": a set is invariant when it is an
		up-set of the order and no outside star separates it, that is, for
		x outside, its part away from st(x) meets at most one
		G^x-component. Invariant sets are closed under intersection. An
		intersection of up-sets is an up-set, and for x outside S & T, the
		part of S & T away from st(x) lies in the part of S or of T that x
		does not hold, so it meets at most one G^x-component. Every
		invariant superset of mask therefore holds what this adds, round by
		round: the rows of the set's vertices, and each outside x whose
		G^x-components the set meets twice. A round that adds nothing ends
		on an invariant set, after at most n rounds.

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
		split test (spanning starts its pairs there). A kernel index passes
		the bound refined kept for mask.
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
			bound = self._bounds.get(mask, self.graph.full)
			out = self._closed[mask] = self._upward(up, bound)
		return out

	def _upward(self, out, bound):
		"""The closure of the up-set out (see closure), inside bound, an invariant set holding out.

		Split tests, then the rows of what they add. Lemma (bound): only
		the split letters inside bound need a test. Every set the rounds
		reach lies inside the closure, which lies inside bound. A letter x
		outside bound is outside the closure, an invariant set, so the
		closure's part away from st(x) meets one G^x-component, and so
		does the part of every set inside it: x tests negative. Rows are
		read only for added letters. Each round tests the letters of
		split_mask & bound that the set at its start lacks; a letter added
		in the round is not tested again in it. With no bound known,
		bound is the whole graph.
		"""
		rows = self.rows
		splits = self.splits
		letters = self.split_mask & bound
		while True:
			grown = out
			todo = letters & ~out
			while todo:
				low = todo & -todo
				away, owner = splits[low.bit_length() - 1]
				part = grown & away
				if part & ~owner[(part & -part).bit_length() - 1]:
					grown |= low
				todo ^= low
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
		closure keeps it, and takes the bound refined kept there. Building
		the whole graph's sets ends the bounds. The result is kept per mask.

		Lemma (filter): for an invariant mask D, once the whole graph's
		sets are kept, D's are those of them inside D. A vertex or pair of
		D has its closure inside D, so D's sets are among the whole
		graph's; a set of the whole graph's inside D is the closure of a
		vertex or a non-adjacent pair inside it, so of D.
		"""
		out = self._spanning.get(mask)
		if out is not None:
			return out
		graph = self.graph
		full = graph.full
		whole = self._spanning.get(full)
		if whole is not None and self.closure(mask) == mask:
			out = self._spanning[mask] = tuple(m for m in whole if not m & ~mask)
			return out
		closed = self._closed
		bounds = self._bounds
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
						c = closed[union] = self._upward(union, bounds.get(union, full))
					found.add(c)
		found.discard(full)
		out = self._spanning[mask] = by_size(found)
		if mask == full:
			self._bounds = {}
		return out

	def pivot(self, moved):
		"""The least set of spanning(full), by size then mask, that holds a vertex of moved or meets two G^x-components for an x inside it; None if none.

		PeripheralPair.pivot passes the vertices its inversions and
		transvections move, and says why this is the least invariant set
		some generator restricts nontrivially to. The sets tried are
		invariant, so no x outside one sees it meet two G^x-components,
		and only the split letters inside it are looked up.
		"""
		splits = self.splits
		split_mask = self.split_mask
		for m in self.spanning(self.graph.full):
			if m & moved:
				return m
			todo = m & split_mask
			while todo:
				low = todo & -todo
				away, owner = splits[low.bit_length() - 1]
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
		splits = self.splits
		settled = full & ~self.split_mask  # an x with one G^x-component shuts nothing out
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
					away, owner = splits[x]
					part = inside & away
					outside |= table[owner[(part & -part).bit_length() - 1]]
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
		splits = list(self.splits)
		split_mask = self.split_mask
		todo = split_mask
		while todo:
			low = todo & -todo
			todo ^= low
			x = low.bit_length() - 1
			away, owner = splits[x]
			# the pieces are built only for an x that some extra member
			# merges; the test stops at the first such member
			for m in extra:
				if not m & low:
					p = m & away
					if p & ~owner[(p & -p).bit_length() - 1]:
						break
			else:
				continue
			pieces = [m & away for m in extra if not m & low]
			comps = gv[x] = tuple(_glue(graph, gv[x], pieces))
			changed |= low
			if len(comps) > 1:
				splits[x] = away, owner_table(graph, comps)
			else:
				splits[x] = None
				split_mask ^= low
		self.rows = tuple(rows)
		self.gv, self.splits, self.split_mask = tuple(gv), tuple(splits), split_mask
		if changed:
			closed = {}
			bounds = dict(self._bounds)
			for m, c in self._closed.items():
				if c & changed:
					bounds[m] = c
				else:
					closed[m] = c
			self._closed, self._bounds = closed, bounds
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
