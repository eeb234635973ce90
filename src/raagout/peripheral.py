"""Peripheral structures on a defining graph.

A peripheral pair (G, H) fixes two collections of proper special subgroups:
the members of G must be preserved up to conjugacy, the members of H must be
acted on as inner automorphisms of the ambient group. Every pair is
normalized, meaning G absorbs H together with enough of its subsets that
the generator membership criteria become the clean order and component
conditions of the orders module; the constructor folds H in, and every
derived pair keeps it folded. Saturation then enlarges G to contain every
invariant proper special subgroup, which is the hypothesis under which
restriction images are again relative groups. The invariant subgraphs are
the up-sets of the relative order that no outside star separates, so
listing them enumerates up-sets rather than all subgraphs; fast_periphery
produces the smaller collection that suffices for a single restriction
target.

A pair is checked once, where it enters: the constructor validates and
sorts both member lists, and every other pair is derived from checked
parts. Only members that join a pair are checked (adding_g, adding_h). A
member list that gains members has them inserted in order, and a list is
sorted again only where it is cut down (induced).

Each pair carries the order index of its G (orders.PairIndex). A pair built
from another one with the same graph derives its index rather than
rebuilding it: saturation hands the index over unchanged, since the sets it
adds change neither the order nor any G^v-component, and adding_g and
adding_h refine it by the members they add. A refined index keeps the rows,
owner tables and closures those members leave unchanged; a kernel, which
adds one invariant target, recomputes only the closures that meet it.

The invariant sets are closed under intersection, so each set has a least
invariant superset (PairIndex.closure), and the closures of single
vertices and non-adjacent pairs (PairIndex.spanning) stand for a saturated
G in the pivot search, the induced index and the leaf shapes. G is
therefore unlisted only when the pair derives from a saturation
(saturation(), adding_g and adding_h of an unlisted pair, and induced of
a saturated pair, or of an unlisted one on a join target): such a pair
carries its index and lists G only when it is read, as there can be up
to 2^n - 2 members. Every other pair lists G when it is built.
"""

from bisect import bisect_left
from collections import namedtuple

from .autos import enumerate_generators
from .errors import CapabilityError, DomainError
from .graphs import DefiningGraph, bits, by_size, compress_mask
from . import orders

SATURATE_CAP = 20

Complexity = namedtuple("Complexity", ["n", "m"])


def _size_key(m):
	return m.bit_count(), m


def _inserted(members, extra):
	"""members, ordered as by_size orders them, with each new mask of extra inserted in place.

	A kernel adds a handful of masks to a list of up to a thousand, so
	inserting them is linear where sorting again is not.
	"""
	out = list(members)
	for m in extra:
		i = bisect_left(out, _size_key(m), key=_size_key)
		if i == len(out) or out[i] != m:
			out.insert(i, m)
	return tuple(out)


def _checked(graph, members):
	"""The distinct nonempty members as a set, refusing the whole graph."""
	out = set(members)
	if graph.full in out:
		raise DomainError("peripheral members must be proper subgraphs")
	out.discard(0)
	return out


class PeripheralPair:
	"""The pair (G, H), members stored as vertex masks, H folded into G.

	A pair on its graph fixes one relative outer automorphism group, and
	the decomposition takes pairs for their groups. The constructor checks
	both member lists and folds H into G; derived pairs come from
	_derived. Pairs are never changed in place (adding_g, adding_h and
	induced all build new ones), so the pivot is cached on them. The order
	index of G is built on first use, unless the pair was derived from one
	whose index was built. A pair whose G is unlisted (see listed) has its
	index from the start and lists G on first read.
	"""

	__slots__ = ("graph", "_g_members", "_list_g", "h_members", "saturated", "_index", "_pivot")

	def __init__(self, graph, g_members=(), h_members=()):
		self.graph = graph
		self.h_members = by_size(_checked(graph, h_members))
		self._g_members = by_size(_checked(graph, g_members) | _folded(self.h_members))
		self._list_g = None
		self.saturated = False
		self._index = None
		self._pivot = None

	@classmethod
	def absolute(cls, graph):
		"""The pair with no members, as PeripheralPair(graph) builds it.

		Kept for callers written when a group wrapped its pair
		(perfbench/workloads.py calls it); nothing in the package does.
		"""
		return cls(graph)

	@classmethod
	def _derived(cls, graph, g_members, h_members, index, list_g=None, saturated=False):
		"""A pair from checked parts: member tuples as by_size gives them, H folded into G.

		With list_g, g_members is None and G is list_g(), called on the
		first read of g_members; index must then be G's, since building it
		would list G.
		"""
		out = cls.__new__(cls)
		out.graph = graph
		out._g_members = g_members
		out._list_g = list_g
		out.h_members = h_members
		out.saturated = saturated
		out._index = index
		out._pivot = None
		return out

	@property
	def g_members(self):
		"""G as masks, by size then value; an unlisted G is listed here."""
		if self._g_members is None:
			self._g_members = self._list_g()
			self._list_g = None
		return self._g_members

	@property
	def listed(self):
		"""Is G listed yet? Only a pair derived from a saturation starts without it."""
		return self._g_members is not None

	def to_json_obj(self):
		return {
			"G": [self.graph.names(m) for m in self.g_members],
			"H": [self.graph.names(m) for m in self.h_members],
		}

	def normalize(self):
		"""The pair itself: the constructor already folds H into G.

		Kept for callers written when pairs had to be normalized by hand
		(perfbench/workloads.py calls it); nothing in the package does.
		"""
		return self

	@property
	def index(self):
		"""The relative order and G^v-components of G, as an orders.PairIndex."""
		if self._index is None:
			self._index = orders.PairIndex(self.graph, self.g_members)
		return self._index

	def gens(self):
		"""The Laurence generators of the pair's group (autos.enumerate_generators)."""
		return enumerate_generators(self)

	def pivot(self):
		"""The least invariant set some generator restricts nontrivially to, None if none (_pivot).

		Worked out once, as auto mode reads it for the step and again for a
		leaf's precondition; 0 stands for none in the cache.
		"""
		if self._pivot is None:
			self._pivot = _pivot(self) or 0
		return self._pivot or None

	def complexity(self):
		return Complexity(self.graph.n, (1 << self.graph.n) - len(self.h_members))

	def summary(self):
		return "n=%d |G|=%d |H|=%d" % (self.graph.n, len(self.g_members), len(self.h_members))

	def adding_g(self, extra):
		"""Same pair with extra masks joined into G; the result is not saturated.

		Growing G keeps H folded into it. A saturated G stays saturated
		only when every extra mask is invariant, which no caller needs, so
		the result never claims it.
		"""
		return self._joined(_checked(self.graph, extra), self.h_members)

	def adding_h(self, extra):
		"""Same pair with extra masks joined into H, and folded into G.

		G gains what folding adds from extra alone, as G holds the folds of
		the old H; the result is not saturated.
		"""
		extra = _checked(self.graph, extra)
		return self._joined(_folded(extra), _inserted(self.h_members, extra))

	def _joined(self, extra, h_members):
		"""A pair on the same graph whose G is this G joined with the set extra.

		When this pair's index is built, the new one is refined from it by
		extra alone; members already in G refine nothing. An unlisted G
		stays unlisted.
		"""
		index = None if self._index is None else self._index.refined(extra)
		list_g = lambda: _inserted(self.g_members, extra)
		if self._g_members is None:
			return PeripheralPair._derived(self.graph, None, h_members, index, list_g)
		return PeripheralPair._derived(self.graph, list_g(), h_members, index)

	def __repr__(self):
		fmt = lambda ms: [self.graph.names(m) for m in ms]
		return "PeripheralPair(G=%r, H=%r)" % (fmt(self.g_members), fmt(self.h_members))


def _folded(h_members):
	"""What normalization joins to G: each H-member and its one-vertex-deleted subsets."""
	out = set()
	for m in h_members:
		out.add(m)
		out.update(m & ~(1 << v) for v in bits(m))
	out.discard(0)
	return out


def is_invariant(pp, dmask):
	"""Is the special subgroup on dmask preserved by the whole relative group?

	It is exactly when dmask is its own least invariant superset
	(orders.PairIndex.closure, which states the rule).
	"""
	return pp.index.closure(dmask) == dmask


def _moved(pp):
	"""The vertices some inversion or transvection of the pair moves.

	Lemma: these are the moved vertices of the inversions and
	transvections enumerate_generators lists, read off the index without
	listing them. The inversion of v is listed exactly when no member of
	H holds v, and a transvection moving v exactly when row v of the
	relative order holds a vertex besides v.
	"""
	held = 0
	for m in pp.h_members:
		held |= m
	moved = pp.graph.full & ~held
	for v, row in enumerate(pp.index.rows):
		if row & ~(1 << v):
			moved |= 1 << v
	return moved


def _pivot(pp):
	"""The least invariant set, by size then mask, some generator restricts nontrivially to.

	An inversion or transvection acts nontrivially exactly on the sets
	holding its moved vertex, so those generators collapse into one mask:
	the vertices in no member of H, moved by their inversions, and those
	whose order row holds another vertex, moved by transvections. _moved
	reads it off the index without listing the generators. The listed
	partial conjugations with acting letter x are one per G^x-component
	but one; some of them acts nontrivially on m exactly when m meets two
	G^x-components, which one lookup in the owner table of those
	components tells. The generator list holds no symmetries.
	Only the sets of PairIndex.spanning are tried, which hold the least
	qualifying one; on a saturated pair that is the least such member,
	and on any other pair the least such member of its saturation. Those
	sets are invariant, so no x outside one sees it meet two
	G^x-components, and only the x inside it are looked up.
	"""
	index = pp.index
	moved = _moved(pp)
	splits = index.splits
	for m in index.spanning(pp.graph.full):
		if m & moved:
			return m
		for x, away, owner in splits:
			if m >> x & 1:
				part = m & away
				if part & ~owner[(part & -part).bit_length() - 1]:
					return m
	return None


def _invariant_scan(graph, index):
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
	owner table from index.splits. The core a row imposes is built the
	first time the search branches on its vertex. The in branch goes on in
	place, so each branch pushes one state. Together with the shared
	twin tables of the member-free PairIndex, this took the saturate
	benchmark from a median of 1,199 to 1,570 instances/s over ten runs
	each (2 cores, python 3.11): four_path(5,5,4,5) searches 13 nodes for
	its 5 sets, and building every table up front cost more than that.

	A depth-first search over the closed sets of PairIndex.closure finds
	the same sets, but it cut the saturate benchmark to about a third and
	took diamond_chain(6) from 1.6 to 9.7 ms; retry it only with a faster
	closure.
	"""
	n = graph.n
	rows, down, gv = index.rows, index.down, index.gv
	full = graph.full
	star = graph.star_masks
	aways = [0] * n
	owners = [None] * n  # owner tables of the x with two or more G^x-components
	settled = full
	for x, away, owner in index.splits:
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
				for y in bits(row):
					c &= star[y]
				row_core[v] = c
			inside |= row
			core &= c
	return out


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


def saturation(pp):
	"""The pair with G enlarged by every proper invariant subgraph, listed on first read.

	The enlarged pair keeps pp's index (see saturate), so it is ready for
	everything that reads the index or the closures; only reading its
	g_members runs the up-set enumeration. The number of up-sets can
	grow as 2^n, so that read is refused on graphs above SATURATE_CAP
	vertices.
	"""
	graph = pp.graph
	index = pp.index

	def list_g():
		if graph.n > SATURATE_CAP:
			raise CapabilityError(
				"listing the saturated members is capped at %d vertices and this graph "
				"has %d: the invariant subgraphs can number up to 2^n - 2; vcd does "
				"not list them, printing a decomposition tree does" % (SATURATE_CAP, graph.n)
			)
		return by_size(_invariant_scan(graph, index))

	return PeripheralPair._derived(graph, None, pp.h_members, index, list_g, saturated=True)


def saturate(pp):
	"""Enlarge G with every proper invariant subgraph, listed now.

	A single enumeration suffices: the added subgroups were already
	invariant, so the group, and with it the invariant collection, does not
	change. The enlarged pair keeps pp's index, by this lemma: every
	G-member is invariant (an up-set, since each member through u holds
	everything above u, and inside one G^x-component away from each
	outside st(x), since it glues its own piece there), so the enumeration
	returns all of G and the enlarged G is exactly its output. Each set S
	it adds is an up-set that no outside star separates. Joining S cuts
	row u only for u in S, by S, which holds row u already, so it removes
	no relation u <=_G v; its piece away from st(x), for x outside S, meets
	at most one G^x-component, and S is no G^x-member for x in S, so it
	merges no G^x-components. Graphs above SATURATE_CAP vertices are
	refused, since the number of up-sets can still grow exponentially with
	n; saturation() defers the listing, and with it the cap, to the first
	read of the members.
	"""
	out = saturation(pp)
	out.g_members  # listed here, so the cap applies here
	return out


def induced(pp, dmask):
	"""The peripheral pair induced on the subgraph dmask.

	Members intersect down; intersections that are empty or all of dmask
	are dropped. The result lives on the induced graph, with masks
	compressed accordingly. H stays folded into G (deleted-vertex subsets
	of intersections are intersections of deleted-vertex subsets), but the
	result is not saturated.

	A listed pair is cut now. The result of a saturated pair, or of an
	unlisted one on a join target (every vertex outside dmask adjacent to
	every vertex of it, as the complement of a center is), leaves G
	unlisted, cut from pp's on first read, and builds its index from
	PairIndex.spanning(dmask) cut to dmask. That is the index cutting all
	of G gives: on a saturated pair G is every proper invariant set
	(spanning says why). On a join target D, for u and v in D, lk(u) lies
	in st(v) in the induced graph exactly when it does in the whole graph,
	as both stars hold V - D, and a member through u misses v exactly when
	its cut does; for x in D, V - st(x) lies inside D, so the
	G^x-components are the same sets. The closures add only up-sets that
	meet one G^x-component away from st(x) for each x outside them, which
	change no row and merge no component. So the cut index is the pair's
	own rows and components on D, whichever list it is cut from.
	"""
	graph = pp.graph
	sub = graph.induced(dmask)
	cut = lambda ms: by_size(
		compress_mask(c, dmask) for c in {m & dmask for m in ms} - {0, dmask}
	)
	h_members = cut(pp.h_members)
	lazy = pp.saturated or not pp.listed and all(
		graph.adj[x] & dmask == dmask for x in bits(graph.full & ~dmask)
	)
	if not lazy:
		return PeripheralPair._derived(sub, cut(pp.g_members), h_members, None)
	index = orders.PairIndex(sub, cut(pp.index.spanning(dmask)))
	return PeripheralPair._derived(sub, None, h_members, index, lambda: cut(pp.g_members))


def fast_periphery(pp, dmask):
	"""The periphery P_Delta making one restriction image exact.

	Two sources: links of outside vertices cut down to dmask, and relative
	neighbourhoods of the maximal relative-connected subgraphs (away from
	each inside vertex's star) that avoid dmask. Empty and full cuts are
	dropped. Requires dmask to be a proper nonempty invariant set, since
	that is what makes the restriction map defined in the first place. It
	need not be a member of G: the members read are those avoiding a
	vertex of dmask, and dmask is never one of them.
	"""
	graph = pp.graph
	if dmask == graph.full:
		raise DomainError("peripheral members must be proper subgraphs")
	if not dmask:
		raise DomainError("the periphery target must be nonempty")
	if not is_invariant(pp, dmask):
		raise DomainError("target is not invariant for this pair")
	out = set()
	for x in bits(graph.full & ~dmask):
		cut = graph.adj[x] & dmask
		if cut and cut != dmask:
			out.add(cut)
	for x in bits(dmask):
		gx = [m for m in pp.g_members if not m >> x & 1]
		away = graph.full & ~graph.star_masks[x] & ~dmask
		for theta in orders.g_components(graph, gx, away):
			cut = orders.n_g(graph, gx, theta) & dmask
			if cut and cut != dmask:
				out.add(cut)
	return by_size(out)


def cone_graph(graph, g_members):
	"""Cone off every member of G, then cone off the whole graph twice.

	Each added vertex is adjacent to exactly its member's vertices, so its
	link in the new graph is that member. Added names are prefixed with
	"@" to stay clear of the original vertex names.
	"""
	for m in g_members:
		if m == graph.full:
			raise DomainError("cone members must be proper subgraphs")
	names = list(graph.vertices)
	edges = [list(e) for e in graph.to_json_obj()["edges"]]
	cones = [("@%d" % i, m) for i, m in enumerate(by_size(set(g_members)))]
	cones.append(("@G", graph.full))
	cones.append(("@*", graph.full))
	if set(names).intersection(cname for cname, _ in cones):
		raise DomainError("a vertex name clashes with an added cone vertex")
	for cname, m in cones:
		names.append(cname)
		for v in bits(m):
			edges.append([cname, graph.vertices[v]])
	return DefiningGraph(names, edges)
