"""Peripheral structures on a defining graph.

A peripheral pair (G, H) fixes two collections of proper special subgroups:
the members of G must be preserved up to conjugacy, the members of H must be
acted on as inner automorphisms of the ambient group. Everything downstream
assumes the pair is normalized, meaning G absorbs H together with enough of
its subsets that the generator membership criteria become the clean order and
component conditions of the orders module. Saturation then enlarges G to
contain every invariant proper special subgroup, which is the hypothesis
under which restriction images are again relative groups. The invariant
subgraphs are the up-sets of the relative order that no outside star
separates, so listing them enumerates up-sets rather than all subgraphs;
fast_periphery produces the smaller collection that suffices for a single
restriction target.

Each pair carries the order index of its G (orders.PairIndex). A pair built
from another one with the same graph derives its index rather than
rebuilding it: saturation hands the index over unchanged, since the sets it
adds change neither the order nor any G^v-component, and adding_g, adding_h
and normalize refine it by the members they add.

The invariant sets are closed under intersection, so each set has a least
invariant superset (PairIndex.closure), and the closures of single
vertices and non-adjacent pairs (PairIndex.spanning) stand for a saturated
G in the pivot search, the induced index and the leaf shapes. Saturated
pairs built with saturation(), and the pairs derived from them, therefore
carry their index and list G only when it is read; there can be up to
2^n - 2 members.
"""

from .errors import CapabilityError, DomainError
from .graphs import DefiningGraph, bits, compress_mask
from . import orders

SATURATE_CAP = 20


def _by_size(masks):
	"""The masks as a tuple, ordered by size, then by value."""
	out = sorted(masks)
	out.sort(key=int.bit_count)
	return tuple(out)


class PeripheralPair:
	"""The pair (G, H), members stored as vertex masks.

	normalized says whether H is folded into G (normalize); operations
	with a normalization precondition call require_normalized rather than
	silently closing up. Pairs are never changed in place (adding_g,
	adding_h, normalize and induced all build new ones). The order index
	of G is built on first use, unless the pair was derived from one whose
	index was built. A lazy pair (see _lazy) has its index from the start
	and lists G on first read.
	"""

	__slots__ = (
		"graph", "_g_members", "_list_g", "h_members", "normalized", "saturated", "_index"
	)

	def __init__(self, graph, g_members=(), h_members=(), normalized=False, saturated=False):
		self.graph = graph
		self._g_members = self._clean(g_members)
		self._list_g = None
		self.h_members = self._clean(h_members)
		self.normalized = normalized
		self.saturated = saturated
		self._index = None

	@classmethod
	def _lazy(cls, graph, list_g, index, h_members, normalized, saturated=False):
		"""A pair whose G is list_g(), called on the first read of g_members.

		The index must be G's, since building it would list G.
		"""
		out = cls(graph, (), h_members, normalized, saturated)
		out._g_members = None
		out._list_g = list_g
		out._index = index
		return out

	@property
	def g_members(self):
		"""G as masks, by size then value; a lazy pair lists it here."""
		if self._g_members is None:
			self._g_members = self._clean(self._list_g())
			self._list_g = None
		return self._g_members

	def _clean(self, members):
		out = set(members)
		if self.graph.full in out:
			raise DomainError("peripheral members must be proper subgraphs")
		out.discard(0)
		return _by_size(out)

	def to_json_obj(self):
		return {
			"G": [self.graph.names(m) for m in self.g_members],
			"H": [self.graph.names(m) for m in self.h_members],
		}

	def normalize(self):
		"""Fold H into G so the membership criteria apply.

		Adds each H-member and its one-vertex-deleted subsets, which leaves
		the represented group unchanged.
		"""
		return self._joined(_folded(self.h_members), self.h_members, True)

	@property
	def index(self):
		"""The relative order and G^v-components of G, as an orders.PairIndex."""
		if self._index is None:
			self._index = orders.PairIndex(self.graph, self.g_members)
		return self._index

	def require_normalized(self):
		if not self.normalized:
			raise DomainError("peripheral pair must be normalized first")

	def adding_g(self, extra):
		"""Same pair with extra masks joined into G.

		Growing G keeps the normalization invariant (it only constrains
		which subsets of H-members are present), so the flag survives. A
		saturated G already holds every invariant mask, so it stays
		saturated only when every extra mask is one; the closures it is
		read through would not see any other.
		"""
		extra = list(extra)
		saturated = self.saturated and all(is_invariant(self, m) for m in extra)
		return self._joined(extra, self.h_members, self.normalized, saturated)

	def adding_h(self, extra):
		"""Same pair with extra masks joined into H, normalized again.

		G gains what normalization folds in from extra alone, as a normalized
		G holds the folds of the old H; the result is not saturated.
		"""
		self.require_normalized()
		extra = tuple(extra)
		return self._joined(_folded(extra), self.h_members + extra, True)

	def _joined(self, extra, h_members, normalized, saturated=False):
		"""A pair on the same graph whose G is this G joined with extra.

		When this pair's index is built, the new one is refined from it by
		extra alone; members already in G refine nothing. A lazy pair gives
		a lazy pair.
		"""
		extra = list(extra)
		if self._g_members is None:
			return PeripheralPair._lazy(
				self.graph,
				lambda: self.g_members + tuple(extra),
				self._index.refined(extra),
				h_members,
				normalized,
				saturated,
			)
		out = PeripheralPair(
			self.graph,
			self.g_members + tuple(extra),
			h_members,
			normalized=normalized,
			saturated=saturated,
		)
		if self._index is not None:
			out._index = self._index.refined(extra)
		return out

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
	pp.require_normalized()
	return pp.index.closure(dmask) == dmask


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

	It keeps its own shut-out propagation: a depth-first search over the
	closed sets of PairIndex.closure finds the same sets, but it cut the
	saturate benchmark from about 1,130 to 385 instances/s and took
	diamond_chain(6) from 1.6 to 9.7 ms (2 cores, python 3.11). Retry it
	only with a faster closure.
	"""
	rows, down = index.rows, index.down
	full = graph.full
	star = graph.star_masks
	away = [full & ~star[x] for x in range(graph.n)]
	# shut[x][w]: everything at or below the G^x-components that miss w
	shut = []
	for x in range(graph.n):
		table = [0] * graph.n
		for c in index.gv[x]:
			below = 0
			for y in bits(away[x] & ~c):
				below |= down[y]
			for w in bits(c):
				table[w] = below
		shut.append(table)
	row_core = []
	for v in range(graph.n):
		core = full
		for y in bits(rows[v]):
			core &= star[y]
		row_core.append(core)
	out = []
	stack = [(0, 0, 0, full)]  # in, out, settled, core
	while stack:
		inside, outside, settled, core = stack.pop()
		todo = outside & ~settled & ~core
		while todo:
			low = todo & -todo
			x = low.bit_length() - 1
			part = inside & away[x]
			outside |= shut[x][(part & -part).bit_length() - 1]
			settled |= low
			todo = outside & ~settled & ~core
		if inside & outside:
			continue
		rest = full & ~(inside | outside)
		if not rest:
			if inside and outside:
				out.append(inside)
			continue
		v = (rest & -rest).bit_length() - 1
		stack.append((inside, outside | down[v], settled, core))
		stack.append((inside | rows[v], outside, settled, core & row_core[v]))
	return out


def saturation(pp):
	"""The pair with G enlarged by every proper invariant subgraph, listed on first read.

	The enlarged pair keeps pp's index (see saturate), so it is ready for
	everything that reads the index or the closures; only reading its
	g_members runs the up-set enumeration. The number of up-sets can
	grow as 2^n, so that read is refused on graphs above SATURATE_CAP
	vertices.
	"""
	pp.require_normalized()
	graph = pp.graph
	index = pp.index

	def list_g():
		if graph.n > SATURATE_CAP:
			raise CapabilityError(
				"listing the saturated members is capped at %d vertices and this graph "
				"has %d: the invariant subgraphs can number up to 2^n - 2; vcd does "
				"not list them, printing a decomposition tree does" % (SATURATE_CAP, graph.n)
			)
		return _invariant_scan(graph, index)

	return PeripheralPair._lazy(
		graph, list_g, index, pp.h_members, pp.normalized, saturated=True
	)


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
	compressed accordingly. Normalization survives the construction
	(deleted-vertex subsets of intersections are intersections of
	deleted-vertex subsets), saturation does not.

	On a saturated pair, G is every proper invariant set, and the result
	is lazy: its G is cut from pp's on first read, and its index is built
	from PairIndex.spanning(dmask) cut to dmask, which gives the same
	index as cutting all of G.
	"""
	sub = pp.graph.induced(dmask)
	cut = lambda ms: [
		compress_mask(c, dmask) for c in {m & dmask for m in ms} - {0, dmask}
	]
	if not pp.saturated:
		return PeripheralPair(sub, cut(pp.g_members), cut(pp.h_members), normalized=pp.normalized)
	return PeripheralPair._lazy(
		sub,
		lambda: cut(pp.g_members),
		orders.PairIndex(sub, cut(pp.index.spanning(dmask))),
		cut(pp.h_members),
		pp.normalized,
	)


def fast_periphery(pp, dmask):
	"""The periphery P_Delta making one restriction image exact.

	Two sources: links of outside vertices cut down to dmask, and relative
	neighbourhoods of the maximal relative-connected subgraphs (away from
	each inside vertex's star) that avoid dmask. Empty and full cuts are
	dropped. Requires dmask to be a member of G, since that is what makes
	the restriction map defined in the first place.
	"""
	pp.require_normalized()
	graph = pp.graph
	if dmask not in pp.g_members:
		raise DomainError("fast_periphery target must be a member of G")
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
	return _by_size(out)


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
	cones = [("@%d" % i, m) for i, m in enumerate(_by_size(set(g_members)))]
	cones.append(("@G", graph.full))
	cones.append(("@*", graph.full))
	if set(names).intersection(cname for cname, _ in cones):
		raise DomainError("a vertex name clashes with an added cone vertex")
	for cname, m in cones:
		names.append(cname)
		for v in bits(m):
			edges.append([cname, graph.vertices[v]])
	return DefiningGraph(names, edges)
