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
parts. Only members that join a pair are checked (adding_h). A
member list that gains members has them inserted in order, and a list is
sorted again only where it is cut down (induced).

Each pair carries the order index of its G (orders.PairIndex, whose
module says how a derived pair's index is carried over). Only the
constructor lists G when it builds a pair. Every derived pair carries
what it needs to list its G and lists it on first read, as a saturated G
can hold up to 2^n - 2 members; which members a derived pair lists is
fixed when it is built, not by what was read before.
"""

from bisect import bisect_left
from collections import namedtuple

from .autos import enumerate_generators
from .errors import CapabilityError, DomainError
from .graphs import DefiningGraph, bits, by_size, cut_masks
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
	_derived. Pairs are never changed in place (adding_h and induced
	build new ones), so the pivot is cached on them. The order
	index of G is built on first use, unless the pair was derived from one
	whose index was built. A derived pair lists G on first read.
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
	def _derived(cls, graph, h_members, index, list_g, saturated=False):
		"""A pair from checked parts: H as by_size gives it, G as list_g() lists it.

		list_g is called on the first read of g_members and returns G
		ordered by by_size, with H folded in; index is G's, or None to
		build it from G on first use.
		"""
		out = cls.__new__(cls)
		out.graph = graph
		out._g_members = None
		out._list_g = list_g
		out.h_members = h_members
		out.saturated = saturated
		out._index = index
		out._pivot = None
		return out

	@property
	def g_members(self):
		"""G as masks, by size then value; a derived pair lists G here."""
		if self._g_members is None:
			self._g_members = self._list_g()
			self._list_g = None
		return self._g_members

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
		"""The least invariant set, by size then mask, some generator restricts nontrivially to; None if none.

		An inversion or transvection acts nontrivially exactly on the sets
		holding its moved vertex, so those generators collapse into one
		mask, which _moved reads off the index without listing them. The
		listed partial conjugations with acting letter x are one per
		G^x-component but one; some of them acts nontrivially on m exactly
		when m meets two G^x-components. The generator list holds no
		symmetries. Only the sets of PairIndex.spanning are tried
		(PairIndex.pivot), which hold the least qualifying one; on a
		saturated pair that is the least such member, and on any other pair
		the least such member of its saturation.

		Worked out once, as auto mode reads it for the step and again for a
		leaf's precondition; 0 stands for none in the cache.
		"""
		if self._pivot is None:
			self._pivot = self.index.pivot(_moved(self)) or 0
		return self._pivot or None

	def complexity(self):
		return Complexity(self.graph.n, (1 << self.graph.n) - len(self.h_members))

	def summary(self):
		return "n=%d |G|=%d |H|=%d" % (self.graph.n, len(self.g_members), len(self.h_members))

	def adding_h(self, extra):
		"""Same pair with extra masks joined into H, and folded into G.

		G gains what folding adds from extra alone, as G holds the folds of
		the old H; the result is not saturated. When this pair's index is
		built, the new one is refined from it by those folds alone; members
		already in G refine nothing.
		"""
		extra = _checked(self.graph, extra)
		folds = _folded(extra)
		index = None if self._index is None else self._index.refined(folds)
		return PeripheralPair._derived(
			self.graph,
			_inserted(self.h_members, extra),
			index,
			lambda: _inserted(self.g_members, folds),
		)

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
		return by_size(index.invariant_sets())

	return PeripheralPair._derived(graph, pp.h_members, index, list_g, saturated=True)


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


def induced(pp, dmask, periphery=False):
	"""The image of a restriction or projection step: the pair induced on dmask.

	Members intersect down; intersections that are empty or all of dmask
	are dropped. The result lives on the induced graph, with masks
	compressed accordingly. H stays folded into G (deleted-vertex subsets
	of intersections are intersections of deleted-vertex subsets), but the
	result is not saturated. With periphery, G also holds the members of
	fast_periphery(pp, dmask), which lie inside dmask: the image of a
	restriction step on a pair that is not saturated. G is cut from pp's
	on first read, and so is the periphery worked out.

	dmask must be a restriction or projection target: invariant for pp,
	or the complement of the center. Any other target is refused. The
	index is PairIndex.spanning(dmask) cut to dmask, which is the index
	of G when the result is a restriction or projection image: pp
	saturated, the periphery added, or dmask the complement of the
	center. On a saturated pair G is every proper invariant set (spanning
	says why), and with the periphery the image is the restriction
	image, whose index is that of the saturated one
	(decompose.restriction_step). That index is the pair's own rows and
	components cut to dmask (PairIndex.cut, which gives the lemmas), so
	it is cut from pp's index rather than built. On any other pair the
	index need not be G's.
	"""
	graph = pp.graph
	if dmask != graph.full & ~graph.center and not is_invariant(pp, dmask):
		raise DomainError("target is neither invariant nor the complement of the center")
	sub = graph.induced(dmask)
	list_g = lambda: cut_masks(pp.g_members + (fast_periphery(pp, dmask) if periphery else ()), dmask)
	index = pp.index.cut(sub, dmask)
	return PeripheralPair._derived(sub, cut_masks(pp.h_members, dmask), index, list_g)


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
