"""Dimension accounting over decomposition trees.

The upper bound folds leaf dimensions, projection kernel ranks, and
extension ranks up a tree. Lower bounds come from explicit generator
lists spanning a nilpotent group, commuting ones included: the
transvections count through the paths of the digraph their edges m -> a
form, the dimension of the Lie algebra their logarithms generate, and
the generators acting trivially on homology count once their first
Johnson images are independent modulo the inner automorphisms. Every
homology action, a listed generator's as a commutator's, is read off a
realized letter table at the vertices the map moves (_h1_action). The
Johnson images of the listed generators and of the inner automorphisms
are read off their kind; words are built only for commutators and the
innerness tests. All of it is exact integer linear algebra. A failed
certificate raises; it never degrades into a smaller number silently.
"""

from collections import namedtuple
from heapq import heapify, heappop, heappush
from math import gcd

from .autos import (
	LaurenceGenerator,
	gen_in_relative,
	images_through,
	is_inner,
	realize,
)
from .decompose import (
	FouxeRabinovitch,
	FreeAbelian,
	GeneralLinear,
	Leaf,
	ProjectionStep,
	Trivial,
	decompose,
)
from .errors import CertificationError, DomainError
from .families import diamond_generators, diamond_labels
from .graphs import bits
from .words import WordContext, inverse, mask_word


VcdBound = namedtuple("VcdBound", ["upper", "lower", "per_leaf"])


def bound_to_json_obj(bound):
	return {
		"upper": bound.upper,
		"lower": bound.lower,
		"per_leaf": [
			{"leaf": leaf, "dim": dim, "why": why}
			for leaf, dim, why in bound.per_leaf
		],
	}


# ---- leaf dimensions ----


def leaf_dimension(shape):
	"""Dimension of one leaf together with a short provenance tag.

	Trivial leaves count 0, free abelian ones their rank, and a GL(m, Z)
	leaf its unipotent block m(m - 1)/2 plus its extension rank. A
	Fouxe-Rabinovitch leaf, a free product of factors with free rank m,
	has a rule for three shapes:

	- no factors: Out(F_m) has dimension 2m - 3 for m >= 2, and 0 below;
	- one held clique factor of size q with free rank s >= 1: q(2s - 1);
	- two held factors and no free rank: the sum over the factors of the
	  clique number less the size of the center.

	Any other free product is "unknown".
	"""
	if isinstance(shape, Trivial):
		return 0, "trivial"
	if isinstance(shape, FreeAbelian):
		return shape.rank, "free-abelian rank"
	if isinstance(shape, GeneralLinear):
		dim = shape.extension_rank + shape.m * (shape.m - 1) // 2
		return dim, "unipotent block plus extension"
	if isinstance(shape, FouxeRabinovitch):
		factors, m = shape.factors, shape.free_rank
		if not factors:
			return max(2 * m - 3, 0), "free group outer"
		if len(factors) == 1 and shape.held[0] and m >= 1 and factors[0].center == factors[0].full:
			return factors[0].n * (2 * m - 1), "held clique by free"
		if len(factors) == 2 and m == 0 and all(shape.held):
			dim = sum(f.clique_number() - f.center.bit_count() for f in factors)
			return dim, "two held factors"
		return "unknown", "free product with no formula"
	raise DomainError("unknown leaf shape %r" % (shape,))


def _add(a, b):
	if a == "unknown" or b == "unknown":
		return "unknown"
	return a + b


def fold(tree):
	"""Upper bound for a tree with a per-leaf ledger.

	Ledger rows are (node id, contribution, tag) in walk order; the id is
	the node's path from DecompositionNode.walk, with a trailing z for a
	projection kernel. The bound is the sum of the contributions.
	"""
	rows = []
	for path, _, _, node, _ in tree.walk():
		step = node.step
		if isinstance(step, Leaf):
			rows.append((path, *leaf_dimension(step.shape)))
		elif isinstance(step, ProjectionStep):
			rows.append((path + ".z", step.kernel_rank, "projection kernel"))
	total = 0
	for _, dim, _ in rows:
		total = _add(total, dim)
	return total, rows


def vcd_upper(tree):
	return fold(tree)[0]


# ---- exact linear algebra over the integers ----


class _Echelon:
	"""Rational row space of sparse integer vectors, kept fraction-free.

	A vector is a dict {column: entry} over sortable columns. Rows are
	primitive with a positive entry at their pivot, the least column they
	use, and are kept in a dict keyed by pivot. Reducing a vector scales
	the vector, never a row, so every entry stays an integer. It
	eliminates only the pivots the vector uses, smallest first; a row
	adds only columns above its pivot, so each pivot is eliminated at most
	once.
	"""

	__slots__ = ("rows",)

	def __init__(self):
		self.rows = {}

	def _reduce(self, vec):
		rows = self.rows
		vec = {key: x for key, x in vec.items() if x}
		todo = [key for key in vec if key in rows]
		heapify(todo)
		while todo:
			pivot = heappop(todo)
			c = vec.get(pivot)
			if not c:
				continue
			row = rows[pivot]
			g = gcd(c, row[pivot])
			a, b = row[pivot] // g, c // g
			if a != 1:
				for key in vec:
					vec[key] *= a
			for key, y in row.items():
				x = vec.get(key)
				if x is None:
					vec[key] = -b * y
					if key in rows:
						heappush(todo, key)
				elif x == b * y:
					del vec[key]
				else:
					vec[key] = x - b * y
		return vec

	def add(self, vec):
		"""Add a vector; whether it enlarged the space."""
		if not vec:
			return False
		vec = self._reduce(vec)
		if not vec:
			return False
		pivot = min(vec)
		g = gcd(*vec.values()) * (1 if vec[pivot] > 0 else -1)
		self.rows[pivot] = {key: x // g for key, x in vec.items()}
		return True


# ---- homology action ----


def _h1_action(images, vmask):
	"""M - 1 for the matrix M of a letter table's action on the abelianized group.

	Sparse as {(v, w): nonzero entry}, row v read off the image of v, so
	it is empty exactly when the action is trivial. Only the rows of the
	vertices in vmask are read: the table must fix every other vertex,
	whose row adds -1 + 1 = 0 on the diagonal and nothing else.
	"""
	out = {}
	for v in bits(vmask):
		out[v, v] = -1
		for letter in images[2 * v]:
			key = (v, letter >> 1)
			out[key] = out.get(key, 0) + (-1 if letter & 1 else 1)
	return {key: x for key, x in out.items() if x}


def _homology_dimension(n, gens, mats):
	"""Dimension of the Lie algebra the logarithms of the homology actions generate.

	mats[k] is gens[k]'s M - 1, from _h1_action. A transvection m^a
	acts as 1 + E_ma, and since E_ma^2 = 0 its logarithm is E_ma. An
	inversion (M - 1 = -2 E_vv) and a nontrivial symmetry (finite order,
	not 1) are not unipotent, and a partial conjugation or the identity
	symmetry acts trivially. So the logarithms are the E_ma over the edges
	m -> a of a digraph on the vertices. As [E_ij, E_jk] = E_ik, the
	algebra they generate, when the digraph is acyclic, has the basis
	{E_ik : a directed path leads from i to k}, a span closed under
	brackets; when the digraph has a cycle it holds some E_ij and E_ji, so
	it contains sl_2 and is not nilpotent. Raises at the first generator,
	in list order, that acts nontrivially and is not a transvection, then
	on a cycle; otherwise returns the number of ordered pairs joined by a
	path, read off the bitmask transitive closure (Warshall).
	"""
	reach = [0] * n
	for gen, mat in zip(gens, mats):
		if not mat:
			continue
		if gen.kind != "trv":
			raise CertificationError(
				"the homology action of %s is not unipotent" % gen
			)
		moved, acting = gen.data
		reach[moved] |= 1 << acting
	for k in range(n):
		for i in range(n):
			if reach[i] >> k & 1:
				reach[i] |= reach[k]
	if any(reach[i] >> i & 1 for i in range(n)):
		raise CertificationError(
			"the homology image does not generate a nilpotent Lie algebra"
		)
	return sum(r.bit_count() for r in reach)


# ---- the first Johnson homomorphism ----


def _conjugation_johnson(x, region):
	"""First Johnson image of u -> x u x^-1 on a region away from st(x).

	The image lives in gamma2/gamma3, free abelian on the non-edges
	{a < b}, and the coordinate of v on {a, b} is the degree-2 Magnus
	coefficient of v^-1 phi(v). For u in the region that word is
	u^-1 x u x^-1, the commutator on the non-edge {u, x}: its coefficient
	is -1 when u < x and +1 when x < u. Vertices outside the region are
	fixed and count 0. Returns {(u, a, b): coefficient}.
	"""
	return {(u, min(u, x), max(u, x)): -1 if u < x else 1 for u in bits(region)}


def _certify_johnson_independent(graph, gens):
	"""Raise unless the Johnson images of gens are independent modulo Inn.

	gens act trivially on homology, so each is a partial conjugation or
	the identity symmetry, whose image is 0. Conjugation by c is the
	partial conjugation of everything away from st(c), since it fixes
	st(c). Johnson images add under composition, so a product of the
	gens with exponent vector e, taken in any order, has image
	sum(e_i tau(gen_i)). When each tau(gen_i) leaves the span of the
	inner images and of the earlier ones, that sum is never an inner
	image for e != 0: the gens span a free abelian group of rank
	len(gens) in IA/Inn.
	"""
	if not gens:
		return
	ech = _Echelon()
	for c in range(graph.n):
		ech.add(_conjugation_johnson(c, graph.full & ~graph.star_masks[c]))
	for i, gen in enumerate(gens):
		tau = _conjugation_johnson(*gen.data) if gen.kind == "pc" else {}
		if not ech.add(tau):
			raise CertificationError(
				"%s is dependent on {%s} modulo inner automorphisms under the "
				"Johnson homomorphism, so an inner product is not excluded"
				% (gen, ", ".join(map(str, gens[:i])))
			)


# ---- lower bound certificates ----


def _commutator(ctx, a, b):
	"""Letter table of a b a^-1 b^-1, and the mask of the vertices it moves.

	Only the vertices a or b moves are threaded, each through b^-1,
	a^-1, b and a; both maps and their inverses fix every other vertex,
	so the commutator does.
	"""
	return images_through(ctx, b.back, (a.back, b.images, a.images), a.moved | b.moved)


def _image_masks(phi):
	"""{v: mask of the vertices of phi's image of v} over the vertices phi moves."""
	return {v: mask_word(phi.images[2 * v]) for v in bits(phi.moved)}


def _commuting_pairs(ctx, phis):
	"""Index pairs i < j, in order, whose automorphisms do not commute as maps.

	A map moves v when its image of v is not the letter v, and its span
	is the vertices it moves together with the vertices of their images.
	When neither of a and b moves a vertex of the other's span, each
	fixes every letter the other touches, so ab = ba. Otherwise ab = ba
	exactly when a(b(v)) b(a(v))^-1 reduces to the empty word at every
	vertex v that a or b moves; both maps fix every other vertex. A
	vertex v that b fixes, where the letters of a(v) avoid every vertex
	b moves, needs no threading: a(b(v)) = a(v) = b(a(v)). The same
	holds with a and b swapped. These tests decide equality in the
	automorphism group, and a commuting pair's commutator is the
	identity, inner with the empty witness.

	The pairs returned are the declined ones, those that fail both
	tests: the only ones whose commutator needs building. On a clique of
	n vertices, whose triangle list has about n^2/2 maps, they number
	about n^3/6, against about n^4/8 commuting pairs.
	"""
	image_masks = [_image_masks(phi) for phi in phis]
	moved = [phi.moved for phi in phis]
	span = []
	for m, im in zip(moved, image_masks):
		for w in im.values():
			m |= w
		span.append(m)

	def commute(i, j):
		mi, mj = moved[i], moved[j]
		if not (mi & span[j] or mj & span[i]):
			return True
		a, b = phis[i], phis[j]
		for v in bits(mi | mj):
			if not mj >> v & 1 and not image_masks[i][v] & mj:
				continue
			if not mi >> v & 1 and not image_masks[j][v] & mi:
				continue
			x = ctx.apply_map(b.images[2 * v], a.images)
			y = ctx.apply_map(a.images[2 * v], b.images)
			if x != y and ctx.reduce(x + inverse(y)):
				return False
		return True

	return [(i, j) for i in range(len(phis)) for j in range(i + 1, len(phis)) if not commute(i, j)]


def _by_action(phis):
	"""The listed generators and their inverses, keyed by homology action.

	Values are lists of (k, start, table, moved) in list order, phi_k
	before phi_k^-1: a commutator c is phi_k in the outer group when
	c phi_k^-1 is inner, start being the letter table of phi_k^-1 and
	table that of phi_k, and phi_k^-1 when c phi_k is, with the two
	tables swapped. moved is phi_k.moved, the vertices both tables move.
	"""
	listed = {}
	for k, phi in enumerate(phis):
		for start, table in ((phi.back, phi.images), (phi.images, phi.back)):
			mat = _h1_action(table, phi.moved)
			listed.setdefault(frozenset(mat.items()), []).append((k, start, table, phi.moved))
	return listed


def _match(ctx, listed, c, moved, cmat):
	"""The first k under c's homology action cmat with c = phi_k^(+-1) in Out, or None.

	moved is the mask of the vertices c moves. An inner automorphism
	acts trivially on homology, so c phi_k^-1 can be inner only when c
	acts as phi_k does: the entries under any other action need no
	is_inner call. Each remaining entry is tested in list order, so the
	first hit is the first k that an is_inner scan finds:

	- equal reduced letter tables are equal automorphisms, so when c
	  moves exactly the vertices phi_k moves and its image of each is
	  phi_k's word letter for letter, c phi_k^-1 is the identity, inner
	  with the empty witness, and is_inner is not called;
	- otherwise is_inner decides c phi_k^-1, whose table threads only
	  the vertices that c or phi_k moves: both fix every other vertex.
	"""
	for k, start, table, tmoved in listed.get(frozenset(cmat.items()), ()):
		if moved == tmoved and all(c[2 * v] == table[2 * v] for v in bits(moved)):
			return k
		if is_inner(ctx, images_through(ctx, start, (c,), moved | tmoved)[0]).status == "yes":
			return k
	return None


def certify_lower_bound(graph, gens, nilpotent=False):
	"""Certified Hirsch length of the group a generator list spans.

	Without nilpotent, every pair must commute in the outer group. With
	it, every commutator of listed generators must be inner or again a
	listed generator up to sign and inner factors; unless the graph is a
	clique (where the homology action is faithful), generators reached as
	commutators must have inner commutators with everything, pinning the
	class at two. The homology part must be transvections with no cycle
	of edges m -> a, and contributes the number of ordered vertex pairs
	joined by a path: the dimension of the nilpotent Lie algebra its
	logarithms generate. Conjugation-type
	generators contribute one each once their Johnson images are
	independent modulo the inner automorphisms.

	Every realized map carries the mask of the vertices it moves
	(Automorphism.moved), and each step reads or threads only those
	vertices, through autos.images_through. The homology action of a
	listed generator, of its inverse and of a commutator is one function,
	_h1_action, read at the rows of the vertices the map moves. Only the
	pairs _commuting_pairs declines get a commutator c, each vertex
	threaded through the letter tables of b^-1, a^-1, b and a; no
	composite automorphism is built. These lemmas skip work whose
	outcome the data already settles:

	- _commuting_pairs leaves a vertex unthreaded when one map fixes it
	  and the other's image of it avoids every vertex the first moves,
	  as both composites then send it to that image;
	- an inner automorphism acts trivially on H1, so c is non-inner when
	  its homology action (_h1_action, read at the vertices c moves) is
	  nontrivial; is_inner runs only on the commutators that act
	  trivially, and once more on one whose non-innerness raises, for
	  the reason it gives;
	- c phi_k^-1 (or c phi_k) can be inner only when c acts on homology
	  as phi_k (or phi_k^-1) does, so a non-inner c is tested only
	  against the listed generators and inverses under its own action,
	  looked up in a dict that keeps list order (_by_action, _match): the
	  first hit is the first k a scan of the list finds;
	- equal reduced letter tables are equal automorphisms, so an entry
	  whose table moves the vertices c moves, with c's words there, is a
	  hit with no is_inner call; any other entry goes to is_inner on a
	  table threaded at the vertices c or phi_k moves.

	Each commutator is matched where it is built, and only the matched
	index and each generator's least non-commuting partner (for the
	class-two check) are kept. The first commutator that matches nothing
	raises after the homology count (_homology_dimension), so the count's
	own failures come first.
	"""
	ctx = WordContext(graph)
	phis = [realize(ctx, gen) for gen in gens]
	mats = [_h1_action(phi.images, phi.moved) for phi in phis]
	listed = _by_action(phis) if nilpotent else {}
	derived, partner, unmatched = set(), {}, None
	for i, j in _commuting_pairs(ctx, phis):
		c, moved = _commutator(ctx, phis[i], phis[j])
		cmat = _h1_action(c, moved)
		if not cmat and is_inner(ctx, c).status == "yes":
			continue
		if not nilpotent:
			res = is_inner(ctx, c)
			raise CertificationError(
				"generators %s and %s do not commute in the outer group: %s"
				% (gens[i], gens[j], res.reason or res.status)
			)
		match = _match(ctx, listed, c, moved, cmat)
		if match is None:
			unmatched = i, j
			break
		derived.add(match)
		# pairs come in order, so each generator keeps its least partner
		partner.setdefault(i, j)
		partner.setdefault(j, i)

	lie_dim = _homology_dimension(graph.n, gens, mats)
	if unmatched:
		i, j = unmatched
		raise CertificationError(
			"the commutator of %s and %s is neither inner nor listed"
			% (gens[i], gens[j])
		)
	if graph.center != graph.full:
		for k in sorted(derived):
			if k in partner:
				raise CertificationError(
					"%s is reached as a commutator but does not commute with %s"
					% (gens[k], gens[partner[k]])
				)

	j_all = [gen for gen, mat in zip(gens, mats) if not mat]
	_certify_johnson_independent(graph, j_all)
	return lie_dim + len(j_all)


# ---- report ----


def _triangle_list(pair):
	"""Transvections below the diagonal that the peripheral pair allows.

	The trv j^i with i < j among the pair's generators, in their order.
	"""
	return [gen for gen in pair.gens() if gen.kind == "trv" and gen.data[1] < gen.data[0]]


def _derive_generators(pair):
	"""A certifiable list for the shapes the package knows cold.

	Cliques get their below-diagonal transvections, an absolute diamond
	chain gets its commuting list, and any other shape the empty list.
	"""
	graph = pair.graph
	if graph.center == graph.full:
		return _triangle_list(pair)
	if pair.g_members or pair.h_members:
		return []
	labels = diamond_labels(graph)
	if labels is None:
		return []
	d = (graph.n - 1) // 3
	if d == 1:
		return [
			LaurenceGenerator.transvection(graph, labels["b1"], labels["a1"]),
			LaurenceGenerator.transvection(graph, labels["c0"], labels["c1"]),
		]
	return diamond_generators(graph, d, labels=labels)


def vcd_report(pair, script=None, gens=None, nilpotent=False):
	"""Decompose, fold the upper bound, and certify a lower bound.

	A supplied generator list must lie in the pair's group and
	drives certification directly; nilpotent lets its members fail to
	commute. Without one, cliques and absolute diamond chains get a list
	derived automatically; any other graph settles for a certified lower
	bound of zero. Both bounds are proofs, so a certified lower bound
	above the upper bound is a bug in the package and raises RuntimeError.
	"""
	tree = decompose(pair, mode="script", script=script)
	upper, per_leaf = fold(tree)
	if gens is None:
		gens = _derive_generators(pair)
		nilpotent = True
	else:
		for gen in gens:
			if not gen_in_relative(gen, pair):
				raise DomainError(
					"%s is not in the group being bounded" % (gen,)
				)
	lower = certify_lower_bound(pair.graph, gens, nilpotent) if gens else 0
	if upper != "unknown" and lower > upper:
		raise RuntimeError(
			"certified lower bound %d exceeds the upper bound %d" % (lower, upper)
		)
	return VcdBound(upper, lower, per_leaf)
