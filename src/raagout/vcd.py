"""Dimension accounting over decomposition trees.

The upper bound folds leaf dimensions, projection kernel ranks, and
extension ranks up a tree. Lower bounds come from explicit generator
lists spanning a nilpotent group, commuting ones included: the
generators acting on homology count through the dimension of the Lie
algebra their unipotent image generates, and the generators acting
trivially count once their first Johnson images are independent modulo
the inner automorphisms. All of it is exact integer linear algebra. A
failed certificate raises; it never degrades into a smaller number
silently.
"""

from collections import namedtuple
from math import gcd, lcm

from .autos import (
	Automorphism,
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
		if shape.rank_lower != shape.rank_upper:
			return shape.rank_upper, "free-abelian rank upper (lower %d differs)" % (
				shape.rank_lower
			)
		return shape.rank_upper, "free-abelian rank"
	if isinstance(shape, GeneralLinear):
		dim = shape.extension_rank + shape.m * (shape.m - 1) // 2
		return dim, "unipotent block plus extension"
	if isinstance(shape, FouxeRabinovitch):
		factors, m = shape.factors, shape.free_rank
		if not factors:
			return max(2 * m - 3, 0), "free group outer"
		if len(factors) == 1 and shape.held[0] and m >= 1 and factors[0].is_clique(factors[0].full):
			return factors[0].n * (2 * m - 1), "held clique by free"
		if len(factors) == 2 and m == 0 and all(shape.held):
			dim = sum(f.clique_number() - f.subgraph_center(f.full).bit_count() for f in factors)
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
	for path, node, _ in tree.walk():
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

	A vector is a dict {column: entry} over sortable columns. Rows
	are primitive with a positive entry at their pivot, the least column
	they use, and are kept sorted by pivot; reducing a vector scales the
	vector, never a row, so every entry stays an integer.
	"""

	__slots__ = ("rows",)

	def __init__(self):
		self.rows = []

	def _reduce(self, vec):
		vec = {key: x for key, x in vec.items() if x}
		for pivot, row in self.rows:
			c = vec.get(pivot)
			if c:
				g = gcd(c, row[pivot])
				a, b = row[pivot] // g, c // g
				for key in vec:
					vec[key] *= a
				for key, y in row.items():
					x = vec.get(key, 0) - b * y
					if x:
						vec[key] = x
					else:
						del vec[key]
		return vec

	def add(self, vec):
		"""Add a vector; whether it enlarged the space."""
		vec = self._reduce(vec)
		if not vec:
			return False
		pivot = min(vec)
		g = gcd(*vec.values()) * (1 if vec[pivot] > 0 else -1)
		self.rows.append((pivot, {key: x // g for key, x in vec.items()}))
		self.rows.sort(key=lambda pr: pr[0])
		return True


# ---- homology action ----


def _h1_action(ctx, images):
	"""Integer matrix of the action on the abelianized group of a letter table."""
	n = ctx.graph.n
	rows = []
	for v in range(n):
		row = [0] * n
		for letter in images[2 * v]:
			row[letter >> 1] += -1 if letter & 1 else 1
		rows.append(tuple(row))
	return tuple(rows)


def _identity_matrix(n):
	return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _product(a, b):
	"""Product of sparse matrices {(i, j): nonzero entry}."""
	rows = {}
	for (k, j), y in b.items():
		rows.setdefault(k, []).append((j, y))
	out = {}
	for (i, k), x in a.items():
		for j, y in rows.get(k, ()):
			out[i, j] = out.get((i, j), 0) + x * y
	return {key: x for key, x in out.items() if x}


def _bracket(a, b):
	out = _product(a, b)
	for key, y in _product(b, a).items():
		out[key] = out.get(key, 0) - y
	return {key: x for key, x in out.items() if x}


def _log_unipotent(m, what):
	"""A positive multiple of the logarithm of a unipotent integer matrix.

	Raises when the matrix is not unipotent; finite-order actions are
	exactly the ones a polycyclic certificate must not count. The powers
	of m - 1 are integer matrices; the series is summed over the lcm of
	its denominators 1..k and divided by the gcd of the entries, so the
	result is the primitive integer matrix on the logarithm's rational
	line, sparse as {(i, j): nonzero entry}. Ranks and the rational Lie
	algebra a list generates depend only on those lines.
	"""
	n = len(m)
	nil = {
		(i, j): x - (i == j)
		for i, row in enumerate(m)
		for j, x in enumerate(row)
		if x != (i == j)
	}
	powers = []
	power = nil
	while power:
		if len(powers) == n:
			raise CertificationError(
				"the homology action of %s is not unipotent" % what
			)
		powers.append(power)
		power = _product(power, nil)
	scale = lcm(*range(1, len(powers) + 1))
	total = {}
	for k, power in enumerate(powers, 1):
		c = (-1) ** (k + 1) * (scale // k)
		for key, x in power.items():
			total[key] = total.get(key, 0) + c * x
	g = gcd(*total.values())
	return {key: x // g for key, x in total.items() if x}


def _lie_closure(logs):
	"""Basis of the rational Lie algebra generated by the given matrices.

	The matrices are sparse integer ones, so all arithmetic is in
	integers. Every new basis element is bracketed with every earlier
	one, which closes the span. The algebra is then certified nilpotent
	by driving its lower central series to zero; a list whose homology
	image generates something free-ish fails here rather than producing
	a bogus dimension.
	"""
	ech = _Echelon()
	basis = []
	for m in logs:
		if ech.add(m):
			basis.append(m)
	i = 0
	while i < len(basis):
		for b in basis[:i]:
			c = _bracket(basis[i], b)
			if ech.add(c):
				basis.append(c)
		i += 1
	layer = basis
	while layer:
		nxt_ech = _Echelon()
		nxt = []
		for a in layer:
			for b in basis:
				c = _bracket(a, b)
				if nxt_ech.add(c):
					nxt.append(c)
		if len(nxt) >= len(layer):
			raise CertificationError(
				"the homology image does not generate a nilpotent Lie algebra"
			)
		layer = nxt
	return basis


# ---- the first Johnson homomorphism ----


def _johnson(ctx, phi):
	"""First Johnson image of an automorphism acting trivially on homology.

	For each vertex v the word v^-1 phi(v) lies in the commutator subgroup
	gamma2, and gamma2/gamma3 is free abelian on the non-edges {a < b}. The
	coordinate on {a, b} is the degree-2 Magnus coefficient mu(ab), the
	sum of e*f over letter pairs a^e before b^f; one pass over the word
	with running exponent sums finds it. Swapping two commuting letters
	only moves edge pairs and a cancelling pair adds e*f - e*f, so the
	value is well defined on the group; it is additive on gamma2 and kills
	gamma3, which makes phi -> image a homomorphism on IA. Returns
	{(v, a, b): coefficient} without zeros.
	"""
	graph = ctx.graph
	below = [((1 << b) - 1) & ~graph.star_masks[b] for b in range(graph.n)]
	out = {}
	for v in range(graph.n):
		sums = [0] * graph.n
		for lt in (2 * v + 1,) + phi.images[2 * v]:
			b = lt >> 1
			e = -1 if lt & 1 else 1
			for a in bits(below[b]):
				if sums[a]:
					key = (v, a, b)
					out[key] = out.get(key, 0) + sums[a] * e
			sums[b] += e
	return {key: c for key, c in out.items() if c}


def _conjugation(ctx, c):
	"""The inner automorphism v -> c v c^-1."""
	forward = [(2 * c, 2 * v, 2 * c + 1) for v in range(ctx.graph.n)]
	backward = [(2 * c + 1, 2 * v, 2 * c) for v in range(ctx.graph.n)]
	return Automorphism.from_images(ctx, forward, backward)


def _certify_johnson_independent(ctx, phis, names):
	"""Raise unless the Johnson images of phis are independent modulo Inn.

	Johnson images add under composition, so a product of the phis with
	exponent vector e, taken in any order, has image sum(e_i tau(phi_i)).
	When each tau(phi_i) leaves the span of the inner images and of the
	earlier ones, that sum is never an inner image for e != 0: the phis
	span a free abelian group of rank len(phis) in IA/Inn.
	"""
	if not phis:
		return
	inner = [_johnson(ctx, _conjugation(ctx, c)) for c in range(ctx.graph.n)]
	images = [_johnson(ctx, phi) for phi in phis]
	ech = _Echelon()
	for tau in inner:
		ech.add(tau)
	for i, tau in enumerate(images):
		if not ech.add(tau):
			raise CertificationError(
				"%s is dependent on {%s} modulo inner automorphisms under the "
				"Johnson homomorphism, so an inner product is not excluded"
				% (names[i], ", ".join(names[:i]))
			)


# ---- lower bound certificates ----


def _commutator(ctx, a, b):
	"""Letter table of a b a^-1 b^-1: each vertex through b^-1, a^-1, b, a."""
	return images_through(ctx, b.back, a.back, b.images, a.images)


def _commuting_pairs(ctx, phis):
	"""Index pairs i < j whose automorphisms commute as maps.

	A map moves v when its image of v is not the letter v, and its span
	is the vertices it moves together with the vertices of their images.
	When neither of a and b moves a vertex of the other's span, each
	fixes every letter the other touches, so ab = ba. Otherwise ab = ba
	exactly when a(b(v)) b(a(v))^-1 reduces to the empty word at every
	vertex v that a or b moves; both maps fix every other vertex. Both
	tests decide equality in the automorphism group, and a commuting
	pair's commutator is the identity, inner with the empty witness.
	"""
	moved, span = [], []
	for phi in phis:
		m = s = 0
		for v, w in enumerate(phi.images[::2]):
			if w != (2 * v,):
				m |= 1 << v
				s |= 1 << v | mask_word(w)
		moved.append(m)
		span.append(s)

	def commute(i, j):
		if not (moved[i] & span[j] or moved[j] & span[i]):
			return True
		a, b = phis[i], phis[j]
		for v in bits(moved[i] | moved[j]):
			x = ctx.apply_map(b.images[2 * v], a.images)
			y = ctx.apply_map(a.images[2 * v], b.images)
			if x != y and ctx.reduce(x + inverse(y)):
				return False
		return True

	return {(i, j) for i in range(len(phis)) for j in range(i + 1, len(phis)) if commute(i, j)}


def certify_lower_bound(graph, gens, nilpotent=False):
	"""Certified Hirsch length of the group a generator list spans.

	Without nilpotent, every pair must commute in the outer group. With
	it, every commutator of listed generators must be inner or again a
	listed generator up to sign and inner factors; unless the graph is a
	clique (where the homology action is faithful), generators reached as
	commutators must have inner commutators with everything, pinning the
	class at two. The homology part contributes the dimension of the Lie
	algebra its logarithms generate, which must be nilpotent; for a
	commuting list that is the rank of the logarithms. Conjugation-type
	generators contribute one each once their Johnson images are
	independent modulo the inner automorphisms.

	A pair (a, b) is first tested for commuting in the automorphism
	group (_commuting_pairs): supports that miss each other, or equal
	images a(b(v)) and b(a(v)) at every moved vertex. A pair that
	commutes there has the identity as its commutator and needs no more.
	Any other pair is tested on vertex images alone: each vertex is
	threaded through the letter tables of b^-1, a^-1, b and a, three
	apply_map calls, and is_inner reads the words that come out; no
	composite automorphism is built. A non-inner commutator c is matched
	against a listed phi_k the same way, through the vertex images of
	c phi_k^-1 and c phi_k.
	"""
	ctx = WordContext(graph)
	phis = [realize(ctx, gen) for gen in gens]
	commuting = _commuting_pairs(ctx, phis)
	noninner = {}
	for i in range(len(gens)):
		for j in range(i + 1, len(gens)):
			if (i, j) in commuting:
				continue
			c = _commutator(ctx, phis[i], phis[j])
			res = is_inner(ctx, c)
			if res.status == "yes":
				continue
			if not nilpotent:
				raise CertificationError(
					"generators %s and %s do not commute in the outer group: %s"
					% (gens[i], gens[j], res.reason or res.status)
				)
			noninner[i, j] = c

	ident = _identity_matrix(graph.n)
	mats = [_h1_action(ctx, phi.images) for phi in phis]
	logs = [
		_log_unipotent(mat, gen)
		for gen, mat in zip(gens, mats)
		if mat != ident
	]
	lie_dim = len(_lie_closure(logs))

	inv_mats = [_h1_action(ctx, phi.back) for phi in phis] if noninner else []
	derived = set()
	for (i, j), c in noninner.items():
		cmat = _h1_action(ctx, c)
		# c is phi_k in the outer group when c phi_k^-1 is inner, and
		# phi_k^-1 when c phi_k is
		match = next(
			(
				k
				for k in range(len(gens))
				for mat, start in ((mats[k], phis[k].back), (inv_mats[k], phis[k].images))
				if cmat == mat and is_inner(ctx, images_through(ctx, start, c)).status == "yes"
			),
			None,
		)
		if match is None:
			raise CertificationError(
				"the commutator of %s and %s is neither inner nor listed"
				% (gens[i], gens[j])
			)
		derived.add(match)
	if not graph.is_clique(graph.full):
		for k in sorted(derived):
			for i in range(len(gens)):
				if (min(i, k), max(i, k)) in noninner:
					raise CertificationError(
						"%s is reached as a commutator but does not commute with %s"
						% (gens[k], gens[i])
					)

	j_all = [i for i in range(len(gens)) if mats[i] == ident]
	_certify_johnson_independent(
		ctx, [phis[i] for i in j_all], [str(gens[i]) for i in j_all]
	)
	return lie_dim + len(j_all)


# ---- report ----


def _triangle_list(descriptor):
	"""Transvections below the diagonal that the peripheral pair allows."""
	graph = descriptor.graph
	out = []
	for j in range(graph.n):
		for i in range(j):
			gen = LaurenceGenerator.transvection(
				graph, graph.vertices[j], graph.vertices[i]
			)
			if gen_in_relative(gen, descriptor.pair):
				out.append(gen)
	return out


def _derive_generators(descriptor):
	"""A certifiable list for the shapes the package knows cold.

	Cliques get their below-diagonal transvections, an absolute diamond
	chain gets its commuting list, and any other shape the empty list.
	"""
	graph = descriptor.graph
	if graph.is_clique(graph.full):
		return _triangle_list(descriptor)
	pair = descriptor.pair
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


def vcd_report(descriptor, script=None, gens=None, nilpotent=False):
	"""Decompose, fold the upper bound, and certify a lower bound.

	A supplied generator list must lie in the descriptor's group and
	drives certification directly; nilpotent lets its members fail to
	commute. Without one, cliques and absolute diamond chains get a list
	derived automatically; any other graph settles for a certified lower
	bound of zero. Both bounds are proofs, so a certified lower bound
	above the upper bound is a bug in the package and raises RuntimeError.
	"""
	tree = decompose(descriptor, mode="script", script=script)
	upper, per_leaf = fold(tree)
	if gens is None:
		gens = _derive_generators(descriptor)
		nilpotent = True
	else:
		for gen in gens:
			if not gen_in_relative(gen, descriptor.pair):
				raise DomainError(
					"%s is not in the group being bounded" % (gen,)
				)
	lower = certify_lower_bound(descriptor.graph, gens, nilpotent) if gens else 0
	if upper != "unknown" and lower > upper:
		raise RuntimeError(
			"certified lower bound %d exceeds the upper bound %d" % (lower, upper)
		)
	return VcdBound(upper, lower, per_leaf)
