"""Laurence generators and explicit automorphisms.

The four generator kinds are inversions, transvections (the moved letter
picks up the acting letter on the right), extended partial conjugations
(conjugate a union of components of the acting letter's star complement) and
graph symmetries. Realizing a generator produces an explicit vertex-to-word
map carrying an inverse witness, and composition, action tests and innerness
all happen at that level.

Innerness is decided exactly rather than searched for: an automorphism is a
conjugation iff every vertex image is a conjugate of that vertex, and the
valid conjugating elements for one vertex form a coset of its star subgroup.
Cosets of special subgroups intersect greedily (strip a front factor, keep
the rest), so scanning the vertices either empties the intersection or ends
on a verified witness.
"""

from collections import namedtuple

from .errors import CapabilityError, DomainError
from .graphs import bits, mask_of
from .words import PARSE_CAP, enc, inverse, mask_word

_RANK = {"inv": 0, "trv": 1, "pc": 2, "sym": 3}


class LaurenceGenerator:
	"""A single generator symbol, validated against its graph on creation."""

	__slots__ = ("graph", "kind", "data")

	def __init__(self, graph, kind, data):
		self.graph = graph
		self.kind = kind
		self.data = tuple(data)
		if kind == "inv":
			(v,) = self.data
			self._check_vertex(v)
		elif kind == "trv":
			moved, acting = self.data
			self._check_vertex(moved)
			self._check_vertex(acting)
			if moved == acting:
				raise DomainError("transvection vertices must differ")
			if not graph.dominates(moved, acting):
				raise DomainError(
					"transvection needs %s dominated by %s"
					% (graph.vertices[moved], graph.vertices[acting])
				)
		elif kind == "pc":
			acting, region = self.data
			self._check_vertex(acting)
			if not region:
				raise DomainError("partial conjugation region is empty")
			away = graph.full & ~graph.star_masks[acting]
			if region & ~away:
				raise DomainError("partial conjugation region meets the acting star")
			for c in graph.components(away):
				if c & region and c & region != c:
					raise DomainError("partial conjugation region splits a component")
		elif kind == "sym":
			perm = self.data
			if sorted(perm) != list(range(graph.n)):
				raise DomainError("symmetry is not a vertex bijection")
			for u in range(graph.n):
				image = mask_of(perm[w] for w in bits(graph.adj[u]))
				if image != graph.adj[perm[u]]:
					raise DomainError("symmetry does not preserve adjacency")
		else:
			raise DomainError("unknown generator kind %r" % kind)

	def _check_vertex(self, v):
		if not 0 <= v < self.graph.n:
			raise DomainError("vertex index %r out of range" % v)

	@classmethod
	def inversion(cls, graph, v):
		return cls(graph, "inv", (_coerce(graph, v),))

	@classmethod
	def transvection(cls, graph, moved, acting):
		return cls(graph, "trv", (_coerce(graph, moved), _coerce(graph, acting)))

	@classmethod
	def partial_conj(cls, graph, acting, region):
		return cls(graph, "pc", (_coerce(graph, acting), region))

	@classmethod
	def symmetry(cls, graph, perm):
		return cls(graph, "sym", tuple(perm))

	def key(self):
		return (_RANK[self.kind], self.data)

	def __eq__(self, other):
		return (
			isinstance(other, LaurenceGenerator)
			and self.kind == other.kind
			and self.data == other.data
		)

	def __hash__(self):
		return hash((self.kind, self.data))

	def __str__(self):
		names = self.graph.vertices
		if self.kind == "inv":
			return "inv %s" % names[self.data[0]]
		if self.kind == "trv":
			return "trv %s^%s" % (names[self.data[0]], names[self.data[1]])
		if self.kind == "pc":
			acting, region = self.data
			return "pc %s:[%s]" % (names[acting], ",".join(self.graph.names(region)))
		cycles = []
		seen = set()
		for v in range(self.graph.n):
			if v in seen or self.data[v] == v:
				continue
			cyc = [v]
			seen.add(v)
			w = self.data[v]
			while w != v:
				cyc.append(w)
				seen.add(w)
				w = self.data[w]
			cycles.append("(%s)" % " ".join(names[u] for u in cyc))
		return "sym %s" % ("".join(cycles) or "()")

	def __repr__(self):
		return "<%s>" % self


def parse_generator(graph, text):
	"""Parse the text syntax emitted by str(gen).

	Accepted forms: "inv v", "trv moved^acting", "pc acting:[v1,v2]",
	"sym (a b)(c d)".
	"""
	kind, _, rest = text.strip().partition(" ")
	rest = rest.strip()
	if kind == "inv":
		return LaurenceGenerator.inversion(graph, _vertex(graph, rest))
	if kind == "trv":
		moved, sep, acting = rest.partition("^")
		if not sep:
			raise DomainError("transvection syntax is moved^acting")
		return LaurenceGenerator.transvection(
			graph, _vertex(graph, moved.strip()), _vertex(graph, acting.strip())
		)
	if kind == "pc":
		acting, sep, region = rest.partition(":")
		region = region.strip()
		if not sep or not (region.startswith("[") and region.endswith("]")):
			raise DomainError("partial conjugation syntax is acting:[v1,v2]")
		names = [nm.strip() for nm in region[1:-1].split(",") if nm.strip()]
		return LaurenceGenerator.partial_conj(
			graph, _vertex(graph, acting.strip()), graph.mask(names)
		)
	if kind == "sym":
		perm = list(range(graph.n))
		body = rest.replace("(", " ( ").replace(")", " ) ").split()
		cyc = None
		for tok in body:
			if tok == "(":
				if cyc is not None:
					raise DomainError("nested cycle in symmetry")
				cyc = []
			elif tok == ")":
				if cyc is None:
					raise DomainError("unbalanced cycle in symmetry")
				for i, v in enumerate(cyc):
					perm[v] = cyc[(i + 1) % len(cyc)]
				cyc = None
			else:
				if cyc is None:
					raise DomainError("symmetry cycles must be parenthesized")
				cyc.append(_vertex(graph, tok))
		if cyc is not None:
			raise DomainError("unbalanced cycle in symmetry")
		return LaurenceGenerator.symmetry(graph, perm)
	raise DomainError("unknown generator kind %r" % kind)


def _vertex(graph, name):
	if name not in graph.index:
		raise DomainError("unknown vertex %r" % name)
	return graph.index[name]


def _coerce(graph, v):
	# convenience constructors take a vertex name or a raw index
	return _vertex(graph, v) if isinstance(v, str) else v


class Automorphism:
	"""An explicit vertex-to-word map with an inverse witness.

	images and back are tables indexed by letter code; entry 2v+1 is the
	inverse word of entry 2v, so substitution works letter by letter.
	moved is the mask of the vertices whose image is not their own
	letter; a map and its inverse move the same vertices. Every other
	vertex has ctx.letters' one-letter words in both tables, so work on
	a map can skip the vertices outside moved.
	"""

	__slots__ = ("ctx", "images", "back", "moved")

	def __init__(self, ctx, images, back, moved):
		self.ctx = ctx
		self.images = images
		self.back = back
		self.moved = moved

	@classmethod
	def identity(cls, ctx):
		return cls(ctx, ctx.letters, ctx.letters, 0)

	@classmethod
	def from_images(cls, ctx, forward, backward):
		"""Build from vertex-indexed word lists, one per direction."""
		images, moved = _letter_table(ctx, forward)
		back, _ = _letter_table(ctx, backward)
		return cls(ctx, images, back, moved)

	def apply(self, letters):
		return self.ctx.apply_map(letters, self.images)

	def compose(self, other):
		"""self after other: the composite sends w to self(other(w)).

		Only the vertices one of the two maps moves are threaded; both
		fix every other vertex, so the composite does.
		"""
		vmask = self.moved | other.moved
		images, moved = images_through(self.ctx, other.images, (self.images,), vmask)
		back, _ = images_through(self.ctx, self.back, (other.back,), vmask)
		return Automorphism(self.ctx, images, back, moved)

	def invert(self):
		return Automorphism(self.ctx, self.back, self.images, self.moved)

	def __repr__(self):
		ctx = self.ctx
		parts = [
			"%s->%s" % (ctx.graph.vertices[v], ctx.format(self.images[2 * v]))
			for v in bits(self.moved)
		]
		return "<auto %s>" % ("; ".join(parts) or "id")


def images_through(ctx, start, tables, vmask):
	"""Letter table of v -> start[2v] substituted through each table in turn, and the mask it moves.

	The first table is applied first, so images_through(ctx, b.images,
	(a.images,), vmask) is the table of a after b. Only the vertices in
	vmask are threaded and every other entry is start's, so vmask must
	hold each vertex that start or a table moves. Only the vertex
	entries cost apply_map work, as entry 2v+1 is the inverse of the
	reduced entry 2v. A threaded vertex that comes back fixed gets
	ctx.letters' words and stays out of the returned mask.
	"""
	letters = ctx.letters
	out = list(start)
	moved = 0
	for v in bits(vmask):
		w = start[2 * v]
		for table in tables:
			w = ctx.apply_map(w, table)
		if w == letters[2 * v]:
			out[2 * v], out[2 * v + 1] = letters[2 * v], letters[2 * v + 1]
		else:
			out[2 * v], out[2 * v + 1] = w, inverse(w)
			moved |= 1 << v
	return tuple(out), moved


def _letter_table(ctx, words):
	"""Reduced letter table of vertex-indexed words, and the mask of the vertices it moves."""
	reduced = {v: ctx.reduce(w) for v, w in enumerate(words)}
	moves = {v: w for v, w in reduced.items() if w != ctx.letters[2 * v]}
	return _reduced_table(ctx, moves), mask_of(moves)


def realize(ctx, gen):
	"""The explicit automorphism of a generator.

	Both directions are written, so invert() on the result is the
	automorphism of the generator's inverse, with nothing recomputed.

	The letter tables are written directly, with no reduce: every word a
	generator writes is reduced by construction. Inversions and
	symmetries write single letters. A transvection writes m a^±1 with
	m != a, two letters on different vertices. A partial conjugation
	writes x^±1 u x^∓1 with u outside st(x), so u neither equals x nor
	commutes with it, and the two x letters can never meet. The inverse
	of a reduced word is reduced.

	Each written word differs from its vertex's letter, so the vertices
	written are the vertices moved: a symmetry writes none for its fixed
	points, and both directions write the same vertices, as a
	permutation maps the points it moves onto themselves.
	"""
	forward = {}
	backward = {}
	if gen.kind == "inv":
		(v,) = gen.data
		forward[v] = backward[v] = (enc(v, -1),)
	elif gen.kind == "trv":
		moved, acting = gen.data
		forward[moved] = (enc(moved, 1), enc(acting, 1))
		backward[moved] = (enc(moved, 1), enc(acting, -1))
	elif gen.kind == "pc":
		acting, region = gen.data
		for u in bits(region):
			forward[u] = (enc(acting, 1), enc(u, 1), enc(acting, -1))
			backward[u] = (enc(acting, -1), enc(u, 1), enc(acting, 1))
	else:
		for v, w in enumerate(gen.data):
			if v != w:
				forward[v] = (enc(w, 1),)
				backward[w] = (enc(v, 1),)
	return Automorphism(
		ctx, _reduced_table(ctx, forward), _reduced_table(ctx, backward), mask_of(forward)
	)


def _reduced_table(ctx, words):
	"""Letter table fixing every vertex but those in words, whose words are reduced.

	The fixed vertices keep ctx.letters' entries.
	"""
	table = list(ctx.letters)
	for v, w in words.items():
		table[2 * v] = w
		table[2 * v + 1] = inverse(w)
	return tuple(table)


def product_of(ctx, signed_gens):
	"""Compose (generator, sign) factors left to right.

	Each factor is realized, and inverted with invert() when its sign is
	-1. The first factor is applied last, matching how a written product
	of automorphisms acts on an argument. Images can grow exponentially
	with the number of factors, so a product whose image of a letter,
	either way, spells out more than PARSE_CAP letters is refused.
	"""
	acc = Automorphism.identity(ctx)
	for gen, sign in signed_gens:
		phi = realize(ctx, gen)
		acc = acc.compose(phi if sign > 0 else phi.invert())
		longest = max(map(len, acc.images + acc.back), default=0)
		if longest > PARSE_CAP:
			raise CapabilityError(
				"the product's images grow to %d letters, over the limit of %d"
				% (longest, PARSE_CAP)
			)
	return acc


# ---- innerness and word-level action tests ----

InnerResult = namedtuple("InnerResult", ["status", "witness", "reason"])


def _common_conjugator(ctx, images, vmask):
	"""A word g with images[2v] = g v g^-1 for every v in vmask, or (None, v).

	images is a letter table; only its vertex entries are read. The
	conjugators valid for v alone are k_v times the star subgroup of v,
	where k_v is the cyclic-reduction conjugator of images[2v]. Running
	over the vertices keeps the intersection as a single coset rep * A_S:
	intersecting with the next constraint means writing rep^-1 k_v as
	(front factor in A_S) * (rest), which the greedy front strip finds
	whenever it exists; the rest must then live in the star subgroup.

	The witness is verified exactly before it is returned: rep^-1
	images[2v] rep must reduce to the single letter v, the only reduced
	word for that element. A failure raises RuntimeError.
	"""
	graph = ctx.graph
	rep = ()
	smask = graph.full
	for v in bits(vmask):
		core, k = ctx.cyc_reduce(images[2 * v])
		if core != (2 * v,):
			return None, v
		u = ctx.reduce(inverse(rep) + k)
		pref, rem = ctx.strip_front(u, smask)
		if mask_word(rem) & ~graph.star_masks[v]:
			return None, v
		rep = ctx.reduce(rep + pref)
		smask &= graph.star_masks[v]
	for v in bits(vmask):
		if ctx.reduce(inverse(rep) + images[2 * v] + rep) != (2 * v,):
			raise RuntimeError("conjugator witness failed verification")
	return rep, None


def is_inner(ctx, images):
	"""Decide whether the map with letter table images is a conjugation.

	Only the vertex entries images[2v] are read, so a caller can pass
	Automorphism.images or a table built for the test alone. The coset
	intersection is exact, so the status is always "yes" or "no"; yes
	comes with a verified witness.
	"""
	rep, bad = _common_conjugator(ctx, images, ctx.graph.full)
	if rep is None:
		return InnerResult(
			"no", None, "no single conjugator matches at %s" % ctx.graph.vertices[bad]
		)
	return InnerResult("yes", rep, "")


def acts_trivially_word(ctx, phi, dmask):
	"""Exact word-level test: is phi a conjugation when restricted to dmask?

	Returns (flag, witness); the witness may be the empty word, so test
	the flag, not the witness.
	"""
	rep, _ = _common_conjugator(ctx, phi.images, dmask)
	return rep is not None, rep


# ---- relative membership and enumeration ----

def gen_in_relative(gen, pp):
	"""Membership of a generator in the relative group of a pair.

	An inversion must avoid every H-member; a transvection's moved vertex
	must sit below its acting vertex in the relative order; a partial
	conjugation's region must be a union of relative components away from
	the acting vertex. A symmetry must fix the class action, fix every
	G-member setwise and every H-member pointwise.
	"""
	graph = gen.graph
	if gen.kind == "inv":
		(v,) = gen.data
		return all(not m >> v & 1 for m in pp.h_members)
	if gen.kind == "trv":
		moved, acting = gen.data
		return bool(pp.index.rows[moved] >> acting & 1)
	if gen.kind == "pc":
		acting, region = gen.data
		return all(not c & region or c & region == c for c in pp.index.gv[acting])
	perm = gen.data
	for v in range(graph.n):
		if graph.class_of(perm[v]) != graph.class_of(v):
			return False
	for m in pp.g_members:
		if mask_of(perm[v] for v in bits(m)) != m:
			return False
	return all(all(perm[v] == v for v in bits(m)) for m in pp.h_members)


def enumerate_generators(pp):
	"""The canonical generator list of the relative group.

	Every inversion and transvection that passes gen_in_relative, and for
	each acting vertex one partial conjugation per relative component of
	its star complement, except that one component is dropped each time:
	conjugating along all components at once is inner, so the largest
	(ties to the earliest) is redundant. Symmetries are never emitted.
	"""
	graph = pp.graph
	index = pp.index
	out = []
	for v in range(graph.n):
		if all(not m >> v & 1 for m in pp.h_members):
			out.append(LaurenceGenerator.inversion(graph, v))
	for moved in range(graph.n):
		for acting in bits(index.rows[moved] & ~(1 << moved)):
			out.append(LaurenceGenerator.transvection(graph, moved, acting))
	for acting in range(graph.n):
		comps = index.gv[acting]
		if len(comps) < 2:
			continue
		drop = max(range(len(comps)), key=lambda i: (comps[i].bit_count(), -i))
		for i, c in enumerate(comps):
			if i != drop:
				out.append(LaurenceGenerator.partial_conj(graph, acting, c))
	out.sort(key=LaurenceGenerator.key)
	return out
