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

	# ---- closed-form action tests ----

	def acts_trivially_on(self, dmask):
		"""Does the realized map agree with a conjugation on dmask?

		Inversions and transvections act trivially exactly when the moved
		vertex is outside; a partial conjugation does when its region
		misses dmask or swallows all of dmask away from the acting star
		(then conjugating by the acting letter itself matches it); a
		symmetry must fix dmask pointwise.
		"""
		g = self.graph
		if self.kind in ("inv", "trv"):
			return not dmask >> self.data[0] & 1
		if self.kind == "pc":
			acting, region = self.data
			return not region & dmask or not dmask & ~g.star_masks[acting] & ~region
		return all(self.data[v] == v for v in bits(dmask))

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
	"""

	__slots__ = ("ctx", "images", "back")

	def __init__(self, ctx, images, back):
		self.ctx = ctx
		self.images = images
		self.back = back

	@classmethod
	def identity(cls, ctx):
		table = tuple((lt,) for lt in range(2 * ctx.graph.n))
		return cls(ctx, table, table)

	@classmethod
	def from_images(cls, ctx, forward, backward):
		"""Build from vertex-indexed word lists, one per direction."""
		return cls(ctx, _letter_table(ctx, forward), _letter_table(ctx, backward))

	def apply(self, letters):
		return self.ctx.apply_map(letters, self.images)

	def apply_back(self, letters):
		return self.ctx.apply_map(letters, self.back)

	def compose(self, other):
		"""self after other: the composite sends w to self(other(w))."""
		return Automorphism(
			self.ctx,
			images_through(self.ctx, other.images, self.images),
			images_through(self.ctx, self.back, other.back),
		)

	def invert(self):
		return Automorphism(self.ctx, self.back, self.images)

	def __repr__(self):
		ctx = self.ctx
		parts = []
		for v in range(ctx.graph.n):
			im = self.images[2 * v]
			if im != (2 * v,):
				parts.append("%s->%s" % (ctx.graph.vertices[v], ctx.format(im)))
		return "<auto %s>" % ("; ".join(parts) or "id")


def images_through(ctx, start, *tables):
	"""Letter table of v -> start[2v] substituted through each table in turn.

	start and tables are letter tables, and the first table is applied
	first, so images_through(ctx, b.images, a.images) is the table of a
	after b. Only the vertex entries cost apply_map work: entry 2v+1 is the
	inverse of the reduced entry 2v.
	"""
	out = []
	for w in start[::2]:
		for table in tables:
			w = ctx.apply_map(w, table)
		out += (w, inverse(w))
	return tuple(out)


def _letter_table(ctx, words):
	table = [None] * (2 * ctx.graph.n)
	for v, w in enumerate(words):
		table[2 * v] = ctx.reduce(w)
		table[2 * v + 1] = inverse(table[2 * v])
	return tuple(table)


def realize(ctx, gen, sign=1):
	"""The explicit automorphism of a generator or (sign -1) of its inverse."""
	n = ctx.graph.n
	forward = [(enc(v, 1),) for v in range(n)]
	backward = [(enc(v, 1),) for v in range(n)]
	if gen.kind == "inv":
		(v,) = gen.data
		forward[v] = backward[v] = (enc(v, -1),)
	elif gen.kind == "trv":
		moved, acting = gen.data
		forward[moved] = (enc(moved, 1), enc(acting, sign))
		backward[moved] = (enc(moved, 1), enc(acting, -sign))
	elif gen.kind == "pc":
		acting, region = gen.data
		for u in bits(region):
			forward[u] = (enc(acting, sign), enc(u, 1), enc(acting, -sign))
			backward[u] = (enc(acting, -sign), enc(u, 1), enc(acting, sign))
	else:
		perm = gen.data
		if sign < 0:
			perm = _invert_perm(perm)
		iperm = _invert_perm(perm)
		forward = [(enc(perm[v], 1),) for v in range(n)]
		backward = [(enc(iperm[v], 1),) for v in range(n)]
	return Automorphism.from_images(ctx, forward, backward)


def _invert_perm(perm):
	out = [0] * len(perm)
	for v, w in enumerate(perm):
		out[w] = v
	return tuple(out)


def product_of(ctx, signed_gens):
	"""Compose (generator, sign) factors left to right.

	The first factor is applied last, matching how a written product of
	automorphisms acts on an argument. Images can grow exponentially with
	the number of factors, so a product whose image of a letter, either
	way, spells out more than PARSE_CAP letters is refused.
	"""
	acc = Automorphism.identity(ctx)
	for gen, sign in signed_gens:
		acc = acc.compose(realize(ctx, gen, sign))
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


def preserves_word(ctx, phi, dmask):
	"""Word-level test: does phi carry the subgroup on dmask to a conjugate?

	Returns (verdict, witness): (True, g) with g^-1 phi(.) g inside the
	subgroup, (False, None) on a refutation, (None, None) otherwise.

	A cyclically reduced image support leaving dmask refutes outright.
	Failing that, the conjugators valid for vertex v form k_v C(core_v)
	A_dmask; centralizers of cyclically reduced words only use the core's
	support and its common links, so when the offset k_u^-1 k_v of a pair
	of vertices needs letters beyond dmask and those links, no common
	conjugator exists. Candidate witnesses are the cyclic-reduction
	conjugators, their pairwise offsets and single letters.
	"""
	graph = ctx.graph
	cores = {}
	ks = {}
	for v in bits(dmask):
		core, k = ctx.cyc_reduce(phi.images[2 * v])
		if mask_word(core) & ~dmask:
			return False, None
		cores[v] = core
		ks[v] = k

	def carried_by(g):
		return all(
			not ctx.supp(inverse(g) + phi.images[2 * v] + g) & ~dmask for v in bits(dmask)
		)

	cands = [()]
	for k in ks.values():
		cands.append(ctx.canonical(k))
		cands.append(ctx.canonical(inverse(k)))
	lmask = 0
	for v in bits(dmask):
		lmask |= ctx.supp(phi.images[2 * v])
	for x in bits(lmask):
		cands.append((enc(x, 1),))
		cands.append((enc(x, -1),))
	items = list(ks.values())
	for i, ku in enumerate(items):
		for kv in items[i + 1 :]:
			cands.append(ctx.canonical(ku + inverse(kv)))
			cands.append(ctx.canonical(kv + inverse(ku)))
	tried = set()
	for g in cands:
		if g in tried:
			continue
		tried.add(g)
		if carried_by(g):
			return True, g
	vs = list(ks)
	for i, u in enumerate(vs):
		for v in vs[i + 1 :]:
			allowed = (
				dmask
				| graph.link_of_set(mask_word(cores[u]))
				| graph.link_of_set(mask_word(cores[v]))
			)
			off = ctx.reduce(inverse(ks[u]) + ks[v])
			if mask_word(off) & ~allowed:
				return False, None
	return None, None


# ---- relative membership and enumeration ----

def gen_in_relative(gen, pp):
	"""Membership of a generator in the relative group of a normalized pair.

	An inversion must avoid every H-member; a transvection's moved vertex
	must sit below its acting vertex in the relative order; a partial
	conjugation's region must be a union of relative components away from
	the acting vertex. A symmetry must fix the class action, fix every
	G-member setwise and every H-member pointwise.
	"""
	pp.require_normalized()
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
	pp.require_normalized()
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
