"""Words in a right-angled Artin group.

Letters are encoded as ints: 2*v for the generator of vertex v, 2*v+1 for its
inverse, so xor with 1 inverts a letter and integer order on letter codes is
the (vertex, sign) order used for canonical forms. adj is the defining
graph's tuple of neighbour masks.

The module-level functions below are the word kernel. A word is reduced when
no generator/inverse pair can be brought together by swapping adjacent
commuting letters. The left-greedy stack pass of reduce_word removes every
such pair in one sweep. Canonical forms are computed greedily: among the
letters that can be commuted to the front, repeatedly extract the one with
the least code. Since the reduced words representing a group element are
exactly the linearizations of a labelled partial order, the greedy choice
yields the lexicographically least reduced word.

WordContext binds the kernel to one defining graph and adds parsing and
formatting.
"""

from .errors import CapabilityError, DomainError

# Most letters a written word may spell out once exponents are expanded, and
# most letters a letter's image under a product of generators may have.
PARSE_CAP = 1 << 20


def enc(v, sign):
	assert sign in (1, -1)
	return 2 * v + (sign < 0)


def inverse(letters):
	return tuple(lt ^ 1 for lt in reversed(letters))


# ---- the word kernel ----


def push_letter(out, lt, adj):
	"""Append letter lt to the reduced stack out, cancelling if possible."""
	v = lt >> 1
	i = len(out) - 1
	while i >= 0:
		m = out[i]
		u = m >> 1
		if u == v:
			if m == lt ^ 1:
				del out[i]
				return
			break
		if not adj[u] >> v & 1:
			break
		i -= 1
	out.append(lt)


def reduce_word(letters, adj):
	out = []
	for lt in letters:
		push_letter(out, lt, adj)
	return tuple(out)


def apply_map(letters, images, adj):
	"""Reduced image of a word under a letter substitution.

	images is indexed by letter code and holds words (anything iterable of
	letter codes). The substituted word is reduced on the fly, never
	materialized.
	"""
	out = []
	for lt in letters:
		for m in images[lt]:
			push_letter(out, m, adj)
	return tuple(out)


def canonical_word(letters, adj):
	"""Lexicographically least reduced word equal to the input in the group.

	Each round scans from the front for the least letter that commutes
	with every letter before it. A letter can move to the front exactly
	when its vertex is in common, the common link of the letters scanned
	so far; movable letters have distinct vertices, so it beats the best
	one so far exactly when its vertex is in below. Once common and below
	are disjoint no later letter can win, and the scan stops. The rest of
	the word is kept back to front, so taking out a letter near the front
	moves only the few letters ahead of it.
	"""
	rem = list(reduce_word(letters, adj))
	rem.reverse()
	out = []
	while rem:
		common = below = -1
		for p in range(len(rem) - 1, -1, -1):
			v = rem[p] >> 1
			if (common & below) >> v & 1:
				best_pos = p
				below = (1 << v) - 1
			common &= adj[v]
			if not common & below:
				break
		out.append(rem.pop(best_pos))
	return tuple(out)


def cyc_reduce_word(letters, adj):
	"""Cyclically reduced core and conjugator.

	Returns (core, conj) with the input word equal to conj * core * conj^-1
	and core of minimal length in the conjugacy class.
	"""
	core = list(reduce_word(letters, adj))
	conj = []
	while True:
		# letters movable to the front, and to the back
		front = []
		seen = 0
		for p, lt in enumerate(core):
			v = lt >> 1
			if seen & ~adj[v] == 0:
				front.append((p, lt))
			seen |= 1 << v
		back = []
		seen = 0
		for q in range(len(core) - 1, -1, -1):
			lt = core[q]
			v = lt >> 1
			if seen & ~adj[v] == 0:
				back.append((q, lt))
			seen |= 1 << v
		hit = None
		for p, lt in front:
			want = lt ^ 1
			for q, m in back:
				if m == want and q != p:
					hit = (p, q, lt)
					break
			if hit:
				break
		if hit is None:
			return tuple(core), tuple(conj)
		p, q, lt = hit
		conj.append(lt)
		core = [core[i] for i in range(len(core)) if i != p and i != q]
		core = list(reduce_word(core, adj))


def strip_front(letters, smask, adj):
	"""Greedily move letters with vertex in smask to the front and split there.

	Returns (prefix, remainder): prefix has support inside smask, the
	original word is prefix * remainder, and no further smask-letter of
	the remainder can be commuted to its front.
	"""
	rem = list(letters)
	prefix = []
	changed = True
	while changed:
		changed = False
		seen = 0
		for p, lt in enumerate(rem):
			v = lt >> 1
			if seen & ~adj[v] == 0 and smask >> v & 1:
				prefix.append(lt)
				del rem[p]
				changed = True
				break
			seen |= 1 << v
	return tuple(prefix), tuple(rem)


class WordContext:
	"""Word operations over a fixed defining graph."""

	def __init__(self, graph):
		self.graph = graph
		self.adj = graph.adj

	def reduce(self, letters):
		return reduce_word(letters, self.adj)

	def canonical(self, letters):
		return canonical_word(letters, self.adj)

	def cyc_reduce(self, letters):
		return cyc_reduce_word(letters, self.adj)

	def apply_map(self, letters, images):
		return apply_map(letters, images, self.adj)

	def strip_front(self, letters, smask):
		return strip_front(letters, smask, self.adj)

	def supp(self, letters):
		m = 0
		for lt in self.reduce(letters):
			m |= 1 << (lt >> 1)
		return m

	def conjugate(self, g, w):
		"""Reduced form of g w g^-1."""
		return self.reduce(tuple(g) + tuple(w) + inverse(g))

	# ---- text form ----

	def parse(self, text):
		"""Parse a word like "a1 b1^-1 c0" into letter codes.

		Raises CapabilityError, before building anything, when the word
		would spell out more than PARSE_CAP letters.
		"""
		runs = []
		for tok in text.split():
			name, _, power = tok.partition("^")
			if name not in self.graph.index:
				raise DomainError("unknown vertex %r in word" % name)
			if power:
				try:
					k = int(power)
				except ValueError:
					raise DomainError("bad exponent in %r" % tok)
			else:
				k = 1
			v = self.graph.index[name]
			runs.append((enc(v, 1 if k > 0 else -1), abs(k)))
		total = sum(k for _, k in runs)
		if total > PARSE_CAP:
			raise CapabilityError(
				"word spells out %d letters, over the limit of %d" % (total, PARSE_CAP)
			)
		return tuple(lt for lt, k in runs for _ in range(k))

	def format(self, letters):
		if not letters:
			return "1"
		toks = []
		for lt in letters:
			name = self.graph.vertices[lt >> 1]
			toks.append(name if lt & 1 == 0 else name + "^-1")
		return " ".join(toks)


def mask_word(letters):
	m = 0
	for lt in letters:
		m |= 1 << (lt >> 1)
	return m


__all__ = [
	"WordContext",
	"apply_map",
	"canonical_word",
	"cyc_reduce_word",
	"enc",
	"inverse",
	"mask_word",
	"push_letter",
	"reduce_word",
	"strip_front",
]
