"""Words in a right-angled Artin group.

Letters are encoded as ints: 2*v for the generator of vertex v, 2*v+1 for its
inverse, so xor with 1 inverts a letter and integer order on letter codes is
the (vertex, sign) order used for canonical forms. adj is the defining
graph's tuple of neighbour masks.

The methods of WordContext, bound to one defining graph, are the word
kernel: reduce, apply_map, canonical, cyc_reduce and strip_front, with
push_letter as the one stack loop they share, and parsing and formatting
beside them. A word is reduced when no generator/inverse pair can be
brought together by swapping adjacent commuting letters. The left-greedy
stack pass of reduce removes every such pair in one sweep. Canonical forms
are computed greedily: among the letters that can be commuted to the front,
repeatedly extract the one with the least code. Since the reduced words
representing a group element are exactly the linearizations of a labelled
partial order, the greedy choice yields the lexicographically least reduced
word.
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


def push_letter(out, lt, adj):
	"""Append letter lt to the reduced stack out, cancelling if possible; True when it cancelled."""
	v = lt >> 1
	i = len(out) - 1
	while i >= 0:
		m = out[i]
		u = m >> 1
		if u == v:
			if m == lt ^ 1:
				del out[i]
				return True
			break
		if not adj[u] >> v & 1:
			break
		i -= 1
	out.append(lt)
	return False


class WordContext:
	"""Word operations over a fixed defining graph.

	letters is the identity letter table, built once: entry lt is the
	one-letter word (lt,). Tables that fix a vertex share its entries.
	"""

	def __init__(self, graph):
		self.graph = graph
		self.adj = graph.adj
		self.letters = tuple((lt,) for lt in range(2 * graph.n))

	def reduce(self, letters):
		out = []
		adj = self.adj
		for lt in letters:
			push_letter(out, lt, adj)
		return tuple(out)

	def apply_map(self, letters, images):
		"""Reduced image of a word under a letter substitution.

		images is indexed by letter code and holds words (anything iterable
		of letter codes). The substituted word is reduced on the fly, never
		materialized.
		"""
		out = []
		adj = self.adj
		for lt in letters:
			for m in images[lt]:
				push_letter(out, m, adj)
		return tuple(out)

	def canonical(self, letters):
		"""Lexicographically least reduced word equal to the input in the group.

		Each round scans from the front for the least letter that commutes
		with every letter before it. A letter can move to the front exactly
		when its vertex is in common, the common link of the letters
		scanned so far; movable letters have distinct vertices, so it beats
		the best one so far exactly when its vertex is in below. Once
		common and below are disjoint no later letter can win, and the scan
		stops. The rest of the word is kept back to front, so taking out a
		letter near the front moves only the few letters ahead of it.
		"""
		adj = self.adj
		rem = list(self.reduce(letters))
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

	def cyc_reduce(self, letters):
		"""Cyclically reduced core and conjugator, in one pass.

		Returns (core, conj) with the input word equal to conj * core *
		conj^-1 and core of minimal length in the conjugacy class. A second
		copy of the reduced word w is pushed onto w; the letters of the copy
		that cancel are conj, in order, and core is conj^-1 w conj reduced.
		Lemma: write w = u c u^-1 with c cyclically reduced. A letter of the
		copy cancels only by commuting past the letters of the copy that
		survive before it, so the cancelled letters form a prefix of w, and
		there are (2|w| - |reduce(ww)|) / 2 = |u| of them, as ww = u c c u^-1.
		"""
		w = self.reduce(letters)
		out = list(w)
		conj = tuple(lt for lt in w if push_letter(out, lt, self.adj))
		if not conj:
			return w, ()
		return self.reduce(inverse(conj) + w + conj), conj

	def strip_front(self, letters, smask):
		"""Greedily move letters with vertex in smask to the front and split there.

		Returns (prefix, remainder): prefix has support inside smask, the
		original word is prefix * remainder, and no further smask-letter of
		the remainder can be commuted to its front. One pass suffices: a
		letter moves exactly when it commutes with every letter left behind
		before it, and moving a letter changes that set for no earlier
		letter.
		"""
		adj = self.adj
		prefix = []
		rem = []
		left = 0
		for lt in letters:
			v = lt >> 1
			if smask >> v & 1 and not left & ~adj[v]:
				prefix.append(lt)
			else:
				rem.append(lt)
				left |= 1 << v
		return tuple(prefix), tuple(rem)

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

