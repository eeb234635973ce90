"""Words in a right-angled Artin group.

This module wraps the word kernel (compiled if available, pure python
otherwise) in a per-graph context object and adds parsing, formatting and a
conjugacy test for cyclically reduced words. Set RAAGOUT_PURE=1 in the
environment to force the pure kernel; the compiled kernel is also skipped
for graphs with more than 64 vertices since it packs masks into a machine
word.

Letter codes: vertex v as a positive letter is 2*v, its inverse 2*v+1.
"""

import os

from . import _kernel_py
from .errors import CapabilityError, DomainError
from .graphs import bits

try:
	from . import _kernel as _kernel_c
except ImportError:
	_kernel_c = None

KERNEL_KIND = "compiled" if (_kernel_c is not None and not os.environ.get("RAAGOUT_PURE")) else "pure"

# Most letters a written word may spell out once exponents are expanded.
PARSE_CAP = 1 << 20


def enc(v, sign):
	assert sign in (1, -1)
	return 2 * v + (sign < 0)


def letter_vertex(lt):
	return lt >> 1


def letter_inv(lt):
	return lt ^ 1


def inverse(letters):
	return tuple(lt ^ 1 for lt in reversed(letters))


class WordContext:
	"""Word operations over a fixed defining graph."""

	def __init__(self, graph):
		self.graph = graph
		self.adj = graph.adj
		if KERNEL_KIND == "compiled" and graph.n <= 64:
			self._k = _kernel_c
			self.kernel = "compiled"
		else:
			self._k = _kernel_py
			self.kernel = "pure"

	def reduce(self, letters):
		return self._k.reduce_word(letters, self.adj)

	def canonical(self, letters):
		return self._k.canonical_word(letters, self.adj)

	def cyc_reduce(self, letters):
		return self._k.cyc_reduce_word(letters, self.adj)

	def apply_map(self, letters, images):
		return self._k.apply_map(letters, images, self.adj)

	def strip_front(self, letters, smask):
		return self._k.strip_front(letters, smask, self.adj)

	def supp(self, letters):
		m = 0
		for lt in self.reduce(letters):
			m |= 1 << (lt >> 1)
		return m

	def crsupp(self, letters):
		core, _ = self.cyc_reduce(letters)
		m = 0
		for lt in core:
			m |= 1 << (lt >> 1)
		return m

	def conjugate(self, g, w):
		"""Reduced form of g w g^-1."""
		return self.reduce(tuple(g) + tuple(w) + inverse(g))

	def equal(self, a, b):
		return self.canonical(a) == self.canonical(b)

	# ---- conjugacy of cyclically reduced words ----

	def cyclic_transports(self, core):
		"""Canonical forms reachable by moving one front letter to the back."""
		out = []
		seen = 0
		core = list(core)
		for p, lt in enumerate(core):
			v = lt >> 1
			if seen & ~self.adj[v] == 0:
				rest = core[:p] + core[p + 1 :]
				out.append(self.canonical(tuple(rest) + (lt,)))
			seen |= 1 << v
		return out

	def conjugate_cores(self, c1, c2, cap=50000):
		"""Are the cyclically reduced words c1 and c2 conjugate?

		Explores the closure of c1 under single-letter transport. Returns
		True or False, or None if the closure exceeds cap states (does not
		happen for the word lengths this package produces, but the tri-state
		contract is kept).
		"""
		c1 = self.canonical(c1)
		c2 = self.canonical(c2)
		if len(c1) != len(c2) or sorted(c1) != sorted(c2):
			return False
		if c1 == c2:
			return True
		frontier = [c1]
		seen = {c1}
		while frontier:
			nxt = []
			for state in frontier:
				for t in self.cyclic_transports(state):
					if t == c2:
						return True
					if t not in seen:
						seen.add(t)
						nxt.append(t)
						if len(seen) > cap:
							return None
			frontier = nxt
		return False

	def conjugate_words(self, w1, w2, cap=50000):
		core1, _ = self.cyc_reduce(w1)
		core2, _ = self.cyc_reduce(w2)
		return self.conjugate_cores(core1, core2, cap=cap)

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


def word_from_names(graph, names_signs):
	"""Convenience for tests: [(name, sign), ...] to letter codes."""
	return tuple(enc(graph.index[nm], sg) for nm, sg in names_signs)


def mask_word(letters):
	m = 0
	for lt in letters:
		m |= 1 << (lt >> 1)
	return m


__all__ = [
	"WordContext",
	"enc",
	"inverse",
	"letter_vertex",
	"letter_inv",
	"word_from_names",
	"mask_word",
	"KERNEL_KIND",
	"bits",
]
