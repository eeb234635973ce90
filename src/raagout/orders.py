"""Relative versions of domination, adjacency and connectivity.

Fixing a collection G of special subgroups (given as vertex masks of their
defining subgraphs), the order u <=_G v refines domination by requiring every
member of G through u to contain v. Two vertices are G-adjacent when they are
adjacent or lie in a common member; gluing along co-membership turns ordinary
components into G-components. The G^v variants only glue along members
avoiding v, which is what partial conjugations with acting letter v care
about.

All functions take the member collection as an iterable of masks, so both the
preserved list and its normalized closure can be passed without conversion.
leq_rel reads the order straight off the member list, one pair at a time;
PairIndex tabulates the order and the G^v-components once per member list,
and that table is what generator enumeration, invariance tests and
saturation read.
"""

from .graphs import bits, mask_of


def leq_rel(graph, members, u, v):
	"""u <=_G v: domination plus no member separates u from v."""
	if not graph.dominates(u, v):
		return False
	for m in members:
		if m >> u & 1 and not m >> v & 1:
			return False
	return True


def blocked_masks(graph, members):
	"""blocked[u] = vertices v such that some member contains u but not v.

	With this table, u <=_G v iff u <= v and v is not blocked for u. It is
	the complement of the intersection of the members through u, and that
	intersection cannot shrink below u itself; members sorted by size, as
	pairs keep them, get there early.
	"""
	blocked = []
	for u in range(graph.n):
		bit = 1 << u
		common = graph.full
		for m in members:
			if m & bit:
				common &= m
				if common == bit:
					break
		blocked.append(graph.full & ~common)
	return blocked


def g_adjacent(graph, members, u, v):
	if graph.adj[u] >> v & 1:
		return True
	return any(m >> u & 1 and m >> v & 1 for m in members)


def g_components(graph, members, mask):
	"""G-components of the induced subgraph on mask, as masks.

	Co-membership in any member counts as adjacency, so each G-component is a
	union of ordinary components: start from those and merge the ones each
	distinct piece m & mask meets. Ordered by least vertex.
	"""
	comps = graph.components(mask)
	if len(comps) < 2:
		return comps
	for piece in {m & mask for m in members}:
		hit = [c for c in comps if c & piece]
		if len(hit) > 1:
			comps = [c for c in comps if not c & piece]
			comps.append(sum(hit))
			if len(comps) == 1:
				break
	comps.sort(key=lambda c: c & -c)
	return comps


def gv_components(graph, members, v):
	"""G^v-components of the complement of st(v)."""
	s = graph.full & ~graph.star_masks[v]
	gv = [m for m in members if not m >> v & 1]
	return g_components(graph, gv, s)


def n_g(graph, members, theta):
	"""theta together with every vertex G-adjacent to it."""
	out = theta
	for t in bits(theta):
		out |= graph.adj[t]
	for m in members:
		if m & theta:
			out |= m
	return out


class PairIndex:
	"""The relative order and the G^v-components of one member list.

	rows[u] is the mask of every v with u <=_G v and down[v] the mask of
	every u with u <=_G v; both are closed under the order, since it is
	transitive. gv[v] lists the G^v-components of the complement of st(v),
	as gv_components does. Built once per peripheral pair and never changed.
	"""

	__slots__ = ("rows", "down", "gv")

	def __init__(self, graph, members):
		n = graph.n
		blocked = blocked_masks(graph, members)
		self.rows = tuple(
			mask_of(v for v in range(n) if graph.dominates(u, v)) & ~blocked[u] for u in range(n)
		)
		self.down = tuple(
			mask_of(u for u in range(n) if self.rows[u] >> v & 1) for v in range(n)
		)
		self.gv = tuple(tuple(gv_components(graph, members, v)) for v in range(n))
