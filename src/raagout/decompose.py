"""Subnormal decomposition of relative outer automorphism groups.

A descriptor holds a peripheral pair, graph included, and stands for one
relative group. Three moves take it apart: restricting to an invariant
subgraph (the kernel keeps the graph with the target turned into a
trivial-action member, the image moves onto the subgraph), projecting away
a nontrivial center (the kernel is free abelian of a computable rank), and
classifying what remains as a terminal shape. A decomposition tree records
the moves, and a complexity measure drops strictly along every edge, so
the construction terminates no matter which invariant subgraphs get picked.
"""

from collections import namedtuple

from .errors import DomainError, ScriptError
from .graphs import bits, compress_mask, mask_of
from . import orders
from .words import WordContext, mask_word
from .peripheral import PeripheralPair, fast_periphery, induced, is_invariant, saturation
from .autos import (
	Automorphism,
	LaurenceGenerator,
	enumerate_generators,
	gen_in_relative,
)


Complexity = namedtuple("Complexity", ["n", "m"])


class GroupDescriptor:
	"""A relative outer automorphism group: a peripheral pair, taken as given, on its graph."""

	__slots__ = ("graph", "pair", "_ctx", "_gens", "_pivot")

	def __init__(self, pair):
		self.graph = pair.graph
		self.pair = pair
		self._ctx = None
		self._gens = None
		self._pivot = None

	@classmethod
	def absolute(cls, graph):
		return cls(PeripheralPair(graph, [], []))

	@property
	def ctx(self):
		if self._ctx is None:
			self._ctx = WordContext(self.graph)
		return self._ctx

	def gens(self):
		if self._gens is None:
			self._gens = enumerate_generators(self.pair)
		return self._gens

	def pivot(self):
		"""The least invariant set some generator restricts nontrivially to, None if none (_pivot).

		Worked out once, as auto mode reads it for the step and again for a
		leaf's precondition; 0 stands for none in the cache.
		"""
		if self._pivot is None:
			self._pivot = _pivot(self) or 0
		return self._pivot or None

	def complexity(self):
		return Complexity(self.graph.n, (1 << self.graph.n) - len(self.pair.h_members))

	def to_json_obj(self):
		return {"graph": self.graph.to_json_obj(), "pair": self.pair.to_json_obj()}

	def summary(self):
		return "n=%d |G|=%d |H|=%d" % (
			self.graph.n,
			len(self.pair.g_members),
			len(self.pair.h_members),
		)

	def __repr__(self):
		return "<descriptor %s>" % self.summary()


# ---- terminal shapes ----


class FreeAbelian:
	"""Free abelian piece with certified lower and upper rank bounds."""

	__slots__ = ("rank_lower", "rank_upper")

	def __init__(self, rank_lower, rank_upper):
		if rank_lower > rank_upper:
			raise DomainError("rank bounds are out of order")
		self.rank_lower = rank_lower
		self.rank_upper = rank_upper

	def __eq__(self, other):
		return (
			isinstance(other, FreeAbelian)
			and (self.rank_lower, self.rank_upper) == (other.rank_lower, other.rank_upper)
		)

	def __repr__(self):
		if self.rank_lower == self.rank_upper:
			return "FreeAbelian(%d)" % self.rank_upper
		return "FreeAbelian(%d..%d)" % (self.rank_lower, self.rank_upper)

	def to_json_obj(self):
		return {
			"class": "free_abelian",
			"rank_lower": self.rank_lower,
			"rank_upper": self.rank_upper,
		}


class GeneralLinear:
	"""An integer general linear group extended by a free abelian group.

	The block decomposition leaves m unconstrained letters; transvections
	from the constrained block contribute the extension of rank
	m * (n - m) recorded alongside.
	"""

	__slots__ = ("m", "extension_rank")

	def __init__(self, m, extension_rank):
		self.m = m
		self.extension_rank = extension_rank

	def __eq__(self, other):
		return (
			isinstance(other, GeneralLinear)
			and (self.m, self.extension_rank) == (other.m, other.extension_rank)
		)

	def __repr__(self):
		return "GL(%d,Z) ext %d" % (self.m, self.extension_rank)

	def to_json_obj(self):
		return {"class": "general_linear", "m": self.m, "extension_rank": self.extension_rank}


class FouxeRabinovitch:
	"""Outer automorphisms of a free product given by a factor decomposition.

	held marks, per factor, whether a peripheral member is the factor's
	support; a held factor is only acted on by conjugation, which is what
	the dimension formulas downstream rely on.
	"""

	__slots__ = ("factors", "free_rank", "held")

	def __init__(self, factors, free_rank, held=None):
		self.factors = tuple(factors)
		if held is None:
			held = (False,) * len(self.factors)
		self.held = tuple(bool(x) for x in held)
		if len(self.held) != len(self.factors):
			raise DomainError("held flags must match the factor list")
		self.free_rank = free_rank

	def __eq__(self, other):
		return (
			isinstance(other, FouxeRabinovitch)
			and self.free_rank == other.free_rank
			and self.held == other.held
			and [f.vertices for f in self.factors] == [f.vertices for f in other.factors]
		)

	def __repr__(self):
		parts = [
			"<%s>%s" % (",".join(f.vertices), "!" if h else "")
			for f, h in zip(self.factors, self.held)
		]
		return "FR(factors=[%s], m=%d)" % ("; ".join(parts), self.free_rank)

	def to_json_obj(self):
		return {
			"class": "fouxe_rabinovitch",
			"factors": [list(f.vertices) for f in self.factors],
			"held": list(self.held),
			"free_rank": self.free_rank,
		}


class Trivial:
	__slots__ = ()

	def __eq__(self, other):
		return isinstance(other, Trivial)

	def __repr__(self):
		return "Trivial"

	def to_json_obj(self):
		return {"class": "trivial"}


# ---- tree nodes ----


class RestrictionStep:
	__slots__ = ("dmask", "kernel", "image")

	def __init__(self, dmask, kernel, image):
		self.dmask = dmask
		self.kernel = kernel
		self.image = image

	@property
	def children(self):
		return (("kernel", self.kernel), ("image", self.image))


class ProjectionStep:
	__slots__ = ("zmask", "kernel_rank", "image")

	def __init__(self, zmask, kernel_rank, image):
		self.zmask = zmask
		self.kernel_rank = kernel_rank
		self.image = image

	@property
	def children(self):
		return (("image", self.image),)


class Leaf:
	__slots__ = ("shape",)

	children = ()

	def __init__(self, shape):
		self.shape = shape


class DecompositionNode:
	__slots__ = ("descriptor", "step")

	def __init__(self, descriptor, step):
		self.descriptor = descriptor
		self.step = step

	def walk(self):
		"""(path, depth, role, node, parent step) for every node, in pre-order.

		The root is ("root", 0, None, self, None). A child is one deeper
		than its parent, has the role "kernel" or "image" its parent's step
		gives it, and extends its parent's path by ".k" or ".i"; children
		come in step.children order. The path is a ledger id only.
		"""
		stack = [("root", 0, None, self, None)]
		while stack:
			path, depth, role, node, parent = stack.pop()
			yield path, depth, role, node, parent
			for branch, child in reversed(node.step.children):
				stack.append(("%s.%s" % (path, branch[0]), depth + 1, branch, child, node.step))

	def leaves(self):
		"""Leaf shapes and projection kernels, left to right."""
		out = []
		for _, _, _, node, _ in self.walk():
			step = node.step
			if isinstance(step, Leaf):
				out.append(step.shape)
			elif isinstance(step, ProjectionStep):
				out.append(FreeAbelian(step.kernel_rank, step.kernel_rank))
		return out

	def to_json_obj(self):
		"""The tree as nested objects, built along walk() so its depth costs no stack.

		Children go by role into bodies[k + 1], the open step body at depth k.
		"""
		bodies = [{}]
		for _, depth, role, node, _ in self.walk():
			d = node.descriptor
			step = node.step
			obj = bodies[depth][role] = d.to_json_obj()
			del bodies[depth + 1:]
			if isinstance(step, Leaf):
				obj["leaf"] = step.shape.to_json_obj()
			elif isinstance(step, RestrictionStep):
				obj["restrict"] = {"target": d.graph.names(step.dmask)}
				bodies.append(obj["restrict"])
			else:
				obj["project"] = {
					"center": d.graph.names(step.zmask),
					"kernel_rank": step.kernel_rank,
				}
				bodies.append(obj["project"])
		return bodies[0][None]


def dot_escape(text):
	"""text made safe inside a DOT quoted string: backslashes, then quotes, escaped."""
	return text.replace("\\", "\\\\").replace('"', '\\"')


def tree_dot(root):
	"""The tree in DOT form, nodes labeled by descriptor summaries.

	Nodes are numbered in pre-order, and the edge into a node follows its
	whole subtree; ids[k] is the id of the node at depth k on the branch,
	and the edges wait on a stack until the walk is back at their child's
	depth or above.
	"""
	lines = ["digraph decomposition {", "\tnode [shape=box];"]
	ids = []
	pending = []
	for number, (_, depth, role, node, _) in enumerate(root.walk()):
		while pending and pending[-1][0] >= depth:
			lines.append(pending.pop()[1])
		my = "n%d" % number
		ids[depth:] = [my]
		step = node.step
		label = node.descriptor.summary()
		if isinstance(step, Leaf):
			label += "\\n%s" % dot_escape(repr(step.shape))
		elif isinstance(step, RestrictionStep):
			label += "\\nrestrict %s" % dot_escape(",".join(node.descriptor.graph.names(step.dmask)))
		else:
			label += "\\nproject, ker Z^%d" % step.kernel_rank
		lines.append('\t%s [label="%s"];' % (my, label))
		if depth:
			edge = '\t%s -> %s [label="%s"];' % (ids[depth - 1], my, "ker" if role == "kernel" else "im")
			pending.append((depth, edge))
	lines.extend(edge for _, edge in reversed(pending))
	lines.append("}")
	return "\n".join(lines)


def tree_text(root):
	"""The tree as indented text: a line per step, and a role line above each restriction branch."""
	lines = []
	for _, depth, role, node, parent in root.walk():
		pad = "  " * depth
		if isinstance(parent, RestrictionStep):
			lines.append("%s %s:" % (pad[2:], role))
		step = node.step
		summary = node.descriptor.summary()
		if isinstance(step, Leaf):
			lines.append("%sleaf %r  [%s]" % (pad, step.shape, summary))
		elif isinstance(step, ProjectionStep):
			names = ",".join(node.descriptor.graph.names(step.zmask))
			lines.append(
				"%sproject out <%s>, kernel rank %d  [%s]"
				% (pad, names, step.kernel_rank, summary)
			)
		else:
			names = ",".join(node.descriptor.graph.names(step.dmask))
			lines.append("%srestrict to <%s>  [%s]" % (pad, names, summary))
	return "\n".join(lines)


# ---- the three moves ----


def restriction_step(d, dmask, mode="fast"):
	"""Split off the restriction to an invariant subgraph.

	Fast mode keeps the pair as given and completes the image with the
	computed periphery; saturated mode saturates first, which makes the
	induced members alone already sufficient. Both give the same image
	group. Fast mode reads all of G, so a pair whose G is unlisted (one
	derived from a saturation) takes the saturated construction. Either
	way the kernel keeps the whole graph and gains dmask as a
	trivial-action member, folded into G so the new member's pieces join
	the preserved side; its order index is the pair's refined by those
	pieces. Every member of G is invariant, and on a saturated pair, whose
	G is every proper invariant set, every invariant target is a member;
	neither the kernel nor the image of a saturated pair lists G (see
	peripheral.saturation and induced).

	A target outside G is not joined to the pair's G: the kernel folds it
	in through H, induced would drop its cut (all of dmask), and
	fast_periphery reads only the members that avoid a vertex of dmask.
	"""
	graph = d.graph
	if not 0 < dmask < graph.full:
		raise DomainError("restriction target must be a proper nonempty subgraph")
	if mode not in ("fast", "saturated"):
		raise DomainError("restriction mode must be fast or saturated")
	pair = d.pair
	if mode == "fast" and not pair.listed:
		mode = "saturated"
	if mode == "saturated" and not pair.saturated:
		pair = saturation(pair)
	if not is_invariant(pair, dmask):
		raise DomainError(
			"restriction target %s is not invariant for this pair"
			% "".join(graph.names(dmask))
		)
	sub_pair = induced(pair, dmask)
	if mode == "fast":
		per = fast_periphery(pair, dmask)
		sub_pair = sub_pair.adding_g(compress_mask(m, dmask) for m in per)
	image = GroupDescriptor(sub_pair)
	kernel = GroupDescriptor(pair.adding_h([dmask]))
	return kernel, image


def lift_generator(source, image, dmask, gen):
	"""Pull an image generator back to the source group of a restriction.

	Inversions and transvections lift by vertex name. A partial
	conjugation lifts to the one along the union of the source-side
	relative components meeting its region; restricting that union back
	to the subgraph recovers the region. Symmetries are not enumerated
	and have no canonical lift.
	"""
	if not gen_in_relative(gen, image.pair):
		raise DomainError("generator is not in the image group")
	graph = source.graph
	keep = list(bits(dmask))
	if gen.kind == "inv":
		return LaurenceGenerator.inversion(graph, keep[gen.data[0]])
	if gen.kind == "trv":
		moved, acting = gen.data
		return LaurenceGenerator.transvection(graph, keep[moved], keep[acting])
	if gen.kind == "pc":
		acting, region = gen.data
		x = keep[acting]
		target = mask_of(keep[i] for i in bits(region))
		lifted = 0
		for comp in source.pair.index.gv[x]:
			if comp & target:
				lifted |= comp
		return LaurenceGenerator.partial_conj(graph, x, lifted)
	raise DomainError("symmetries have no canonical lift")


def word_restriction(sub_ctx, dmask, phi):
	"""phi as an explicit automorphism of the subgroup on dmask, on the induced graph.

	Lemma: for a generator lift_generator builds, phi.images[2s] and
	phi.back[2s] lie in A_dmask for every letter s of dmask. The lift is
	inv keep[v], trv keep[m]^keep[a] or pc keep[a]:region, with keep[v],
	keep[m] and keep[a] in dmask, so either way s goes to s, s^-1,
	s y^(+-1) or y^(+-1) s y^(-+1) with y = keep[a]. Those words are
	recoded onto the induced graph as they are, with no conjugator to
	find; a map that sends a letter of dmask outside A_dmask is refused.
	"""
	pos = {s: i for i, s in enumerate(bits(dmask))}
	tables = []
	for table in (phi.images, phi.back):
		words = [table[2 * s] for s in bits(dmask)]
		if any(mask_word(w) & ~dmask for w in words):
			raise DomainError("map sends a letter of the subgroup outside it")
		tables.append([tuple(2 * pos[lt >> 1] | lt & 1 for lt in w) for w in words])
	return Automorphism.from_images(sub_ctx, *tables)


def projection_step(d):
	"""Quotient by the transvection kernel onto the center's complement.

	Sound whenever the graph is connected, the center is nonempty and
	proper, and the group acts trivially on the center's subgroup; the
	kernel is free abelian, spanned by the transvections from outside
	letters onto central ones that the relative order admits. Returns
	the center's mask, the kernel rank and the image descriptor.

	Lemma: a partial conjugation is trivial on the center z. Every central
	vertex is adjacent to every other one, so z lies in st(x) for every
	acting letter x, while the region avoids st(x) and so misses z. The
	group therefore acts trivially on z exactly when no inversion or
	transvection moves a vertex of z, that is, when z misses _moved.
	"""
	graph = d.graph
	if not graph.is_connected():
		raise DomainError("projection needs a connected graph")
	z = graph.subgraph_center(graph.full)
	if not z or z == graph.full:
		raise DomainError("projection needs a nonempty proper center")
	if _moved(d.pair) & z:
		raise DomainError(
			"restriction to the center is nontrivial; restrict to %s first"
			% "".join(graph.names(z))
		)
	rows = d.pair.index.rows
	rank = sum(1 for vc in bits(z) for w in bits(graph.full & ~z) if rows[w] >> vc & 1)
	return z, rank, GroupDescriptor(induced(d.pair, graph.full & ~z))


def classify_irreducible(d):
	"""Sort a no-more-restrictions descriptor into its terminal shape.

	Requires the restriction to every invariant subgraph, listed in G or
	not, to already be trivial, which is what _pivot finding nothing
	means: a property of the group, so a pair is judged as its
	saturation would be. Complete graphs give the integer general linear
	block; a connected graph with trivial center gives a free abelian
	piece bounded by its generator count; a disconnected graph gives
	either a free product shape or, when the invariant subgraphs glue it
	back together, a free abelian group spanned by the star-separating
	conjugations. A factor is held when it is invariant. A connected
	graph with a proper center is not terminal and must go through a
	projection instead. The invariant subgraphs are read through
	PairIndex.spanning, which covers and glues what all of them do.
	"""
	graph = d.graph
	pair = d.pair
	pending = d.pivot()
	if pending is not None:
		raise DomainError(
			"restriction to %s is still nontrivial; restrict first"
			% "".join(graph.names(pending))
		)
	members = pair.index.spanning(graph.full)
	if graph.is_clique(graph.full):
		covered = 0
		for m in members:
			covered |= m
		free = (graph.full & ~covered).bit_count()
		if free == 0:
			return Trivial()
		return GeneralLinear(free, free * (graph.n - free))
	if graph.is_connected():
		if graph.subgraph_center(graph.full):
			raise DomainError("nontrivial center: use a projection step")
		gens = d.gens()
		trv = sum(1 for gen in gens if gen.kind == "trv")
		return FreeAbelian(trv, len(gens))
	comps = orders.g_components(graph, members, graph.full)
	if len(comps) >= 2:
		factors = []
		held = []
		free = 0
		for c in comps:
			if c.bit_count() == 1 and not any(m & c for m in members):
				free += 1
			else:
				factors.append(graph.induced(c))
				held.append(is_invariant(pair, c))
		return FouxeRabinovitch(factors, free, held)
	theta = [v for v in range(graph.n) if len(pair.index.gv[v]) >= 2]
	for i, u in enumerate(theta):
		for v in theta[i + 1 :]:
			if not graph.adj[u] >> v & 1:
				raise RuntimeError("separating letters do not span a clique")
	return FreeAbelian(len(theta), len(theta))


# ---- the tree ----


def _child(parent, child):
	"""A node for child, its step still to take, once complexity drops along the edge."""
	if not child.complexity() < parent.complexity():
		raise RuntimeError(
			"complexity failed to decrease: %r -> %r"
			% (parent.complexity(), child.complexity())
		)
	return DecompositionNode(child, None)


def decompose(d, mode="auto", script=None):
	"""Build the full decomposition tree below a descriptor.

	Auto mode saturates, then always restricts to the smallest invariant
	member with a nontrivial restriction, falling back to projection and
	classification when none is left. The saturated pairs are lazy
	(peripheral.saturation): the pivot, the image and kernel indexes and
	the leaf shapes come from closures of invariant sets
	(orders.PairIndex.spanning), so G, which can hold 2^n - 2 members, is
	listed only for what prints it (the node summaries, JSON "G");
	SATURATE_CAP bounds that listing, not the tree. Script mode follows
	caller-given steps instead (restrict/project/leaf), in the form
	load.build_script checks, with each step's preconditions validated;
	a leaf's precondition and shape are those of the group, whether G
	lists its invariant subgraphs or not. A restrict step may carry a
	nested script for its image branch. A script may have any length,
	and a branch whose script is empty or exhausted goes on in auto
	mode: auto mode is the empty script. Branches wait on a stack, image
	branches taken before kernel branches, so of two failing steps the
	image branch's is reported.
	"""
	if mode not in ("auto", "script"):
		raise DomainError("decompose mode must be auto or script")
	root = DecompositionNode(d, None)
	# (node whose step is still to take, its branch's script, step index, key path)
	stack = [(root, (script or []) if mode == "script" else [], 0, "")]
	while stack:
		node, steps, i, path = stack.pop()
		d = node.descriptor
		scripted = i < len(steps)
		if not scripted and not d.pair.saturated:
			d = node.descriptor = GroupDescriptor(saturation(d.pair))
		step = steps[i] if scripted else _auto_step(d)
		at = "%s[%d]" % (path, i)
		op = step.get("op")
		try:
			if op == "restrict":
				dmask = d.graph.mask(step["target"])
				if dmask in d.pair.h_members:
					raise DomainError(
						"restriction target %s is already in H, so the step makes no progress"
						% "".join(d.graph.names(dmask))
					)
				kernel, image = restriction_step(d, dmask, mode=step.get("mode", "fast"))
				node.step = RestrictionStep(dmask, _child(d, kernel), _child(d, image))
			elif op == "project":
				zmask, rank, image = projection_step(d)
				node.step = ProjectionStep(zmask, rank, _child(d, image))
			elif op == "leaf":
				if i + 1 < len(steps):
					raise DomainError("leaf must be the last step of its branch")
				node.step = Leaf(classify_irreducible(d))
			else:
				raise DomainError("unknown script op %r" % op)
		except DomainError as exc:
			if not scripted:
				raise
			key = at + '"target"' if op == "restrict" else at
			raise ScriptError("%s: %s" % (key, exc)) from None
		# a restriction image starts its own script; any other child goes on with this one
		for role, child in node.step.children:
			if op == "restrict" and role == "image":
				stack.append((child, step.get("image", []), 0, at + '"image"'))
			else:
				stack.append((child, steps, i + 1, path))
	return root


def _auto_step(d):
	"""The step auto mode takes on a saturated descriptor, in script form."""
	pivot = d.pivot()
	if pivot is not None:
		return {"op": "restrict", "target": d.graph.names(pivot), "mode": "saturated"}
	graph = d.graph
	if graph.is_connected() and 0 < graph.subgraph_center(graph.full) < graph.full:
		return {"op": "project"}
	return {"op": "leaf"}


def _moved(pair):
	"""The vertices some inversion or transvection of the pair moves.

	Lemma: these are the moved vertices of the inversions and
	transvections enumerate_generators lists, read off the index without
	listing them. The inversion of v is listed exactly when no member of
	H holds v, and a transvection moving v exactly when row v of the
	relative order holds a vertex besides v.
	"""
	held = 0
	for m in pair.h_members:
		held |= m
	moved = pair.graph.full & ~held
	for v, row in enumerate(pair.index.rows):
		if row & ~(1 << v):
			moved |= 1 << v
	return moved


def _pivot(d):
	"""The least invariant set, by size then mask, some generator restricts nontrivially to.

	An inversion or transvection acts nontrivially exactly on the sets
	holding its moved vertex, so those generators collapse into one mask:
	the vertices in no member of H, moved by their inversions, and those
	whose order row holds another vertex, moved by transvections. _moved
	reads it off the index without listing the generators. The listed
	partial conjugations with acting letter x are one per G^x-component
	but one; some of them acts nontrivially on m exactly when m meets two
	G^x-components, which one lookup in the owner table of those
	components tells. The generator list holds no symmetries.
	Only the sets of PairIndex.spanning are tried, which hold the least
	qualifying one; on a saturated pair that is the least such member,
	and on any other pair the least such member of its saturation. Those
	sets are invariant, so no x outside one sees it meet two
	G^x-components, and only the x inside it are looked up.
	"""
	index = d.pair.index
	moved = _moved(d.pair)
	splits = index.splits
	for m in index.spanning(d.graph.full):
		if m & moved:
			return m
		for x, away, owner in splits:
			if m >> x & 1:
				part = m & away
				if part & ~owner[(part & -part).bit_length() - 1]:
					return m
	return None
