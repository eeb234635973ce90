"""Subnormal decomposition of relative outer automorphism groups.

A descriptor ties a defining graph to a peripheral pair and stands for one
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
from .words import WordContext, enc, inverse
from .peripheral import PeripheralPair, fast_periphery, induced, is_invariant, saturation
from .autos import (
	Automorphism,
	LaurenceGenerator,
	enumerate_generators,
	gen_in_relative,
	preserves_word,
)


Complexity = namedtuple("Complexity", ["n", "m"])


class GroupDescriptor:
	"""A relative outer automorphism group: a graph plus a peripheral pair."""

	__slots__ = ("graph", "pair", "_ctx", "_gens")

	def __init__(self, graph, pair):
		if pair.graph is not graph and pair.graph.vertices != graph.vertices:
			raise DomainError("pair belongs to a different graph")
		if not pair.normalized:
			pair = pair.normalize()
		self.graph = graph
		self.pair = pair
		self._ctx = None
		self._gens = None

	@classmethod
	def absolute(cls, graph):
		return cls(graph, PeripheralPair(graph, [], []))

	@property
	def ctx(self):
		if self._ctx is None:
			self._ctx = WordContext(self.graph)
		return self._ctx

	def gens(self):
		if self._gens is None:
			self._gens = enumerate_generators(self.pair)
		return self._gens

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
		"""(path, node, parent step) for every node, in pre-order.

		The path is "root" here, and each child extends its parent's path
		by ".k" for a kernel branch or ".i" for an image branch; the
		parent step of this node is None. Children come in step.children
		order, kernel before image.
		"""
		stack = [("root", self, None)]
		while stack:
			path, node, parent = stack.pop()
			yield path, node, parent
			for role, child in reversed(node.step.children):
				stack.append(("%s.%s" % (path, role[0]), child, node.step))

	def leaves(self):
		"""Leaf shapes and projection kernels, left to right."""
		out = []
		for _, node, _ in self.walk():
			step = node.step
			if isinstance(step, Leaf):
				out.append(step.shape)
			elif isinstance(step, ProjectionStep):
				out.append(FreeAbelian(step.kernel_rank, step.kernel_rank))
		return out

	def to_json_obj(self):
		"""The tree as nested objects, built along walk() so its depth costs no stack."""
		bodies = {}
		for path, node, parent in self.walk():
			d = node.descriptor
			step = node.step
			obj = d.to_json_obj()
			if parent is None:
				root = obj
			else:
				up, role = path.rsplit(".", 1)
				bodies[up]["kernel" if role == "k" else "image"] = obj
			if isinstance(step, Leaf):
				obj["leaf"] = step.shape.to_json_obj()
			elif isinstance(step, RestrictionStep):
				bodies[path] = obj["restrict"] = {"target": d.graph.names(step.dmask)}
			else:
				bodies[path] = obj["project"] = {
					"center": d.graph.names(step.zmask),
					"kernel_rank": step.kernel_rank,
				}
		return root


def tree_dot(root):
	"""The tree in DOT form, nodes labeled by descriptor summaries.

	Nodes are numbered in pre-order, and the edge into a node follows its
	whole subtree; the pending edges wait on a stack until the walk leaves
	their child's subtree.
	"""
	lines = ["digraph decomposition {", "\tnode [shape=box];"]
	ids = {}
	pending = []
	for path, node, parent in root.walk():
		while pending and not path.startswith(pending[-1][0] + "."):
			lines.append(pending.pop()[1])
		my = ids[path] = "n%d" % len(ids)
		step = node.step
		label = node.descriptor.summary()
		if isinstance(step, Leaf):
			label += "\\n%r" % step.shape
		elif isinstance(step, RestrictionStep):
			label += "\\nrestrict %s" % ",".join(node.descriptor.graph.names(step.dmask))
		else:
			label += "\\nproject, ker Z^%d" % step.kernel_rank
		lines.append('\t%s [label="%s"];' % (my, label))
		if parent is not None:
			up, role = path.rsplit(".", 1)
			edge = '\t%s -> %s [label="%s"];' % (ids[up], my, "ker" if role == "k" else "im")
			pending.append((path, edge))
	lines.extend(edge for _, edge in reversed(pending))
	lines.append("}")
	return "\n".join(lines)


# ---- the three moves ----


def restriction_step(d, dmask, mode="fast"):
	"""Split off the restriction to an invariant subgraph.

	Fast mode keeps the pair as given and completes the image with the
	computed periphery; saturated mode saturates first, which makes the
	induced members alone already sufficient. Either way the kernel keeps
	the whole graph and gains dmask as a trivial-action member,
	re-normalized so the new member's pieces join the preserved side; its
	order index is the pair's refined by those pieces. Every member of G
	is invariant, and on a saturated pair, whose G is every proper
	invariant set, every invariant target is a member; neither the kernel
	nor the image of a saturated pair lists G (see peripheral.saturation
	and induced).
	"""
	graph = d.graph
	if not 0 < dmask < graph.full:
		raise DomainError("restriction target must be a proper nonempty subgraph")
	if mode not in ("fast", "saturated"):
		raise DomainError("restriction mode must be fast or saturated")
	pair = d.pair
	if mode == "saturated" and not pair.saturated:
		pair = saturation(pair)
	if not is_invariant(pair, dmask):
		raise DomainError(
			"restriction target %s is not invariant for this pair"
			% "".join(graph.names(dmask))
		)
	if not pair.saturated and dmask not in pair.g_members:
		pair = pair.adding_g([dmask])
	sub_pair = induced(pair, dmask)
	if mode == "fast":
		per = fast_periphery(pair, dmask)
		sub_pair = sub_pair.adding_g(compress_mask(m, dmask) for m in per)
	image = GroupDescriptor(sub_pair.graph, sub_pair)
	kernel = GroupDescriptor(graph, pair.adding_h([dmask]))
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


def word_restriction(ctx, sub_ctx, dmask, phi):
	"""phi as an explicit automorphism of the subgroup on dmask.

	Conjugates by a preserving witness first, so the letter images all
	live inside dmask, then recodes them onto the induced graph.
	"""
	ok, g = preserves_word(ctx, phi, dmask)
	if not ok:
		raise DomainError("map does not carry the subgroup to a conjugate")
	pos = {s: i for i, s in enumerate(bits(dmask))}

	def recode(word):
		return tuple(2 * pos[lt >> 1] | lt & 1 for lt in word)

	fwd = []
	bwd = []
	for s in bits(dmask):
		inside = ctx.reduce(inverse(g) + phi.images[2 * s] + g)
		fwd.append(recode(inside))
		back = phi.apply_back(ctx.conjugate(g, (enc(s, 1),)))
		bwd.append(recode(back))
	return Automorphism.from_images(sub_ctx, fwd, bwd)


def projection_step(d):
	"""Quotient by the transvection kernel onto the center's complement.

	Sound whenever the graph is connected, the center is nonempty and
	proper, and the group acts trivially on the center's subgroup; the
	kernel is free abelian, spanned by the transvections from outside
	letters onto central ones that the relative order admits.
	"""
	graph = d.graph
	if not graph.is_connected():
		raise DomainError("projection needs a connected graph")
	z = graph.subgraph_center(graph.full)
	if not z or z == graph.full:
		raise DomainError("projection needs a nonempty proper center")
	for gen in d.gens():
		if not gen.acts_trivially_on(z):
			raise DomainError(
				"restriction to the center is nontrivial; restrict to %s first"
				% "".join(graph.names(z))
			)
	rows = d.pair.index.rows
	rank = sum(1 for vc in bits(z) for w in bits(graph.full & ~z) if rows[w] >> vc & 1)
	image_pair = induced(d.pair, graph.full & ~z)
	return rank, GroupDescriptor(image_pair.graph, image_pair)


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
	gens = d.gens()
	pending = _pivot(d)
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
			d = node.descriptor = GroupDescriptor(d.graph, saturation(d.pair))
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
				rank, image = projection_step(d)
				node.step = ProjectionStep(d.graph.subgraph_center(d.graph.full), rank, _child(d, image))
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
	pivot = _pivot(d)
	if pivot is not None:
		return {"op": "restrict", "target": d.graph.names(pivot), "mode": "saturated"}
	graph = d.graph
	if graph.is_connected() and not graph.is_clique(graph.full) and graph.subgraph_center(graph.full):
		return {"op": "project"}
	return {"op": "leaf"}


def _pivot(d):
	"""The least invariant set, by size then mask, some generator restricts nontrivially to.

	An inversion or transvection acts nontrivially exactly on the sets
	holding its moved vertex, so those generators collapse into one mask.
	The listed partial conjugations with acting letter x are one per
	G^x-component but one; some of them acts nontrivially on m exactly
	when m meets two G^x-components, which one lookup in the owner table
	of those components tells. The generator list holds no symmetries.
	Only the sets of PairIndex.spanning are tried, which hold the least
	qualifying one; on a saturated pair that is the least such member,
	and on any other pair the least such member of its saturation.
	"""
	index = d.pair.index
	moved = 0
	for gen in d.gens():
		if gen.kind != "pc":
			moved |= 1 << gen.data[0]
	for m in index.spanning(d.graph.full):
		if m & moved:
			return m
		for _, away, owner in index.splits:
			part = m & away
			if part & ~owner[(part & -part).bit_length() - 1]:
				return m
	return None
