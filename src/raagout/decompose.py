"""Subnormal decomposition of relative outer automorphism groups.

A peripheral pair, graph included, stands for one relative group. Three
moves take it apart: restricting to an invariant subgraph (the kernel
keeps the graph with the target turned into a trivial-action member, the
image moves onto the subgraph), projecting away a nontrivial center (the
kernel is free abelian of a computable rank), and classifying what
remains as a terminal shape. A decomposition tree records the moves, and
a complexity measure drops strictly along every edge, so the construction
terminates no matter which invariant subgraphs get picked.
"""

from .errors import DomainError, ScriptError
from .graphs import bits, mask_of
from . import orders
from .words import mask_word
from .peripheral import (
	PeripheralPair,
	_moved,
	induced,
	is_invariant,
	saturation,
)
from .autos import Automorphism, LaurenceGenerator, gen_in_relative


# the constructions of a restriction step, and the one taken when none is named
FAST, SATURATED = RESTRICT_MODES = ("fast", "saturated")
RESTRICT_DEFAULT = FAST

# The pair is the group. The old name stays for callers outside the package
# that still spell it (perfbench builds GroupDescriptor.absolute and wraps
# GroupDescriptor.gens); nothing in the package does.
GroupDescriptor = PeripheralPair


# ---- terminal shapes ----


class FreeAbelian:
	"""Free abelian piece of a given rank."""

	__slots__ = ("rank",)

	def __init__(self, rank):
		self.rank = rank

	def __eq__(self, other):
		return isinstance(other, FreeAbelian) and self.rank == other.rank

	def __repr__(self):
		return "FreeAbelian(%d)" % self.rank

	def to_json_obj(self):
		return {"class": "free_abelian", "rank": self.rank}


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

	def __init__(self, factors, free_rank, held):
		self.factors = tuple(factors)
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
	__slots__ = ("pair", "step")

	def __init__(self, pair, step):
		self.pair = pair
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
				out.append(FreeAbelian(step.kernel_rank))
		return out

	def to_json_obj(self):
		"""The tree as nested objects, built along walk() so its depth costs no stack.

		Children go by role into bodies[k + 1], the open step body at depth k.
		"""
		bodies = [{}]
		for _, depth, role, node, _ in self.walk():
			graph = node.pair.graph
			step = node.step
			obj = bodies[depth][role] = group_to_json_obj(node.pair)
			del bodies[depth + 1:]
			if isinstance(step, Leaf):
				obj["leaf"] = step.shape.to_json_obj()
			elif isinstance(step, RestrictionStep):
				obj["restrict"] = {"target": graph.names(step.dmask)}
				bodies.append(obj["restrict"])
			else:
				obj["project"] = {
					"center": graph.names(step.zmask),
					"kernel_rank": step.kernel_rank,
				}
				bodies.append(obj["project"])
		return bodies[0][None]


def group_to_json_obj(pp):
	"""A pair with its graph: a node of the tree JSON, or a kernel or image restrict prints."""
	return {"graph": pp.graph.to_json_obj(), "pair": pp.to_json_obj()}


def dot_escape(text):
	"""text made safe inside a DOT quoted string: backslashes, then quotes, escaped."""
	return text.replace("\\", "\\\\").replace('"', '\\"')


def tree_dot(root):
	"""The tree in DOT form, nodes labeled by pair summaries.

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
		label = node.pair.summary()
		if isinstance(step, Leaf):
			label += "\\n%s" % dot_escape(repr(step.shape))
		elif isinstance(step, RestrictionStep):
			label += "\\nrestrict %s" % dot_escape(",".join(node.pair.graph.names(step.dmask)))
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
		summary = node.pair.summary()
		if isinstance(step, Leaf):
			lines.append("%sleaf %r  [%s]" % (pad, step.shape, summary))
		elif isinstance(step, ProjectionStep):
			names = ",".join(node.pair.graph.names(step.zmask))
			lines.append(
				"%sproject out <%s>, kernel rank %d  [%s]"
				% (pad, names, step.kernel_rank, summary)
			)
		else:
			names = ",".join(node.pair.graph.names(step.dmask))
			lines.append("%srestrict to <%s>  [%s]" % (pad, names, summary))
	return "\n".join(lines)


# ---- the three moves ----


def restriction_step(pair, dmask, mode=RESTRICT_DEFAULT):
	"""Split off the restriction to an invariant subgraph.

	The kernel keeps the whole graph and gains dmask as a trivial-action
	member, folded into G so the new member's pieces join the preserved
	side; its order index is the pair's refined by those pieces. The
	image is the pair induced on dmask, its index cut from the pair's
	closures (peripheral.induced). The mode picks only the members the
	kernel and image list, on their first read: fast mode keeps the pair
	as given and completes the image with the computed periphery;
	saturated mode saturates first, which makes the induced members alone
	already sufficient. Every member of G is invariant, and on a
	saturated pair, whose G is every proper invariant set, every
	invariant target is a member.

	A target outside G is not joined to the pair's G: the kernel folds it
	in through H, induced would drop its cut (all of dmask), and
	fast_periphery reads only the members that avoid a vertex of dmask.

	Lemma: the modes differ only in the members they list, as their
	kernels have one group and index, and so do their images. Saturation
	hands over the pair's index, so both kernels refine one index by the
	same masks. Both images are the restriction image, which the periphery
	makes exact, and a relative group fixes its index: trv v^w lies in it
	exactly when w is in row v, and pc x:R when R is a union of
	G^x-components. check-exact, bounds and leaf shapes read only those.
	"""
	graph = pair.graph
	if not 0 < dmask < graph.full:
		raise DomainError("restriction target must be a proper nonempty subgraph")
	if mode not in RESTRICT_MODES:
		raise DomainError("restriction mode must be %s" % " or ".join(RESTRICT_MODES))
	if mode == SATURATED and not pair.saturated:
		pair = saturation(pair)
	if not is_invariant(pair, dmask):
		raise DomainError(
			"restriction target %s is not invariant for this pair"
			% "".join(graph.names(dmask))
		)
	return pair.adding_h([dmask]), induced(pair, dmask, periphery=mode == FAST)


def lift_generator(source, image, dmask, gen):
	"""Pull an image generator back to the source group of a restriction.

	Inversions and transvections lift by vertex name. A partial
	conjugation lifts to the one along the union of the source-side
	relative components meeting its region; restricting that union back
	to the subgraph recovers the region. Symmetries are not enumerated
	and have no canonical lift.
	"""
	if not gen_in_relative(gen, image):
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
		for comp in source.index.gv[x]:
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


def projection_step(pp):
	"""Quotient by the transvection kernel onto the center's complement.

	Sound whenever the graph is connected, the center is nonempty and
	proper, and the group acts trivially on the center's subgroup; the
	kernel is free abelian, spanned by the transvections from outside
	letters onto central ones that the relative order admits. Returns
	the center's mask, the kernel rank and the image pair.

	Lemma: a partial conjugation is trivial on the center z. Every central
	vertex is adjacent to every other one, so z lies in st(x) for every
	acting letter x, while the region avoids st(x) and so misses z. The
	group therefore acts trivially on z exactly when no inversion or
	transvection moves a vertex of z, that is, when z misses _moved.
	"""
	graph = pp.graph
	if not graph.is_connected():
		raise DomainError("projection needs a connected graph")
	z = graph.center
	if not z or z == graph.full:
		raise DomainError("projection needs a nonempty proper center")
	if _moved(pp) & z:
		raise DomainError(
			"restriction to the center is nontrivial; restrict to %s first"
			% "".join(graph.names(z))
		)
	rows = pp.index.rows
	rank = sum(1 for vc in bits(z) for w in bits(graph.full & ~z) if rows[w] >> vc & 1)
	return z, rank, induced(pp, graph.full & ~z)


def classify_irreducible(pair):
	"""Sort a no-more-restrictions pair into its terminal shape.

	Requires the restriction to every invariant subgraph, listed in G or
	not, to already be trivial, which is what pair.pivot() finding nothing
	means: a property of the group, so a pair is judged as its
	saturation would be. Complete graphs give the integer general linear
	block. A connected graph with trivial center gives a free abelian
	piece whose rank is the count of listed generators, which bounds the
	rank of the piece; that list was empty on every graph checked (the
	census on 4-7 vertices, random auto trees, and random connected
	centerless pairs with no pending restriction). A disconnected graph
	gives either a free product shape or, when the invariant subgraphs
	glue it back together, a free abelian group spanned by the
	star-separating conjugations. A factor is held when it is invariant.
	A connected graph with a proper center is not terminal and must go
	through a projection instead. The invariant subgraphs are read through
	PairIndex.spanning, which covers and glues what all of them do.
	"""
	graph = pair.graph
	pending = pair.pivot()
	if pending is not None:
		raise DomainError(
			"restriction to %s is still nontrivial; restrict first"
			% "".join(graph.names(pending))
		)
	members = pair.index.spanning(graph.full)
	if graph.center == graph.full:
		covered = 0
		for m in members:
			covered |= m
		free = (graph.full & ~covered).bit_count()
		if free == 0:
			return Trivial()
		return GeneralLinear(free, free * (graph.n - free))
	if graph.is_connected():
		if graph.center:
			raise DomainError("nontrivial center: use a projection step")
		return FreeAbelian(len(pair.gens()))
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
	return FreeAbelian(len(theta))


# ---- the tree ----


def _child(parent, child):
	"""A node for child, its step still to take, once complexity drops along the edge."""
	if not child.complexity() < parent.complexity():
		raise RuntimeError(
			"complexity failed to decrease: %r -> %r"
			% (parent.complexity(), child.complexity())
		)
	return DecompositionNode(child, None)


def decompose(pair, mode="auto", script=None):
	"""Build the full decomposition tree below a pair.

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
	mode: auto mode is the empty script, and refuses any other. Branches
	wait on a stack, image branches taken before kernel branches, so of
	two failing steps the image branch's is reported.
	"""
	if mode not in ("auto", "script"):
		raise DomainError("decompose mode must be auto or script")
	if mode == "auto" and script is not None:
		raise DomainError("decompose takes a script only in script mode")
	root = DecompositionNode(pair, None)
	# (node whose step is still to take, its branch's script, step index, key path)
	stack = [(root, script or [], 0, "")]
	while stack:
		node, steps, i, path = stack.pop()
		pair = node.pair
		scripted = i < len(steps)
		if not scripted and not pair.saturated:
			pair = node.pair = saturation(pair)
		step = steps[i] if scripted else _auto_step(pair)
		at = "%s[%d]" % (path, i)
		op = step.get("op")
		try:
			if op == "restrict":
				dmask = pair.graph.mask(step["target"])
				if dmask in pair.h_members:
					raise DomainError(
						"restriction target %s is already in H, so the step makes no progress"
						% "".join(pair.graph.names(dmask))
					)
				kernel, image = restriction_step(pair, dmask, mode=step.get("mode", RESTRICT_DEFAULT))
				node.step = RestrictionStep(dmask, _child(pair, kernel), _child(pair, image))
			elif op == "project":
				zmask, rank, image = projection_step(pair)
				node.step = ProjectionStep(zmask, rank, _child(pair, image))
			elif op == "leaf":
				if i + 1 < len(steps):
					raise DomainError("leaf must be the last step of its branch")
				node.step = Leaf(classify_irreducible(pair))
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


def _auto_step(pair):
	"""The step auto mode takes on a saturated pair, in script form."""
	pivot = pair.pivot()
	if pivot is not None:
		return {"op": "restrict", "target": pair.graph.names(pivot), "mode": SATURATED}
	graph = pair.graph
	if graph.is_connected() and 0 < graph.center < graph.full:
		return {"op": "project"}
	return {"op": "leaf"}
