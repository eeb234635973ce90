import json
import random

import pytest

from raagout.errors import DomainError, ScriptError
from raagout.families import four_path
from raagout.graphs import DefiningGraph
from raagout.peripheral import PeripheralPair, saturate
from raagout.autos import acts_trivially_word, is_inner, realize
from raagout.decompose import (
	Complexity,
	DecompositionNode,
	FouxeRabinovitch,
	FreeAbelian,
	GeneralLinear,
	GroupDescriptor,
	Leaf,
	ProjectionStep,
	RestrictionStep,
	Trivial,
	classify_irreducible,
	decompose,
	lift_generator,
	projection_step,
	restriction_step,
	tree_dot,
	word_restriction,
	_pivot,
)

from raagout.vcd import vcd_upper

from helpers import (
	auto_tree_nodes,
	connected_graphs_upto_iso,
	graph_from_edges,
	pivot_by_generators,
	random_peripheral,
)


def path3():
	return DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def clique(n):
	names = ["x%d" % i for i in range(n)]
	return DefiningGraph(names, [[a, b] for a in names for b in names if a < b])


def edgeless(n):
	return DefiningGraph(["x%d" % i for i in range(n)], [])


def diamond_chain(d):
	names = ["c0"]
	edges = []
	for i in range(1, d + 1):
		names += ["a%d" % i, "b%d" % i, "c%d" % i]
		prev = "c%d" % (i - 1)
		edges += [
			[prev, "a%d" % i],
			[prev, "b%d" % i],
			["a%d" % i, "c%d" % i],
			["b%d" % i, "c%d" % i],
		]
	return DefiningGraph(names, edges)


def descriptor(graph, g=(), h=()):
	return GroupDescriptor(graph, PeripheralPair(graph, g, h).normalize())


def names_of(graph, masks):
	return sorted(sorted(graph.names(m)) for m in masks)


# ---- descriptors and complexity ----


def test_descriptor_normalizes_and_counts():
	g = path3()
	d = GroupDescriptor(g, PeripheralPair(g, [], [g.mask(["a", "b"])]))
	assert d.pair.normalized
	# 2^3 minus the single trivial-action member
	assert d.complexity() == Complexity(3, 7)
	assert d.complexity() < Complexity(3, 8)
	assert d.complexity() < Complexity(4, 0)


def test_absolute_descriptor():
	d = GroupDescriptor.absolute(path3())
	assert d.pair.g_members == ()
	assert d.complexity() == Complexity(3, 8)


# ---- restriction ----


def test_restriction_diamond_first_step():
	g = diamond_chain(2)
	d = GroupDescriptor.absolute(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	kernel, image = restriction_step(d, b, mode="fast")
	# kernel keeps the graph; the target becomes a trivial-action member
	assert kernel.graph is g
	assert b in kernel.pair.h_members
	assert b in kernel.pair.g_members
	# the image moves onto the subgraph with its computed periphery
	assert image.graph.vertices == ("c1", "a2", "b2", "c2")
	assert names_of(image.graph, image.pair.g_members) == [["c1"]]
	assert image.pair.h_members == ()


def test_restriction_diamond_second_step():
	g = diamond_chain(2)
	d = GroupDescriptor.absolute(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	a1 = g.mask(["c0", "a1", "b1", "c1"])
	kernel, _ = restriction_step(d, b, mode="fast")
	inner, image = restriction_step(kernel, a1, mode="fast")
	# both diamonds now held pointwise up to conjugacy: the inner kernel
	assert set(inner.pair.h_members) == {b, a1}
	# the image inherits the shared vertex pointwise
	assert image.graph.vertices == ("c0", "a1", "b1", "c1")
	c1 = image.graph.mask(["c1"])
	assert c1 in image.pair.h_members
	assert c1 in image.pair.g_members


def test_restriction_requires_invariance():
	g = path3()
	d = GroupDescriptor.absolute(g)
	with pytest.raises(DomainError):
		restriction_step(d, g.mask(["a", "c"]))
	for target in (["a", "c"], ["a"], ["a", "b"]):
		with pytest.raises(DomainError):
			restriction_step(d, g.mask(target), mode="saturated")
	with pytest.raises(DomainError):
		restriction_step(d, 0)
	with pytest.raises(DomainError):
		restriction_step(d, g.full)
	with pytest.raises(DomainError):
		restriction_step(d, g.mask(["b"]), mode="lazy")


def test_restriction_kernel_gens_trivial_on_target():
	g = diamond_chain(2)
	d = GroupDescriptor.absolute(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	kernel, _ = restriction_step(d, b, mode="fast")
	for gen in kernel.gens():
		assert gen.acts_trivially_on(b)
		if gen.kind != "sym":
			flag, _ = acts_trivially_word(kernel.ctx, realize(kernel.ctx, gen), b)
			assert flag, str(gen)


def test_lift_roundtrip_mod_inner():
	g = diamond_chain(2)
	d = GroupDescriptor.absolute(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	_, image = restriction_step(d, b, mode="fast")
	lifted = 0
	for gen in image.gens():
		if gen.kind == "sym":
			continue
		lift = lift_generator(d, image, b, gen)
		phi = realize(d.ctx, lift)
		back = word_restriction(d.ctx, image.ctx, b, phi)
		diff = back.compose(realize(image.ctx, gen).invert())
		assert is_inner(image.ctx, diff.images).status == "yes", str(gen)
		lifted += 1
	assert lifted == len(image.gens())


def test_lift_partial_conjugation_region():
	# lifting widens the region to whole relative components of the source
	g = diamond_chain(2)
	d = GroupDescriptor.absolute(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	saturated_kernel, image = restriction_step(d, b, mode="saturated")
	for gen in image.gens():
		if gen.kind != "pc":
			continue
		lift = lift_generator(d, image, b, gen)
		assert lift.kind == "pc"
		acting, region = lift.data
		keep = image.graph.mask(image.graph.vertices)
		del keep
		# restricting the lifted region back recovers the original
		back = 0
		for i, name in enumerate(image.graph.vertices):
			if region >> g.index[name] & 1:
				back |= 1 << i
		assert back == gen.data[1]


def test_lift_rejects_outsiders():
	g = diamond_chain(2)
	d = GroupDescriptor.absolute(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	_, image = restriction_step(d, b, mode="fast")
	from raagout.autos import LaurenceGenerator

	bad = LaurenceGenerator.transvection(image.graph, "c1", "c2")
	with pytest.raises(DomainError):
		lift_generator(d, image, b, bad)
	sym = LaurenceGenerator(image.graph, "sym", tuple(range(image.graph.n)))
	with pytest.raises(DomainError):
		lift_generator(d, image, b, sym)


# ---- projection ----


def test_projection_path3_relative():
	g = path3()
	b = g.mask(["b"])
	d = descriptor(g, g=[b], h=[b])
	rank, image = projection_step(d)
	assert rank == 2
	assert image.graph.vertices == ("a", "c")
	assert image.pair.g_members == ()


def test_projection_needs_connected():
	with pytest.raises(DomainError):
		projection_step(GroupDescriptor.absolute(edgeless(2)))


def test_projection_needs_proper_center():
	with pytest.raises(DomainError):
		projection_step(GroupDescriptor.absolute(clique(3)))
	g = DefiningGraph(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])
	with pytest.raises(DomainError):
		projection_step(GroupDescriptor.absolute(g))


def test_projection_needs_trivial_center_action():
	# the absolute group of a path moves the center by inversions
	d = GroupDescriptor.absolute(path3())
	with pytest.raises(DomainError):
		projection_step(d)


# ---- classification ----


def test_classify_clique_general_linear():
	assert classify_irreducible(GroupDescriptor.absolute(clique(3))) == GeneralLinear(3, 0)
	assert classify_irreducible(GroupDescriptor.absolute(clique(1))) == GeneralLinear(1, 0)


def test_classify_clique_partial_cover():
	g = clique(3)
	x = g.mask(["x0"])
	d = descriptor(g, g=[x], h=[x])
	assert classify_irreducible(d) == GeneralLinear(2, 2)


def test_classify_trivial():
	g = clique(2)
	d = descriptor(g, g=[g.mask(["x0"]), g.mask(["x1"])], h=[g.mask(["x0"]), g.mask(["x1"])])
	assert list(d.gens()) == []
	assert classify_irreducible(d) == Trivial()


def test_classify_free_product():
	assert classify_irreducible(GroupDescriptor.absolute(edgeless(3))) == FouxeRabinovitch(
		(), 3
	)
	g = edgeless(2)
	u, v = g.mask(["x0"]), g.mask(["x1"])
	d = descriptor(g, g=[u, v], h=[u, v])
	shape = classify_irreducible(d)
	assert isinstance(shape, FouxeRabinovitch)
	assert shape.free_rank == 0
	assert [f.vertices for f in shape.factors] == [("x0",), ("x1",)]
	assert shape.held == (True, True)


def test_classify_glued_free_abelian():
	# members chain the letters together; the middle letter separates
	g = edgeless(3)
	uv = g.mask(["x0", "x1"])
	vw = g.mask(["x1", "x2"])
	d = descriptor(g, g=[uv, vw], h=[uv, vw])
	assert [str(x) for x in d.gens()] == ["pc x1:[x2]"]
	assert classify_irreducible(d) == FreeAbelian(1, 1)


def test_classify_refuses_pending_restriction():
	g = path3()
	b = g.mask(["b"])
	with pytest.raises(DomainError):
		classify_irreducible(descriptor(g, g=[b]))


def test_classify_signals_projection():
	g = path3()
	b = g.mask(["b"])
	with pytest.raises(DomainError):
		classify_irreducible(descriptor(g, g=[b], h=[b]))


# ---- full decomposition ----


def test_decompose_clique_single_leaf():
	node = decompose(GroupDescriptor.absolute(clique(4)))
	assert isinstance(node.step, Leaf)
	assert node.leaves() == [GeneralLinear(4, 0)]


def test_decompose_path3_relative():
	g = path3()
	b = g.mask(["b"])
	node = decompose(descriptor(g, g=[b], h=[b]))
	assert isinstance(node.step, ProjectionStep)
	assert node.step.kernel_rank == 2
	assert node.leaves() == [FreeAbelian(2, 2), FouxeRabinovitch((), 2)]


def test_decompose_diamond_script():
	g = diamond_chain(2)
	b = ["c1", "a2", "b2", "c2"]
	a1 = ["c0", "a1", "b1", "c1"]
	script = [
		{"op": "restrict", "target": b, "mode": "fast"},
		{"op": "restrict", "target": a1, "mode": "fast"},
	]
	node = decompose(GroupDescriptor.absolute(g), mode="script", script=script)
	step = node.step
	assert isinstance(step, RestrictionStep)
	assert step.dmask == g.mask(b)
	inner = step.kernel.step
	assert isinstance(inner, RestrictionStep)
	assert inner.dmask == g.mask(a1)
	assert set(inner.kernel.descriptor.pair.h_members) == {g.mask(b), g.mask(a1)}
	# both restriction images carry the shared vertex as periphery;
	# the recorded image node is saturated, so membership, not equality
	im = step.image.descriptor
	assert im.graph.mask(["c1"]) in im.pair.g_members
	im2 = inner.image.descriptor
	assert im2.graph.mask(["c1"]) in im2.pair.h_members


def test_decompose_script_nested_image():
	g = diamond_chain(2)
	script = [
		{
			"op": "restrict",
			"target": ["c1", "a2", "b2", "c2"],
			"mode": "fast",
			"image": [{"op": "restrict", "target": ["c1"], "mode": "fast"}],
		},
	]
	node = decompose(GroupDescriptor.absolute(g), mode="script", script=script)
	istep = node.step.image.step
	assert isinstance(istep, RestrictionStep)
	assert istep.image.descriptor.graph.vertices == ("c1",)


def test_decompose_script_errors():
	g = path3()
	d = GroupDescriptor.absolute(g)
	with pytest.raises(DomainError):
		decompose(d, mode="script", script=[{"op": "restrict", "target": ["a", "c"]}])
	with pytest.raises(DomainError):
		decompose(d, mode="script", script=[{"op": "spin"}])
	with pytest.raises(DomainError):
		decompose(d, mode="script", script=[{"op": "leaf"}, {"op": "leaf"}])
	with pytest.raises(DomainError):
		decompose(d, mode="sideways")
	# a target already in H adds no trivial-action member: no progress
	b = g.mask(["b"])
	script = [{"op": "restrict", "target": ["b"]}]
	with pytest.raises(DomainError, match="already in H"):
		decompose(descriptor(g, g=[b], h=[b]), mode="script", script=script)


def test_decompose_script_image_error_wins_over_a_later_step():
	# the top-level [1] fails on its own, but the image branch of [0] is
	# built first, so its error is the one reported
	d = GroupDescriptor.absolute(path3())
	later = {"op": "restrict", "target": ["a"]}
	with pytest.raises(ScriptError, match=r'^\[1\]"target": '):
		decompose(d, mode="script", script=[{"op": "restrict", "target": ["b"]}, later])
	nested = {"op": "restrict", "target": ["b"], "image": [{"op": "spin"}]}
	with pytest.raises(ScriptError, match=r'^\[0\]"image"\[0\]: unknown script op'):
		decompose(d, mode="script", script=[nested, later])


def test_scripted_leaves_have_no_invariant_subgraph_left_to_restrict():
	# random pairs on graphs with at most 5 vertices, connected or not,
	# under the scripts [leaf] and [restrict fast T, image [leaf]]: each
	# run builds a tree or raises a domain error (exit 0 or 1), and every
	# leaf it accepts restricts trivially to every invariant subgraph,
	# listed or not, that is, to every member of the saturation. A root
	# [leaf] that is accepted is the leaf auto mode reaches.
	rng = random.Random(29)
	accepted = refused = 0
	for _ in range(300):
		n = rng.randrange(2, 6)
		density = rng.random()
		g = graph_from_edges(
			n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
		)
		glist, hlist = random_peripheral(g, rng)
		d = descriptor(g, g=glist, h=hlist)
		target = g.names(rng.randrange(1, g.full))
		image = {"op": "restrict", "target": target, "mode": "fast", "image": [{"op": "leaf"}]}
		for script in ([{"op": "leaf"}], [image]):
			try:
				root = decompose(d, mode="script", script=script)
			except DomainError:
				refused += 1
				continue
			accepted += 1
			for _, node, _ in root.walk():
				if isinstance(node.step, Leaf):
					leaf = node.descriptor
					assert pivot_by_generators(GroupDescriptor(leaf.graph, saturate(leaf.pair))) is None
			if script[0]["op"] == "leaf":
				assert decompose(d).step.shape == root.step.shape
	assert accepted > 100 and refused > 100


def test_decompose_complexity_strictly_drops():
	g = diamond_chain(2)
	edges = 0
	for _, n, _ in decompose(GroupDescriptor.absolute(g)).walk():
		for _, child in n.step.children:
			assert child.descriptor.complexity() < n.descriptor.complexity()
			edges += 1
	assert edges > 0


def test_walk_is_pre_order_with_paths():
	# restrict at the root; its kernel projects onto a leaf, its image is a leaf
	d = GroupDescriptor.absolute(path3())
	kernel = DecompositionNode(d, ProjectionStep(2, 2, DecompositionNode(d, Leaf(Trivial()))))
	image = DecompositionNode(d, Leaf(FreeAbelian(1, 1)))
	root = DecompositionNode(d, RestrictionStep(1, kernel, image))
	assert list(root.walk()) == [
		("root", root, None),
		("root.k", kernel, root.step),
		("root.k.i", kernel.step.image, kernel.step),
		("root.i", image, root.step),
	]
	assert root.leaves() == [FreeAbelian(2, 2), Trivial(), FreeAbelian(1, 1)]


def test_pivot_is_smallest_member_with_nontrivial_restriction():
	# random pairs, saturated or not, and every node of the auto trees of
	# helpers.auto_tree_nodes: their pairs are saturated without a member
	# list, kernels carry refined indexes and images closure-built ones.
	# _pivot reads closures; pivot_by_generators lists the members of the
	# saturation, which a listed pair is judged by too
	rng = random.Random(17)
	cases = []
	for n in (4, 5):
		for edges in connected_graphs_upto_iso(n):
			g = graph_from_edges(n, edges)
			glist, hlist = random_peripheral(g, rng)
			pair = PeripheralPair(g, glist, hlist).normalize()
			sat = GroupDescriptor(g, saturate(pair))
			cases.append((GroupDescriptor(g, pair), sat))
			cases.append((sat, sat))
	nodes = auto_tree_nodes()
	assert all(node.descriptor.pair.saturated for node in nodes)
	assert sum(node.descriptor.pair._g_members is None for node in nodes) > len(nodes) // 2
	cases.extend((node.descriptor, node.descriptor) for node in nodes)
	for d, sat in cases:
		assert _pivot(d) == pivot_by_generators(sat)
	assert sum(_pivot(d) is None for d, _ in cases) not in (0, len(cases))


def test_leaf_shapes_match_the_listed_members():
	# auto leaves classify saturated pairs whose index was handed down the
	# tree; the same members passed as a plain list, not flagged
	# saturated, build their index afresh and must give the same shape
	leaves = [node for node in auto_tree_nodes() if isinstance(node.step, Leaf)]
	covered_cliques = 0
	for node in leaves:
		d = node.descriptor
		pair = d.pair
		listed = PeripheralPair(d.graph, pair.g_members, pair.h_members, pair.normalized)
		assert classify_irreducible(GroupDescriptor(d.graph, listed)) == node.step.shape
		if d.graph.is_clique(d.graph.full) and pair.g_members:
			covered_cliques += 1
	assert covered_cliques > 10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_auto_diamond_chain_folds_to_4d_minus_1(d):
	# n = 22 and 25 for d = 7 and 8, past SATURATE_CAP: the tree never
	# lists a saturated member list, so the cap does not apply
	assert vcd_upper(decompose(GroupDescriptor.absolute(diamond_chain(d)))) == 4 * d - 1


def test_decompose_deterministic():
	g = diamond_chain(2)
	one = decompose(GroupDescriptor.absolute(g))
	two = decompose(GroupDescriptor.absolute(g))
	assert one.to_json_obj() == two.to_json_obj()
	assert one.leaves() == two.leaves()
	assert tree_dot(one) == tree_dot(two)


def test_decompose_auto_diamond_leaves():
	node = decompose(GroupDescriptor.absolute(diamond_chain(1)))
	assert node.leaves() == [
		FreeAbelian(0, 0),
		FouxeRabinovitch((), 2),
		FouxeRabinovitch((), 2),
	]


# ---- export ----


def test_tree_json_and_dot():
	g = path3()
	b = g.mask(["b"])
	node = decompose(descriptor(g, g=[b], h=[b]))
	obj = json.loads(json.dumps(node.to_json_obj()))
	assert obj["project"]["center"] == ["b"]
	assert obj["project"]["kernel_rank"] == 2
	assert "leaf" in obj["project"]["image"]
	dot = tree_dot(node)
	assert dot.startswith("digraph")
	assert dot.endswith("}")
	assert "FR(" in dot
