import json
import random

import pytest

from raagout.errors import DomainError, ScriptError
from raagout.families import diamond_chain, diamond_script, four_path, four_path_script
from raagout.graphs import DefiningGraph, bits, mask_of
from raagout.load import build_pair
from raagout.orders import PairIndex
from raagout import peripheral
from raagout.peripheral import (
	Complexity,
	PeripheralPair,
	_moved,
	fast_periphery,
	induced,
	is_invariant,
	saturate,
)
from raagout.autos import (
	Automorphism,
	LaurenceGenerator,
	acts_trivially_word,
	enumerate_generators,
	gen_in_relative,
	is_inner,
	realize,
)
from raagout.decompose import (
	DecompositionNode,
	FouxeRabinovitch,
	FreeAbelian,
	GeneralLinear,
	Leaf,
	ProjectionStep,
	RestrictionStep,
	Trivial,
	classify_irreducible,
	decompose,
	group_to_json_obj,
	lift_generator,
	projection_step,
	restriction_step,
	tree_dot,
	word_restriction,
)

from raagout.vcd import certify_lower_bound, vcd_upper
from raagout.words import WordContext, inverse

from helpers import (
	acts_trivially_on,
	auto_tree_nodes,
	compress_mask,
	connected_graphs_upto_iso,
	graph_from_edges,
	is_clique,
	pivot_by_generators,
	preserves_word,
	random_peripheral,
	subgraph_center,
)


def path3():
	return DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def clique(n):
	names = ["x%d" % i for i in range(n)]
	return DefiningGraph(names, [[a, b] for a in names for b in names if a < b])


def edgeless(n):
	return DefiningGraph(["x%d" % i for i in range(n)], [])


def names_of(graph, masks):
	return sorted(sorted(graph.names(m)) for m in masks)


# ---- pairs as groups, and complexity ----


def test_descriptor_normalizes_and_counts():
	g = path3()
	d = PeripheralPair(g, [], [g.mask(["a", "b"])])
	# 2^3 minus the single trivial-action member
	assert d.complexity() == Complexity(3, 7)
	assert d.complexity() < Complexity(3, 8)
	assert d.complexity() < Complexity(4, 0)


def test_absolute_descriptor():
	d = PeripheralPair.absolute(path3())
	assert d.g_members == ()
	assert d.complexity() == Complexity(3, 8)


# ---- restriction ----


def test_restriction_diamond_first_step():
	g = diamond_chain(2)
	d = PeripheralPair(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	kernel, image = restriction_step(d, b, mode="fast")
	# kernel keeps the graph; the target becomes a trivial-action member
	assert kernel.graph is g
	assert b in kernel.h_members
	assert b in kernel.g_members
	# the image moves onto the subgraph with its computed periphery
	assert image.graph.vertices == ("c1", "a2", "b2", "c2")
	assert names_of(image.graph, image.g_members) == [["c1"]]
	assert image.h_members == ()


def test_restriction_diamond_second_step():
	g = diamond_chain(2)
	d = PeripheralPair(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	a1 = g.mask(["c0", "a1", "b1", "c1"])
	kernel, _ = restriction_step(d, b, mode="fast")
	inner, image = restriction_step(kernel, a1, mode="fast")
	# both diamonds now held pointwise up to conjugacy: the inner kernel
	assert set(inner.h_members) == {b, a1}
	# the image inherits the shared vertex pointwise
	assert image.graph.vertices == ("c0", "a1", "b1", "c1")
	c1 = image.graph.mask(["c1"])
	assert c1 in image.h_members
	assert c1 in image.g_members


def test_restriction_requires_invariance():
	g = path3()
	d = PeripheralPair(g)
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


def join_first_restriction(pair, dmask):
	"""The fast restriction as it was built when the target joined G first.

	The image is built afresh from its members, so its index is built
	from its G and not cut from the pair's closures.
	"""
	if dmask not in pair.g_members:
		pair = PeripheralPair(pair.graph, pair.g_members + (dmask,), pair.h_members)
	per = [compress_mask(m, dmask) for m in fast_periphery(pair, dmask)]
	sub = induced(pair, dmask)
	return pair.adding_h([dmask]), PeripheralPair(sub.graph, sub.g_members + tuple(per), sub.h_members)


def test_fast_restriction_matches_the_join_first_construction():
	rng = random.Random(41)
	checked = 0
	for _ in range(60):
		n = rng.randrange(2, 7)
		density = rng.random()
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		g = graph_from_edges(n, [e for e in pairs if rng.random() < density])
		d = PeripheralPair(g, *random_peripheral(g, rng))
		for dmask in range(1, g.full):
			if not is_invariant(d, dmask) or dmask in d.h_members:
				continue
			kernel, image = restriction_step(d, dmask, mode="fast")
			ref_kernel, ref_image = join_first_restriction(d, dmask)
			case = (g.to_json_obj(), d.to_json_obj(), dmask)
			assert kernel.to_json_obj() == ref_kernel.to_json_obj(), case
			assert group_to_json_obj(image) == {
				"graph": ref_image.graph.to_json_obj(),
				"pair": ref_image.to_json_obj(),
			}, case
			assert kernel.index.rows == ref_kernel.index.rows, case
			assert kernel.index.gv == ref_kernel.index.gv, case
			assert image.index.rows == ref_image.index.rows, case
			assert image.index.gv == ref_image.index.gv, case
			checked += dmask not in d.g_members
	assert checked > 100


def test_word_restriction_refuses_a_letter_sent_outside():
	# pc c0 conjugates the whole top diamond: a conjugate of it, not a lift
	g = diamond_chain(2)
	d = PeripheralPair(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	_, image = restriction_step(d, b, mode="fast")
	ctx, sub_ctx = WordContext(g), WordContext(image.graph)
	phi = realize(ctx, LaurenceGenerator.partial_conj(g, "c0", b))
	with pytest.raises(DomainError, match="^map sends a letter of the subgroup outside it$"):
		word_restriction(sub_ctx, b, phi)
	# the back table is read too: only its image of c2 leaves the diamond
	fwd = [(2 * v,) for v in range(g.n)]
	bwd = list(fwd)
	bwd[g.index["c2"]] = (2 * g.index["c2"], 2 * g.index["c0"])
	with pytest.raises(DomainError, match="^map sends a letter of the subgroup outside it$"):
		word_restriction(sub_ctx, b, Automorphism.from_images(ctx, fwd, bwd))


def test_restriction_kernel_gens_trivial_on_target():
	g = diamond_chain(2)
	d = PeripheralPair(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	kernel, _ = restriction_step(d, b, mode="fast")
	ctx = WordContext(g)
	for gen in kernel.gens():
		assert acts_trivially_on(gen, b)
		if gen.kind != "sym":
			flag, _ = acts_trivially_word(ctx, realize(ctx, gen), b)
			assert flag, str(gen)


def test_lift_roundtrip_mod_inner():
	g = diamond_chain(2)
	d = PeripheralPair(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	_, image = restriction_step(d, b, mode="fast")
	ctx, sub_ctx = WordContext(g), WordContext(image.graph)
	lifted = 0
	for gen in image.gens():
		if gen.kind == "sym":
			continue
		lift = lift_generator(d, image, b, gen)
		phi = realize(ctx, lift)
		back = word_restriction(sub_ctx, b, phi)
		diff = back.compose(realize(sub_ctx, gen).invert())
		assert is_inner(sub_ctx, diff.images).status == "yes", str(gen)
		lifted += 1
	assert lifted == len(image.gens())


def test_lift_partial_conjugation_region():
	# lifting widens the region to whole relative components of the source
	g = diamond_chain(2)
	d = PeripheralPair(g)
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
	d = PeripheralPair(g)
	b = g.mask(["c1", "a2", "b2", "c2"])
	_, image = restriction_step(d, b, mode="fast")
	bad = LaurenceGenerator.transvection(image.graph, "c1", "c2")
	with pytest.raises(DomainError):
		lift_generator(d, image, b, bad)
	sym = LaurenceGenerator(image.graph, "sym", tuple(range(image.graph.n)))
	with pytest.raises(DomainError):
		lift_generator(d, image, b, sym)


def test_every_generator_restricts_into_the_image_group():
	# the upper bound adds kernel and image at each restriction, which is
	# sound only if every element restricts into the computed image. For
	# each generator phi of a saturated random pair and each invariant D,
	# take g with g^-1 phi(A_D) g = A_D, restrict that conjugate to D and
	# recode it on the image graph: it must preserve every G-member of the
	# image up to conjugacy and act trivially on every H-member. The image's
	# index must be the one its members give, so that an index bug cannot
	# hide behind a correct listing
	rng = random.Random(41)
	checked = 0
	for _ in range(40):
		n = rng.randrange(3, 6)
		density = rng.random()
		edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
		g = graph_from_edges(n, edges)
		sat = saturate(PeripheralPair(g, *random_peripheral(g, rng)))
		ctx = WordContext(g)
		phis = [realize(ctx, gen) for gen in sat.gens()]
		for dmask in sat.g_members:
			sub_ctx = WordContext(g.induced(dmask))
			psis = []
			for phi in phis:
				ok, k = preserves_word(ctx, phi, dmask)
				assert ok, (g.to_json_obj(), sat.to_json_obj(), g.names(dmask))
				fwd = [inverse(k) + phi.images[2 * v] + k for v in range(n)]
				bwd = [phi.invert().apply(k + (2 * v,) + inverse(k)) for v in range(n)]
				conj = Automorphism.from_images(ctx, fwd, bwd)
				psis.append(word_restriction(sub_ctx, dmask, conj))
			for mode in ("fast", "saturated"):
				_, image = restriction_step(sat, dmask, mode=mode)
				assert image.graph.vertices == sub_ctx.graph.vertices
				ref = PairIndex(image.graph, image.g_members)
				assert (image.index.rows, image.index.gv) == (ref.rows, ref.gv), mode
				for psi in psis:
					for m in image.g_members:
						assert preserves_word(sub_ctx, psi, m)[0], (mode, image.to_json_obj())
					for m in image.h_members:
						assert acts_trivially_word(sub_ctx, psi, m)[0], (mode, image.to_json_obj())
					checked += 1
	assert checked > 1000


# ---- projection ----


def test_projection_path3_relative():
	g = path3()
	b = g.mask(["b"])
	d = PeripheralPair(g, [b], [b])
	zmask, rank, image = projection_step(d)
	assert zmask == b
	assert rank == 2
	assert image.graph.vertices == ("a", "c")
	assert image.g_members == ()


def test_projection_kernel_certifies_and_generators_project_into_the_image():
	# at every projection node of the auto trees of random relative pairs,
	# the transvections w^z onto the center that the kernel rank counts
	# certify at exactly that rank, and every generator of the node's pair
	# whose support misses the center Z, renamed onto V - Z, lies in the
	# image pair; the others are those transvections, trivial there
	rng = random.Random(29)
	checked = 0
	for _ in range(300):
		n = rng.randint(3, 6)
		density = rng.random()
		g = graph_from_edges(
			n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
		)
		for _, _, _, node, _ in decompose(PeripheralPair(g, *random_peripheral(g, rng))).walk():
			step = node.step
			if not isinstance(step, ProjectionStep):
				continue
			pair, z = node.pair, step.zmask
			graph, image = pair.graph, step.image.pair
			keep = graph.full & ~z
			rows = pair.index.rows
			kernel = [
				LaurenceGenerator.transvection(graph, w, c)
				for c in bits(z)
				for w in bits(keep)
				if rows[w] >> c & 1
			]
			assert certify_lower_bound(graph, kernel) == step.kernel_rank, graph.to_json_obj()
			at = lambda v: compress_mask(1 << v, keep).bit_length() - 1
			for gen in pair.gens():
				if gen.kind == "pc":
					acting, region = gen.data
					support, data = 1 << acting | region, (at(acting), compress_mask(region, keep))
				else:
					support, data = mask_of(gen.data), tuple(at(v) for v in gen.data)
				if support & z:
					assert gen in kernel
					continue
				renamed = LaurenceGenerator(image.graph, gen.kind, data)
				assert gen_in_relative(renamed, image), (graph.to_json_obj(), str(gen))
			checked += 1
	assert checked > 150


def test_projection_needs_connected():
	with pytest.raises(DomainError):
		projection_step(PeripheralPair(edgeless(2)))


def test_projection_needs_proper_center():
	with pytest.raises(DomainError):
		projection_step(PeripheralPair(clique(3)))
	g = DefiningGraph(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])
	with pytest.raises(DomainError):
		projection_step(PeripheralPair(g))


def test_projection_needs_trivial_center_action():
	# the absolute group of a path moves the center by inversions
	d = PeripheralPair(path3())
	with pytest.raises(DomainError):
		projection_step(d)


def test_projection_refuses_exactly_when_a_generator_moves_the_center():
	# projection_step reads the moved vertices off the index; the rule it
	# stands for is that some listed generator acts nontrivially on z
	rng = random.Random(29)
	outcomes = []
	while len(outcomes) < 150:
		n = rng.randrange(3, 7)
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		density = rng.random()
		cone = rng.randrange(n)
		g = graph_from_edges(
			n, [e for e in pairs if cone in e or rng.random() < density]
		)
		z = subgraph_center(g, g.full)
		if not z or z == g.full:
			continue
		pair = PeripheralPair(g, *random_peripheral(g, rng))
		refused = any(not acts_trivially_on(gen, z) for gen in enumerate_generators(pair))
		try:
			projection_step(pair)
		except DomainError as exc:
			assert refused and "restriction to the center is nontrivial" in str(exc)
			outcomes.append(True)
		else:
			assert not refused
			outcomes.append(False)
	assert 10 < sum(outcomes) < 140


def test_auto_tree_lists_generators_only_at_connected_free_abelian_leaves(monkeypatch):
	calls = []

	def counted(pair):
		calls.append(pair)
		return enumerate_generators(pair)

	monkeypatch.setattr(peripheral, "enumerate_generators", counted)
	tree = decompose(PeripheralPair(diamond_chain(3)))
	leaves = [
		node
		for _, _, _, node, _ in tree.walk()
		if isinstance(node.step, Leaf)
		and isinstance(node.step.shape, FreeAbelian)
		and node.pair.graph.is_connected()
	]
	assert len(calls) <= len(leaves)
	assert len(tree.leaves()) > 10


# ---- classification ----


def test_classify_clique_general_linear():
	assert classify_irreducible(PeripheralPair(clique(3))) == GeneralLinear(3, 0)
	assert classify_irreducible(PeripheralPair(clique(1))) == GeneralLinear(1, 0)


def test_classify_clique_partial_cover():
	g = clique(3)
	x = g.mask(["x0"])
	d = PeripheralPair(g, [x], [x])
	assert classify_irreducible(d) == GeneralLinear(2, 2)


def test_classify_trivial():
	g = clique(2)
	d = PeripheralPair(g, [g.mask(["x0"]), g.mask(["x1"])], [g.mask(["x0"]), g.mask(["x1"])])
	assert list(d.gens()) == []
	assert classify_irreducible(d) == Trivial()


def test_classify_free_product():
	assert classify_irreducible(PeripheralPair(edgeless(3))) == FouxeRabinovitch((), 3, ())
	g = edgeless(2)
	u, v = g.mask(["x0"]), g.mask(["x1"])
	d = PeripheralPair(g, [u, v], [u, v])
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
	d = PeripheralPair(g, [uv, vw], [uv, vw])
	assert [str(x) for x in d.gens()] == ["pc x1:[x2]"]
	assert classify_irreducible(d) == FreeAbelian(1)


def test_classify_refuses_pending_restriction():
	g = path3()
	b = g.mask(["b"])
	with pytest.raises(DomainError):
		classify_irreducible(PeripheralPair(g, [b]))


def test_classify_signals_projection():
	g = path3()
	b = g.mask(["b"])
	with pytest.raises(DomainError):
		classify_irreducible(PeripheralPair(g, [b], [b]))


# ---- full decomposition ----


def test_decompose_clique_single_leaf():
	node = decompose(PeripheralPair(clique(4)))
	assert isinstance(node.step, Leaf)
	assert node.leaves() == [GeneralLinear(4, 0)]


def test_decompose_path3_relative():
	g = path3()
	b = g.mask(["b"])
	node = decompose(PeripheralPair(g, [b], [b]))
	assert isinstance(node.step, ProjectionStep)
	assert node.step.kernel_rank == 2
	assert node.leaves() == [FreeAbelian(2), FouxeRabinovitch((), 2, ())]


def test_decompose_diamond_script():
	g = diamond_chain(2)
	b = ["c1", "a2", "b2", "c2"]
	a1 = ["c0", "a1", "b1", "c1"]
	script = [
		{"op": "restrict", "target": b, "mode": "fast"},
		{"op": "restrict", "target": a1, "mode": "fast"},
	]
	node = decompose(PeripheralPair(g), mode="script", script=script)
	step = node.step
	assert isinstance(step, RestrictionStep)
	assert step.dmask == g.mask(b)
	inner = step.kernel.step
	assert isinstance(inner, RestrictionStep)
	assert inner.dmask == g.mask(a1)
	assert set(inner.kernel.pair.h_members) == {g.mask(b), g.mask(a1)}
	# both restriction images carry the shared vertex as periphery;
	# the recorded image node is saturated, so membership, not equality
	im = step.image.pair
	assert im.graph.mask(["c1"]) in im.g_members
	im2 = inner.image.pair
	assert im2.graph.mask(["c1"]) in im2.h_members


def test_auto_mode_refuses_a_script():
	# a script is read only in script mode, so auto mode refuses one
	# rather than build the auto tree without a word
	g = diamond_chain(3)
	with pytest.raises(DomainError, match="^decompose takes a script only in script mode$"):
		decompose(PeripheralPair(g), script=diamond_script(3))
	assert decompose(PeripheralPair(g), mode="script", script=diamond_script(3)).to_json_obj() != (
		decompose(PeripheralPair(g)).to_json_obj()
	)


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
	node = decompose(PeripheralPair(g), mode="script", script=script)
	istep = node.step.image.step
	assert isinstance(istep, RestrictionStep)
	assert istep.image.pair.graph.vertices == ("c1",)


def test_decompose_script_errors():
	g = path3()
	d = PeripheralPair(g)
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
		decompose(PeripheralPair(g, [b], [b]), mode="script", script=script)


def test_decompose_script_image_error_wins_over_a_later_step():
	# the top-level [1] fails on its own, but the image branch of [0] is
	# built first, so its error is the one reported
	d = PeripheralPair(path3())
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
		d = PeripheralPair(g, glist, hlist)
		target = g.names(rng.randrange(1, g.full))
		image = {"op": "restrict", "target": target, "mode": "fast", "image": [{"op": "leaf"}]}
		for script in ([{"op": "leaf"}], [image]):
			try:
				root = decompose(d, mode="script", script=script)
			except DomainError:
				refused += 1
				continue
			accepted += 1
			for _, _, _, node, _ in root.walk():
				if isinstance(node.step, Leaf):
					leaf = node.pair
					assert pivot_by_generators(saturate(leaf)) is None
			if script[0]["op"] == "leaf":
				assert decompose(d).step.shape == root.step.shape
	assert accepted > 100 and refused > 100


def test_decompose_complexity_strictly_drops():
	g = diamond_chain(2)
	edges = 0
	for _, _, _, n, _ in decompose(PeripheralPair(g)).walk():
		for _, child in n.step.children:
			assert child.pair.complexity() < n.pair.complexity()
			edges += 1
	assert edges > 0


def test_walk_is_pre_order_with_paths():
	# restrict at the root; its kernel projects onto a leaf, its image is a leaf
	d = PeripheralPair(path3())
	kernel = DecompositionNode(d, ProjectionStep(2, 2, DecompositionNode(d, Leaf(Trivial()))))
	image = DecompositionNode(d, Leaf(FreeAbelian(1)))
	root = DecompositionNode(d, RestrictionStep(1, kernel, image))
	assert list(root.walk()) == [
		("root", 0, None, root, None),
		("root.k", 1, "kernel", kernel, root.step),
		("root.k.i", 2, "image", kernel.step.image, kernel.step),
		("root.i", 1, "image", image, root.step),
	]
	assert root.leaves() == [FreeAbelian(2), Trivial(), FreeAbelian(1)]


def test_restriction_modes_give_equal_indexes():
	# both constructions give kernels with one group and images with one
	# group, so equal order rows and G^v-components (restriction_step)
	rng = random.Random(41)
	checked = 0
	for _ in range(150):
		n = rng.randint(2, 6)
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		g = graph_from_edges(n, [e for e in pairs if rng.random() < rng.random()])
		pair = PeripheralPair(g, *random_peripheral(g, rng))
		for dmask in saturate(pair).g_members:
			fast = restriction_step(pair, dmask, mode="fast")
			sat = restriction_step(pair, dmask, mode="saturated")
			for a, b in zip(fast, sat):
				assert a.index.rows == b.index.rows, (g.to_json_obj(), pair, dmask)
				assert a.index.gv == b.index.gv, (g.to_json_obj(), pair, dmask)
			checked += 1
	assert checked > 200


def test_restriction_images_index_their_listed_members():
	# in both modes, on pairs that are not saturated, the image's index,
	# cut from the pair's closures, is the index built from the members it
	# lists, and the kernel's, refined from the pair's, is its members' too
	rng = random.Random(43)
	checked = 0
	for _ in range(80):
		n = rng.randint(2, 6)
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		g = graph_from_edges(n, [e for e in pairs if rng.random() < rng.random()])
		pair = PeripheralPair(g, *random_peripheral(g, rng))
		for dmask in saturate(pair).g_members:
			for mode in ("fast", "saturated"):
				case = (g.to_json_obj(), pair.to_json_obj(), dmask, mode)
				for part in restriction_step(pair, dmask, mode=mode):
					ref = PairIndex(part.graph, part.g_members)
					assert (part.index.rows, part.index.gv) == (ref.rows, ref.gv), case
			checked += 1
	assert checked > 100


def test_fast_step_below_a_saturated_one_lists_members_whatever_was_read():
	# a-e, b-d, b-e, c-d, c-e, d-e: the kernel of the saturated step
	# lists G on first read, and the fast step below it lists its own
	# members whether or not that read came first (the image lists 4, with
	# the computed periphery); each image's index is the index of the
	# members it lists, and the two modes' indexes agree
	g = DefiningGraph(
		list("abcde"),
		[["a", "e"], ["b", "d"], ["b", "e"], ["c", "d"], ["c", "e"], ["d", "e"]],
	)
	pair = PeripheralPair(g)
	cde = g.mask(["c", "d", "e"])
	outs = []
	for read in (False, True):
		k, _ = restriction_step(pair, g.mask(["b", "c", "d", "e"]), "saturated")
		if read:
			k.g_members
		kernel, image = restriction_step(k, cde, "fast")
		outs.append((kernel.g_members, image.g_members))
		sat_image = restriction_step(k, cde, "saturated")[1]
		for im in (image, sat_image):
			ref = PairIndex(im.graph, im.g_members)
			assert (im.index.rows, im.index.gv) == (ref.rows, ref.gv)
		assert (image.index.rows, image.index.gv) == (sat_image.index.rows, sat_image.index.gv)
	assert outs[0] == outs[1]
	assert len(outs[0][1]) == 4


def test_trees_read_each_graph_center_off_the_graph():
	# every graph computes its center once, when it is built, and the moves
	# and leaf shapes read that; no package code can work it out again
	for mode, script in (("auto", None), ("script", four_path_script(2, 1, 2, 1))):
		root = decompose(PeripheralPair(four_path(2, 1, 2, 1)), mode=mode, script=script)
		for _, _, _, node, _ in root.walk():
			g = node.pair.graph
			assert g.center == subgraph_center(g, g.full)


def test_pivot_is_smallest_member_with_nontrivial_restriction():
	# random pairs, saturated or not, and every node of the auto trees of
	# helpers.auto_tree_nodes: their pairs are saturated without a member
	# list, kernels carry refined indexes and images closure-built ones.
	# the index's pivot search reads closures, searched afresh here past
	# the pair's cache; pivot_by_generators lists the members of the
	# saturation, which a listed pair is judged by too
	rng = random.Random(17)
	cases = []
	for n in (4, 5):
		for edges in connected_graphs_upto_iso(n):
			g = graph_from_edges(n, edges)
			glist, hlist = random_peripheral(g, rng)
			pair = PeripheralPair(g, glist, hlist)
			sat = saturate(pair)
			cases.append((pair, sat))
			cases.append((sat, sat))
	nodes = auto_tree_nodes()
	assert all(node.pair.saturated for node in nodes)
	assert sum(node.pair._g_members is None for node in nodes) > len(nodes) // 2
	cases.extend((node.pair, node.pair) for node in nodes)
	search = lambda d: d.index.pivot(_moved(d))
	for d, sat in cases:
		assert search(d) == pivot_by_generators(sat)
	assert sum(search(d) is None for d, _ in cases) not in (0, len(cases))


def test_auto_nodes_search_for_a_pivot_once(monkeypatch):
	# an auto leaf's step and its precondition read the same cached pivot
	calls = []
	search = PairIndex.pivot
	monkeypatch.setattr(
		PairIndex, "pivot", lambda index, moved: calls.append(index) or search(index, moved)
	)
	root = decompose(PeripheralPair(diamond_chain(3)))
	nodes = [node for _, _, _, node, _ in root.walk()]
	assert len(calls) == len(nodes) == len({id(index) for index in calls})
	assert any(isinstance(node.step, Leaf) for node in nodes)


def test_auto_upper_bound_ignores_vertex_order():
	# the benchmark shuffles the vertex order of every instance: the auto
	# tree's pivots follow the vertex masks, its upper bound must not
	rng = random.Random(29)
	cases = [(diamond_chain(d), {}) for d in range(2, 6)]
	cases += [(four_path(1, 1, 1, 1), {}), (four_path(2, 1, 2, 1), {})]
	for _ in range(60):
		n = rng.randrange(2, 6)
		density = rng.random()
		edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
		g = graph_from_edges(n, edges)
		cases.append((g, PeripheralPair(g, *random_peripheral(g, rng)).to_json_obj()))
	for g, periph in cases:
		expect = vcd_upper(decompose(build_pair(periph, g)))
		obj = g.to_json_obj()
		for _ in range(5):
			order = list(obj["vertices"])
			rng.shuffle(order)
			h = DefiningGraph(order, obj["edges"])
			got = vcd_upper(decompose(build_pair(periph, h)))
			assert got == expect, (obj, periph, order)


def test_leaf_shapes_match_the_listed_members():
	# auto leaves classify saturated pairs whose index was handed down the
	# tree; the same members passed as a plain list, not flagged
	# saturated, build their index afresh and must give the same shape
	leaves = [node for node in auto_tree_nodes() if isinstance(node.step, Leaf)]
	covered_cliques = 0
	for node in leaves:
		pair = node.pair
		listed = PeripheralPair(pair.graph, pair.g_members, pair.h_members)
		assert classify_irreducible(listed) == node.step.shape
		if is_clique(pair.graph, pair.graph.full) and pair.g_members:
			covered_cliques += 1
	assert covered_cliques > 10


def test_connected_free_abelian_leaves_list_only_transvections():
	# a connected free-abelian leaf takes its rank from the listed
	# generators; any of them but a transvection would be a wrong rule.
	# Every such list seen so far is empty
	roots = [
		decompose(PeripheralPair(diamond_chain(d)), mode="script", script=diamond_script(d))
		for d in (2, 3, 4)
	]
	roots += [
		decompose(PeripheralPair(four_path(*t)), mode="script", script=four_path_script(*t))
		for t in ((2, 1, 2, 1), (2, 2, 2, 2))
	]
	nodes = auto_tree_nodes() + [node for root in roots for _, _, _, node, _ in root.walk()]
	leaves = [
		node
		for node in nodes
		if isinstance(node.step, Leaf)
		and isinstance(node.step.shape, FreeAbelian)
		and node.pair.graph.is_connected()
	]
	assert len(leaves) > 10
	for node in leaves:
		gens = node.pair.gens()
		assert all(gen.kind == "trv" for gen in gens)
		assert node.step.shape == FreeAbelian(len(gens))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_auto_diamond_chain_folds_to_4d_minus_1(d):
	# n = 22 and 25 for d = 7 and 8, past SATURATE_CAP: the tree never
	# lists a saturated member list, so the cap does not apply
	assert vcd_upper(decompose(PeripheralPair(diamond_chain(d)))) == 4 * d - 1


def test_decompose_deterministic():
	g = diamond_chain(2)
	one = decompose(PeripheralPair(g))
	two = decompose(PeripheralPair(g))
	assert one.to_json_obj() == two.to_json_obj()
	assert one.leaves() == two.leaves()
	assert tree_dot(one) == tree_dot(two)


def test_decompose_auto_diamond_leaves():
	node = decompose(PeripheralPair(diamond_chain(1)))
	assert node.leaves() == [
		FreeAbelian(0),
		FouxeRabinovitch((), 2, ()),
		FouxeRabinovitch((), 2, ()),
	]


# ---- export ----


def test_tree_json_and_dot():
	g = path3()
	b = g.mask(["b"])
	node = decompose(PeripheralPair(g, [b], [b]))
	obj = json.loads(json.dumps(node.to_json_obj()))
	assert obj["project"]["center"] == ["b"]
	assert obj["project"]["kernel_rank"] == 2
	assert "leaf" in obj["project"]["image"]
	dot = tree_dot(node)
	assert dot.startswith("digraph")
	assert dot.endswith("}")
	assert "FR(" in dot
