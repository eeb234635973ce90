"""Dimension folding and lower-bound certificates."""

import random
from fractions import Fraction

import pytest

from raagout.autos import (
	LaurenceGenerator,
	enumerate_generators,
	images_through,
	is_inner,
	realize,
)
from raagout.decompose import (
	DecompositionNode,
	FouxeRabinovitch,
	FreeAbelian,
	GeneralLinear,
	GroupDescriptor,
	Leaf,
	RestrictionStep,
	Trivial,
	decompose,
)
from raagout.errors import CertificationError
from raagout.families import (
	diamond_chain,
	diamond_generators,
	diamond_script,
	four_path,
	four_path_dimension,
	four_path_generators,
	four_path_script,
)
from raagout.graphs import DefiningGraph
from raagout import vcd
from raagout.peripheral import PeripheralPair
from raagout.vcd import (
	VcdBound,
	_Echelon,
	_commutator,
	_commuting_pairs,
	_certify_johnson_independent,
	_johnson,
	_lie_closure,
	_log_unipotent,
	bound_to_json_obj,
	certify_lower_bound,
	fold,
	leaf_dimension,
	vcd_report,
	vcd_upper,
)
from raagout.words import WordContext

from helpers import (
	box_inner_vector,
	connected_graphs_upto_iso,
	foata,
	graph_from_edges,
	magnus2,
	random_peripheral,
)


def clique(n):
	names = ["v%d" % i for i in range(1, n + 1)]
	return DefiningGraph(names, [[a, b] for a in names for b in names if a < b])


def edgeless(n):
	return DefiningGraph(["x%d" % i for i in range(n)], [])


# ---- leaf dimensions ----


def test_leaf_dimensions_builtin():
	assert leaf_dimension(Trivial()) == (0, "trivial")
	assert leaf_dimension(FreeAbelian(2, 2))[0] == 2
	dim, tag = leaf_dimension(FreeAbelian(0, 1))
	assert dim == 1 and "lower 0" in tag
	assert leaf_dimension(GeneralLinear(3, 2))[0] == 2 + 3
	for m, expect in [(0, 0), (1, 0), (2, 1), (3, 3)]:
		assert leaf_dimension(FouxeRabinovitch((), m)) == (expect, "free group outer")
	shape = FouxeRabinovitch((clique(2),), 2, (True,))
	assert leaf_dimension(shape) == (2 * (2 * 2 - 1), "held clique by free")


def test_leaf_dimension_two_held_factors():
	single = DefiningGraph(["u"], [])
	assert leaf_dimension(
		FouxeRabinovitch((single, single), 0, (True, True))
	)[0] == 0
	f2 = edgeless(2)
	assert leaf_dimension(FouxeRabinovitch((f2, single), 0, (True, True)))[0] == 1
	assert leaf_dimension(FouxeRabinovitch((f2, f2), 0, (True, True))) == (2, "two held factors")


def test_leaf_dimension_unknown_shapes():
	single = DefiningGraph(["u"], [])
	assert leaf_dimension(
		FouxeRabinovitch((single, single, single), 0, (True,) * 3)
	)[0] == "unknown"
	assert leaf_dimension(
		FouxeRabinovitch((single, single), 0, (True, False))
	)[0] == "unknown"
	assert leaf_dimension(FouxeRabinovitch((edgeless(2),), 1, (True,)))[0] == "unknown"


def test_fold_unknown_propagates():
	desc = GroupDescriptor.absolute(edgeless(3))
	single = DefiningGraph(["u"], [])
	bad = DecompositionNode(
		desc, Leaf(FouxeRabinovitch((single, single, single), 0, (True,) * 3))
	)
	good = DecompositionNode(desc, Leaf(FreeAbelian(2, 2)))
	tree = DecompositionNode(desc, RestrictionStep(1, bad, good))
	assert vcd_upper(tree) == "unknown"
	total, rows = fold(tree)
	assert total == "unknown"
	assert ("root.k", "unknown", "free product with no formula") in rows


# ---- upper bounds on the families ----


def test_vcd_upper_diamond_script():
	tree = decompose(
		GroupDescriptor.absolute(diamond_chain(2)),
		mode="script",
		script=diamond_script(2),
	)
	assert vcd_upper(tree) == 7


def test_vcd_upper_four_path():
	tup = (2, 1, 2, 1)
	tree = decompose(
		GroupDescriptor.absolute(four_path(*tup)),
		mode="script",
		script=four_path_script(*tup),
	)
	assert vcd_upper(tree) == four_path_dimension(*tup) == 12


# ---- commutators from vertex images ----


def test_vertex_image_commutator_matches_composition():
	# the commutator certify_lower_bound tests, and the two products its
	# nilpotent match tests, against whole composed automorphisms
	rng = random.Random(31)
	graphs = [graph_from_edges(4, edges) for edges in connected_graphs_upto_iso(4)]
	graphs += [random_graph(rng, 5) for _ in range(6)] + [diamond_chain(2), four_path(2, 1, 2, 1)]
	statuses = set()
	for g in graphs:
		ctx = WordContext(g)

		def check(table, phi):
			for v in range(g.n):
				assert foata(table[2 * v], g) == foata(phi.images[2 * v], g)
			status = is_inner(ctx, table).status
			assert status == is_inner(ctx, phi.images).status
			statuses.add(status)

		pairs = [PeripheralPair(g, [], [])]
		pairs += [PeripheralPair(g, *random_peripheral(g, rng)) for _ in range(2)]
		for pp in pairs:
			gens = enumerate_generators(pp.normalize())
			if len(gens) < 2:
				continue
			for _ in range(4):
				x, y, z = (realize(ctx, rng.choice(gens), rng.choice((1, -1))) for _ in range(3))
				composed = x.compose(y).compose(x.invert()).compose(y.invert())
				c = _commutator(ctx, x, y)
				check(c, composed)
				check(images_through(ctx, z.back, c), composed.compose(z.invert()))
				check(images_through(ctx, z.images, c), composed.compose(z))
	assert statuses == {"yes", "no"}


# ---- commuting in Aut before the commutator ----


def support(phi):
	"""(moved, span) of phi, read through foata: the vertices phi moves,
	and those with every vertex their images use."""
	g = phi.ctx.graph
	moved = span = 0
	for v in range(g.n):
		if foata(phi.images[2 * v], g) != ((2 * v,),):
			moved |= 1 << v
			span |= 1 << v
			for lt in phi.images[2 * v]:
				span |= 1 << (lt >> 1)
	return moved, span


def test_commuting_pairs_are_the_identity_commutators():
	# every pair of generators, both signs, against the commutator's
	# vertex images compared with the vertices themselves
	rng = random.Random(37)
	graphs = [graph_from_edges(4, edges) for edges in connected_graphs_upto_iso(4)]
	graphs += [random_graph(rng, 5) for _ in range(6)] + [diamond_chain(2), four_path(2, 1, 2, 1)]
	branches = set()
	for g in graphs:
		ctx = WordContext(g)
		pairs = [PeripheralPair(g, [], [])]
		pairs += [PeripheralPair(g, *random_peripheral(g, rng)) for _ in range(2)]
		for pp in pairs:
			gens = enumerate_generators(pp.normalize())
			phis = [realize(ctx, gen, rng.choice((1, -1))) for gen in gens]
			commuting = _commuting_pairs(ctx, phis)
			supports = [support(phi) for phi in phis]
			for j in range(len(phis)):
				for i in range(j):
					c = _commutator(ctx, phis[i], phis[j])
					identity = all(foata(c[2 * v], g) == ((2 * v,),) for v in range(g.n))
					assert ((i, j) in commuting) == identity, (str(gens[i]), str(gens[j]))
					(mi, si), (mj, sj) = supports[i], supports[j]
					if not identity:
						branches.add("declined")
					elif mi & sj or mj & si:
						branches.add("equal on moved vertices")
					else:
						branches.add("disjoint supports")
	assert branches == {"disjoint supports", "equal on moved vertices", "declined"}


def test_inner_commutator_of_pair_not_commuting_in_aut():
	# trv c^e and pc c:[b] commute only up to an inner automorphism, so
	# the pre-test declines them and is_inner must decide
	g = DefiningGraph(list("abcde"), [["a", "e"], ["b", "d"], ["c", "d"], ["c", "e"], ["d", "e"]])
	ctx = WordContext(g)
	gens = [
		LaurenceGenerator.transvection(g, "c", "e"),
		LaurenceGenerator.partial_conj(g, "c", g.mask(["b"])),
	]
	phis = [realize(ctx, gen) for gen in gens]
	assert _commuting_pairs(ctx, phis) == set()
	assert is_inner(ctx, _commutator(ctx, *phis)).status == "yes"


def certify_outcome(g, gens, nilpotent):
	"""The certified rank, or the text of the certificate's refusal."""
	try:
		return certify_lower_bound(g, gens, nilpotent)
	except CertificationError as exc:
		return str(exc)


def certify_cases():
	rng = random.Random(41)
	cases = []
	while len(cases) < 60:
		g = random_graph(rng, rng.randrange(2, 7))
		pp = PeripheralPair(g, [], [])
		if rng.random() < 0.5:
			pp = PeripheralPair(g, *random_peripheral(g, rng))
		gens = enumerate_generators(pp.normalize())
		if gens:
			cases.append((g, rng.sample(gens, min(len(gens), rng.randrange(1, 6)))))
	for d in (2, 3, 4):
		g = diamond_chain(d)
		cases.append((g, diamond_generators(g, d)))
	for tup in ((2, 1, 2, 1), (2, 2, 2, 2), (1, 3, 2, 2)):
		g = four_path(*tup)
		cases.append((g, four_path_generators(g, *tup)))
	return cases


@pytest.mark.parametrize("nilpotent", [False, True])
def test_commuting_pre_test_changes_no_outcome(monkeypatch, nilpotent):
	cases = certify_cases()
	accepted = []

	def counted(ctx, phis):
		out = _commuting_pairs(ctx, phis)
		accepted.append(len(out))
		return out

	monkeypatch.setattr(vcd, "_commuting_pairs", counted)
	with_test = [certify_outcome(g, gens, nilpotent) for g, gens in cases]
	assert sum(accepted) > 0
	monkeypatch.setattr(vcd, "_commuting_pairs", lambda ctx, phis: set())
	without = [certify_outcome(g, gens, nilpotent) for g, gens in cases]
	assert with_test == without
	assert {type(x) for x in with_test} == {int, str}
	if nilpotent:
		assert "reached as a commutator but does not commute" in with_test[-1]


# ---- abelian certificates ----


def test_abelian_single_transvection():
	g = clique(2)
	gen = LaurenceGenerator.transvection(g, "v2", "v1")
	assert certify_lower_bound(g, [gen]) == 1


def test_abelian_diamond():
	g = diamond_chain(2)
	assert certify_lower_bound(g, diamond_generators(g, 2)) == 7


def test_abelian_rejects_noncommuting():
	g = clique(2)
	pair = [
		LaurenceGenerator.transvection(g, "v2", "v1"),
		LaurenceGenerator.transvection(g, "v1", "v2"),
	]
	with pytest.raises(CertificationError, match="do not commute"):
		certify_lower_bound(g, pair)


def test_abelian_rejects_inversion():
	g = clique(2)
	with pytest.raises(CertificationError, match="not unipotent"):
		certify_lower_bound(g, [LaurenceGenerator.inversion(g, "v1")])


def test_abelian_rejects_inner_conjugation():
	# pc a1 on the lone component away from st(a1) is conjugation by a1
	g = diamond_chain(1)
	region = g.mask(["b1"])
	gen = LaurenceGenerator.partial_conj(g, "a1", region)
	with pytest.raises(CertificationError, match="inner product"):
		certify_lower_bound(g, [gen])


def test_abelian_dependent_logs_not_overcounted():
	g = clique(2)
	gen = LaurenceGenerator.transvection(g, "v2", "v1")
	assert certify_lower_bound(g, [gen, gen]) == 1


def test_abelian_rejects_duplicated_conjugation():
	g = diamond_chain(2)
	pc = LaurenceGenerator.partial_conj(g, "a1", g.mask(["b1"]))
	with pytest.raises(CertificationError, match="inner product"):
		certify_lower_bound(g, [pc, pc])


def test_abelian_extra_conjugation_not_overcounted():
	# the diamond list already holds pc a1:[b1]; the true rank stays 7
	g = diamond_chain(2)
	extra = LaurenceGenerator.partial_conj(g, "a1", g.mask(["b1"]))
	with pytest.raises(CertificationError, match="inner product"):
		certify_lower_bound(g, diamond_generators(g, 2) + [extra])


# ---- the first Johnson homomorphism ----


def random_graph(rng, n):
	pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
	return graph_from_edges(n, [p for p in pairs if rng.random() < 0.4])


def random_partial_conjugations(g, rng, k):
	"""k partial conjugations, each on a random nonempty union of components.

	A region holding every component away from the star is an inner
	automorphism, so three times in four a proper union is drawn instead
	when there is one.
	"""
	out = []
	actors = [c for c in range(g.n) if g.full & ~g.star_masks[c]]
	while actors and len(out) < k:
		c = rng.choice(actors)
		comps = g.components(g.full & ~g.star_masks[c])
		proper = len(comps) > 1 and rng.random() < 0.75
		region = 0
		while not region or (proper and region == sum(comps)):
			region = sum(comp for comp in comps if rng.random() < 0.5)
		out.append(LaurenceGenerator.partial_conj(g, c, region))
	return out


def random_product(ctx, gens, rng):
	phi = realize(ctx, rng.choice(gens), rng.choice((1, -1)))
	for _ in range(rng.randrange(4)):
		phi = phi.compose(realize(ctx, rng.choice(gens), rng.choice((1, -1))))
	return phi


def tau_sum(*taus):
	out = {}
	for tau in taus:
		for key, c in tau.items():
			out[key] = out.get(key, 0) + c
	return {key: c for key, c in out.items() if c}


def test_johnson_matches_magnus_definition():
	rng = random.Random(11)
	for _ in range(40):
		g = random_graph(rng, rng.randrange(3, 7))
		gens = random_partial_conjugations(g, rng, 4)
		if not gens:
			continue
		ctx = WordContext(g)
		phi = random_product(ctx, gens, rng)
		want = {}
		for v in range(g.n):
			word = (2 * v + 1,) + phi.images[2 * v]
			for a in range(g.n):
				for b in range(a + 1, g.n):
					c = magnus2(word, a, b)
					if c and not g.adj[a] >> b & 1:
						want[(v, a, b)] = c
		assert _johnson(ctx, phi) == want


def test_johnson_additive_under_compose():
	rng = random.Random(5)
	checked = 0
	for _ in range(60):
		g = random_graph(rng, rng.randrange(3, 7))
		gens = random_partial_conjugations(g, rng, 4)
		if not gens:
			continue
		ctx = WordContext(g)
		phi = random_product(ctx, gens, rng)
		psi = random_product(ctx, gens, rng)
		assert _johnson(ctx, phi.compose(psi)) == tau_sum(
			_johnson(ctx, phi), _johnson(ctx, psi)
		)
		assert tau_sum(_johnson(ctx, phi), _johnson(ctx, phi.invert())) == {}
		checked += bool(_johnson(ctx, phi))
	assert checked > 20


def test_johnson_of_conjugation_on_non_neighbours():
	# conjugation by c, realized as the partial conjugation of everything
	# away from its star; v^-1 c v c^-1 is the commutator on {v, c}
	rng = random.Random(3)
	for _ in range(30):
		g = random_graph(rng, rng.randrange(2, 7))
		ctx = WordContext(g)
		for c in range(g.n):
			away = g.full & ~g.star_masks[c]
			if not away:
				continue
			phi = realize(ctx, LaurenceGenerator.partial_conj(g, c, away))
			want = {
				(v, min(v, c), max(v, c)): -1 if v < c else 1
				for v in range(g.n)
				if away >> v & 1
			}
			assert _johnson(ctx, phi) == want


def test_johnson_certificate_agrees_with_box_scan():
	# accepted lists have no inner product anywhere, so in particular none
	# in the box; a list with an inner product in the box must be rejected
	rng = random.Random(17)
	outcomes = {True: 0, False: 0}
	for _ in range(80):
		g = random_graph(rng, rng.randrange(3, 7))
		gens = random_partial_conjugations(g, rng, rng.randrange(1, 5))
		if not gens:
			continue
		ctx = WordContext(g)
		phis = [realize(ctx, gen) for gen in gens]
		try:
			_certify_johnson_independent(ctx, phis, [str(x) for x in gens])
			accepted = True
		except CertificationError:
			accepted = False
		if accepted:
			assert box_inner_vector(ctx, phis, 1) is None, gens
		outcomes[accepted] += 1
	assert min(outcomes.values()) >= 10, outcomes


# ---- nilpotent certificates ----


def triangle_list(g):
	names = g.vertices
	return [
		LaurenceGenerator.transvection(g, names[j], names[i])
		for j in range(g.n)
		for i in range(j)
	]


def test_nilpotent_cliques():
	for n in (2, 3, 4):
		g = clique(n)
		assert certify_lower_bound(g, triangle_list(g), nilpotent=True) == n * (n - 1) // 2


def test_nilpotent_rejects_unlisted_commutator():
	g = clique(3)
	partial = [
		LaurenceGenerator.transvection(g, "v2", "v1"),
		LaurenceGenerator.transvection(g, "v3", "v2"),
	]
	with pytest.raises(CertificationError, match="neither inner nor listed"):
		certify_lower_bound(g, partial, nilpotent=True)


def test_nilpotent_rejects_free_homology_image():
	g = clique(2)
	pair = [
		LaurenceGenerator.transvection(g, "v2", "v1"),
		LaurenceGenerator.transvection(g, "v1", "v2"),
	]
	with pytest.raises(CertificationError, match="nilpotent Lie algebra"):
		certify_lower_bound(g, pair, nilpotent=True)


def test_nilpotent_four_path():
	tup = (2, 1, 2, 1)
	g = four_path(*tup)
	gens = four_path_generators(g, *tup)
	assert certify_lower_bound(g, gens, nilpotent=True) == four_path_dimension(*tup)


def test_nilpotent_rejects_duplicated_conjugation():
	tup = (2, 1, 2, 1)
	g = four_path(*tup)
	gens = four_path_generators(g, *tup)
	assert gens[-1].kind == "pc"
	with pytest.raises(CertificationError, match="inner product"):
		certify_lower_bound(g, gens + [gens[-1]], nilpotent=True)


def test_nilpotent_rejects_deep_class_off_clique():
	# q = 3 makes the middle clique's triangle class three; off a clique
	# the certificate insists commutator generators are central.
	tup = (1, 3, 2, 2)
	g = four_path(*tup)
	gens = four_path_generators(g, *tup)
	with pytest.raises(CertificationError, match="does not commute"):
		certify_lower_bound(g, gens, nilpotent=True)


def test_lie_closure_grows_heisenberg():
	e12 = {(0, 1): 1}
	e23 = {(1, 2): 1}
	assert len(_lie_closure([e12, e23])) == 3


def test_lie_closure_reaches_depth_three():
	# E12, E23, E34 generate all six strictly upper triangular 4x4 units;
	# E14 only appears as the bracket of the new element E13 with E34
	assert len(_lie_closure([{(0, 1): 1}, {(1, 2): 1}, {(2, 3): 1}])) == 6


def rational_rank(vectors, width):
	"""Rank by plain Gaussian elimination over Fraction."""
	rows = [[Fraction(vec.get(c, 0)) for c in range(width)] for vec in vectors]
	rank = 0
	for col in range(width):
		pick = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
		if pick is None:
			continue
		rows[rank], rows[pick] = rows[pick], rows[rank]
		for r in range(len(rows)):
			if r != rank and rows[r][col]:
				f = rows[r][col] / rows[rank][col]
				rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
		rank += 1
	return rank


def test_rank_matches_rational_elimination():
	rng = random.Random(23)
	for _ in range(200):
		width = rng.randrange(1, 6)
		vectors = []
		for _ in range(rng.randrange(1, 6)):
			if vectors and rng.random() < 0.3:
				a, b = rng.choice(vectors), rng.choice(vectors)
				x, y = rng.randrange(-3, 4), rng.randrange(-3, 4)
				vec = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in range(width)}
			else:
				vec = {c: rng.randrange(-4, 5) for c in range(width)}
			vectors.append({c: v for c, v in vec.items() if v})
		ech = _Echelon()
		dim = sum(ech.add(vec) for vec in vectors)
		assert dim == rational_rank(vectors, width), vectors


def test_lie_closure_half_entry():
	# log of the 3x3 Jordan block is E12 + E23 - E13/2; E13 is central
	jordan = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
	log = _log_unipotent(jordan, "J")
	# a positive multiple of it, with integer entries: 2 E12 + 2 E23 - E13
	assert log == {(0, 1): 2, (1, 2): 2, (0, 2): -1}
	e12 = {(0, 1): 1}
	e13 = {(0, 2): 1}
	assert len(_lie_closure([log, e13])) == 2
	assert len(_lie_closure([log])) == 1
	assert len(_lie_closure([log, e12])) == 3


# ---- reports ----


def test_report_clique_auto_lower():
	b = vcd_report(GroupDescriptor.absolute(clique(3)))
	assert b.upper == b.lower == 3
	assert any(tag == "unipotent block plus extension" for _, _, tag in b.per_leaf)


def test_report_json():
	b = vcd_report(GroupDescriptor.absolute(clique(2)))
	obj = bound_to_json_obj(b)
	assert obj["upper"] == obj["lower"] == 1
	assert all({"leaf", "dim", "why"} <= set(row) for row in obj["per_leaf"])


def test_report_plain_graph_defaults_to_zero_lower():
	b = vcd_report(GroupDescriptor.absolute(edgeless(2)))
	assert b.lower == 0
	assert b.upper == 1


def test_bound_is_namedtuple():
	b = VcdBound(3, 1, [])
	assert b.upper == 3 and b.lower == 1 and b.per_leaf == []


def test_pc_complement_identity():
	# conjugating the two components away from a star separately composes
	# to the whole conjugation, so the pair is inner
	g = diamond_chain(2)
	ctx = WordContext(g)
	away = g.full & ~g.star_masks[g.index["c1"]]
	comps = g.components(away)
	assert len(comps) == 2
	prod = realize(ctx, LaurenceGenerator.partial_conj(g, "c1", comps[0])).compose(
		realize(ctx, LaurenceGenerator.partial_conj(g, "c1", comps[1]))
	)
	assert is_inner(ctx, prod.images).status == "yes"
