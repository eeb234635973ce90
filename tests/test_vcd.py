"""Dimension folding and lower-bound certificates."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from raagout.autos import (
	Automorphism,
	LaurenceGenerator,
	enumerate_generators,
	gen_in_relative,
	images_through,
	is_inner,
	parse_generator,
	product_of,
	realize,
)
from raagout.decompose import (
	DecompositionNode,
	FouxeRabinovitch,
	FreeAbelian,
	GeneralLinear,
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
from raagout.graphs import DefiningGraph, bits
from raagout import vcd
from raagout.peripheral import PeripheralPair
from raagout.vcd import (
	VcdBound,
	_Echelon,
	_commutator,
	_commuting_pairs,
	_certify_johnson_independent,
	_conjugation_johnson,
	_h1_action,
	_homology_dimension,
	_triangle_list,
	bound_to_json_obj,
	certify_lower_bound,
	fold,
	leaf_dimension,
	vcd_report,
	vcd_upper,
)
from raagout.words import WordContext, mask_word

from helpers import (
	box_inner_vector,
	connected_graphs_upto_iso,
	foata,
	graph_from_edges,
	magnus2,
	random_peripheral,
	word_johnson,
)


def clique(n):
	names = ["v%d" % i for i in range(1, n + 1)]
	return DefiningGraph(names, [[a, b] for a in names for b in names if a < b])


def edgeless(n):
	return DefiningGraph(["x%d" % i for i in range(n)], [])


# ---- leaf dimensions ----


def test_leaf_dimensions_builtin():
	assert leaf_dimension(Trivial()) == (0, "trivial")
	assert leaf_dimension(FreeAbelian(2)) == (2, "free-abelian rank")
	assert leaf_dimension(GeneralLinear(3, 2))[0] == 2 + 3
	for m, expect in [(0, 0), (1, 0), (2, 1), (3, 3)]:
		assert leaf_dimension(FouxeRabinovitch((), m, ())) == (expect, "free group outer")
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
	pp = PeripheralPair(edgeless(3))
	single = DefiningGraph(["u"], [])
	bad = DecompositionNode(
		pp, Leaf(FouxeRabinovitch((single, single, single), 0, (True,) * 3))
	)
	good = DecompositionNode(pp, Leaf(FreeAbelian(2)))
	tree = DecompositionNode(pp, RestrictionStep(1, bad, good))
	assert vcd_upper(tree) == "unknown"
	total, rows = fold(tree)
	assert total == "unknown"
	assert ("root.k", "unknown", "free product with no formula") in rows


# ---- upper bounds on the families ----


def test_vcd_upper_diamond_script():
	tree = decompose(
		PeripheralPair(diamond_chain(2)),
		mode="script",
		script=diamond_script(2),
	)
	assert vcd_upper(tree) == 7


def test_vcd_upper_four_path():
	tup = (2, 1, 2, 1)
	tree = decompose(
		PeripheralPair(four_path(*tup)),
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
			gens = enumerate_generators(pp)
			if len(gens) < 2:
				continue
			for _ in range(4):
				x, y, z = (realize(ctx, rng.choice(gens), rng.choice((1, -1))) for _ in range(3))
				composed = x.compose(y).compose(x.invert()).compose(y.invert())
				c, moved = commutator(x, y)
				check(c, composed)
				assert moved == support(composed)[0]
				check(images_through(ctx, z.back, (c,), moved | z.moved)[0], composed.compose(z.invert()))
				check(images_through(ctx, z.images, (c,), moved | z.moved)[0], composed.compose(z))
	assert statuses == {"yes", "no"}


def commutator(a, b):
	"""_commutator of two maps on one context: (letter table, mask it moves)."""
	return _commutator(a.ctx, a, b)


def dense_h1_minus_identity(g, table):
	"""{(v, w): entry} of M - I, from the dense n x n matrix M of the action on homology."""
	m = [[0] * g.n for _ in range(g.n)]
	for v in range(g.n):
		for lt in table[2 * v]:
			m[v][lt >> 1] += -1 if lt & 1 else 1
	return {(v, w): m[v][w] - (v == w) for v in range(g.n) for w in range(g.n) if m[v][w] != (v == w)}


def test_h1_action_is_the_dense_matrix_minus_identity():
	# of realized generators, their inverses and their commutators
	rng = random.Random(37)
	graphs = [graph_from_edges(4, edges) for edges in connected_graphs_upto_iso(4)]
	graphs += [random_graph(rng, 5) for _ in range(6)] + [diamond_chain(2), four_path(2, 1, 2, 1)]
	trivial = moved = 0
	for g in graphs:
		ctx = WordContext(g)
		pairs = [PeripheralPair(g, [], [])]
		pairs += [PeripheralPair(g, *random_peripheral(g, rng)) for _ in range(2)]
		for pp in pairs:
			phis = [realize(ctx, gen) for gen in enumerate_generators(pp)]
			# a realized table read at every row, a commutator at the rows it moves
			tables = [(phi.images, g.full) for phi in phis] + [(phi.back, g.full) for phi in phis]
			for _ in range(min(len(phis), 6)):
				tables.append(commutator(rng.choice(phis), rng.choice(phis)))
			for table, vmask in tables:
				sparse = _h1_action(table, vmask)
				assert sparse == dense_h1_minus_identity(g, table)
				trivial += not sparse
				moved += bool(sparse)
	assert trivial > 50 and moved > 50, (trivial, moved)


# ---- generator data against the word routes ----


def graph_symmetries(g):
	"""Every vertex permutation that preserves adjacency, by exhaustion."""
	pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
	return [
		perm
		for perm in itertools.permutations(range(g.n))
		if all((g.adj[u] >> v & 1) == (g.adj[perm[u]] >> perm[v] & 1) for u, v in pairs)
	]


def data_route_cases():
	"""(graph, generators) over every kind: the enumerated lists of an
	absolute and two random pairs, and every graph symmetry. Random
	graphs on at most 6 vertices, diamond_chain(2), four_path(2, 1, 2, 1)
	and the 3-path with its swap written out."""
	rng = random.Random(53)
	graphs = [random_graph(rng, rng.randrange(2, 7)) for _ in range(24)]
	graphs += [diamond_chain(2), four_path(2, 1, 2, 1)]
	cases = []
	for g in graphs:
		pairs = [PeripheralPair(g, [], [])]
		pairs += [PeripheralPair(g, *random_peripheral(g, rng)) for _ in range(2)]
		gens = {gen for pp in pairs for gen in enumerate_generators(pp)}
		gens.update(LaurenceGenerator.symmetry(g, perm) for perm in graph_symmetries(g))
		cases.append((g, sorted(gens, key=LaurenceGenerator.key)))
	p3 = DefiningGraph(list("abc"), [["a", "b"], ["b", "c"]])
	cases.append((p3, [parse_generator(p3, "sym (a c)")]))
	return cases


def written_words(gen, sign):
	"""The vertex words a generator (sign -1: its inverse) writes, read off its data."""
	n = gen.graph.n
	words = [(2 * v,) for v in range(n)]
	if gen.kind == "inv":
		(v,) = gen.data
		words[v] = (2 * v + 1,)
	elif gen.kind == "trv":
		moved, acting = gen.data
		words[moved] = (2 * moved, 2 * acting + (sign < 0))
	elif gen.kind == "pc":
		acting, region = gen.data
		for u in range(n):
			if region >> u & 1:
				words[u] = (2 * acting + (sign < 0), 2 * u, 2 * acting + (sign > 0))
	else:
		perm = gen.data
		for v in range(n):
			words[v] = (2 * (perm[v] if sign > 0 else perm.index(v)),)
	return words


def test_realize_writes_the_reduced_tables_of_the_written_words():
	# against Automorphism.from_images, which reduces every word; its
	# tables are the reduced ones, so equal tuples mean realize writes
	# reduced words
	kinds = set()
	for g, gens in data_route_cases():
		ctx = WordContext(g)
		for gen in gens:
			for sign in (1, -1):
				phi = realize(ctx, gen, sign)
				ref = Automorphism.from_images(
					ctx, written_words(gen, sign), written_words(gen, -sign)
				)
				assert (phi.images, phi.back) == (ref.images, ref.back), (str(gen), sign)
				kinds.add(gen.kind)
	assert kinds == {"inv", "trv", "pc", "sym"}


def h1(phi):
	"""The certificate's homology action of a map: _h1_action at the vertices it moves."""
	return _h1_action(phi.images, phi.moved)


def test_h1_action_of_a_realized_map_is_the_dense_matrix():
	# every kind, both signs, and the inverse table read at the same
	# mask, as the certificate reads it: a map and its inverse move the
	# same vertices
	kinds = set()
	moved_syms = 0
	for g, gens in data_route_cases():
		ctx = WordContext(g)
		for gen in gens:
			for sign in (1, -1):
				phi = realize(ctx, gen, sign)
				assert h1(phi) == dense_h1_minus_identity(g, phi.images)
				assert _h1_action(phi.back, phi.moved) == dense_h1_minus_identity(g, phi.back)
				kinds.add(gen.kind)
				moved_syms += gen.kind == "sym" and bool(h1(phi))
	assert kinds == {"inv", "trv", "pc", "sym"} and moved_syms > 10


def test_moved_masks_are_the_vertices_moved():
	# a mask missing a moved vertex would leave that vertex unthreaded,
	# so every way a map is built must set exactly the vertices foata
	# reads as moved: realize on every kind and sign, from_images on the
	# written words, identity, invert, compose, product_of and the
	# commutator
	rng = random.Random(71)
	seen = dict.fromkeys(["fixed", "moved", "identity sym", "sym with a fixed point"], 0)
	for g, gens in data_route_cases():
		ctx = WordContext(g)
		signed = [(gen, sign) for gen in gens for sign in (1, -1)]
		realized = [realize(ctx, gen, sign) for gen, sign in signed]
		maps = [Automorphism.identity(ctx)] + realized + [phi.invert() for phi in realized]
		maps += [
			Automorphism.from_images(ctx, written_words(gen, sign), written_words(gen, -sign))
			for gen, sign in signed
		]
		for _ in range(6):
			a, b = rng.choice(realized), rng.choice(realized)
			composed = a.compose(b).compose(a.invert()).compose(b.invert())
			assert commutator(a, b)[1] == support(composed)[0]
			maps += [a.compose(b), composed]
			maps.append(product_of(ctx, rng.sample(signed, min(len(signed), rng.randrange(1, 5)))))
		for phi in maps:
			assert phi.moved == support(phi)[0], phi
			seen["moved" if phi.moved else "fixed"] += 1
		for (gen, _), phi in zip(signed, realized):
			if gen.kind == "sym":
				seen["identity sym"] += not phi.moved
				seen["sym with a fixed point"] += 0 < phi.moved < g.full
	assert min(seen.values()) > 10, seen


def test_fixed_vertices_share_the_identity_words():
	# at each vertex a map fixes, both tables hold ctx.letters' own
	# tuples, not copies: in realized maps, and in what compose and the
	# commutator thread from them
	shared = 0
	for g, gens in data_route_cases():
		ctx = WordContext(g)
		phis = [realize(ctx, gen, sign) for gen in gens for sign in (1, -1)]
		tables = [(table, phi.moved) for phi in phis for table in (phi.images, phi.back)]
		for a, b in zip(phis, phis[1:]):
			ab = a.compose(b)
			tables += [(ab.images, ab.moved), (ab.back, ab.moved), commutator(a, b)]
		for table, moved in tables:
			for v in bits(g.full & ~moved):
				assert table[2 * v] is ctx.letters[2 * v]
				assert table[2 * v + 1] is ctx.letters[2 * v + 1]
				shared += 1
	assert shared > 1000, shared


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


def unthreaded(a, b):
	"""Mask of the vertices one of a and b moves while the other fixes it
	and every vertex of the first's image of it, read through foata."""
	(ma, _), (mb, _) = support(a), support(b)
	out = 0
	for phi, mine, other in ((a, ma, mb), (b, mb, ma)):
		for v in bits(mine & ~other):
			if not mask_word(phi.images[2 * v]) & other:
				out |= 1 << v
	return out


def test_commuting_pairs_are_the_identity_commutators():
	# every pair of generators, both signs, against the commutator's
	# vertex images compared with the vertices themselves; a pair whose
	# supports meet is split by whether _commuting_pairs may leave some
	# vertex unthreaded, as a(b(v)) = b(a(v)) there without a word
	rng = random.Random(37)
	graphs = [graph_from_edges(4, edges) for edges in connected_graphs_upto_iso(4)]
	graphs += [random_graph(rng, 5) for _ in range(6)] + [diamond_chain(2), four_path(2, 1, 2, 1)]
	branches = set()
	for g in graphs:
		ctx = WordContext(g)
		pairs = [PeripheralPair(g, [], [])]
		pairs += [PeripheralPair(g, *random_peripheral(g, rng)) for _ in range(2)]
		for pp in pairs:
			gens = enumerate_generators(pp)
			phis = [realize(ctx, gen, rng.choice((1, -1))) for gen in gens]
			declined = _commuting_pairs(ctx, phis)
			assert declined == sorted(declined)
			supports = [support(phi) for phi in phis]
			for j in range(len(phis)):
				for i in range(j):
					c, _ = commutator(phis[i], phis[j])
					identity = all(foata(c[2 * v], g) == ((2 * v,),) for v in range(g.n))
					assert ((i, j) not in declined) == identity, (str(gens[i]), str(gens[j]))
					(mi, si), (mj, sj) = supports[i], supports[j]
					if not identity:
						branches.add("declined")
					elif not (mi & sj or mj & si):
						branches.add("disjoint supports")
					elif unthreaded(phis[i], phis[j]):
						branches.add("equal, some vertex left unthreaded")
					else:
						branches.add("equal on moved vertices")
	assert branches == {
		"disjoint supports",
		"equal on moved vertices",
		"equal, some vertex left unthreaded",
		"declined",
	}


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
	assert _commuting_pairs(ctx, phis) == [(0, 1)]
	assert is_inner(ctx, commutator(*phis)[0]).status == "yes"


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
		gens = enumerate_generators(pp)
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
		accepted.append(len(phis) * (len(phis) - 1) // 2 - len(out))
		return out

	def decline_all(ctx, phis):
		return [(i, j) for i in range(len(phis)) for j in range(i + 1, len(phis))]

	monkeypatch.setattr(vcd, "_commuting_pairs", counted)
	with_test = [certify_outcome(g, gens, nilpotent) for g, gens in cases]
	assert sum(accepted) > 0
	monkeypatch.setattr(vcd, "_commuting_pairs", decline_all)
	without = [certify_outcome(g, gens, nilpotent) for g, gens in cases]
	assert with_test == without
	assert {type(x) for x in with_test} == {int, str}
	if nilpotent:
		assert "reached as a commutator but does not commute" in with_test[-1]


# The four-path tuples with closed forms 22, 37, 54, 16, 25, 57 and 22.
FOUR_PATH_TUPLES = (
	(1, 3, 2, 2),
	(2, 3, 2, 3),
	(3, 3, 3, 3),
	(1, 4, 1, 1),
	(3, 1, 3, 1),
	(4, 2, 4, 2),
	(2, 2, 2, 2),
)

# certify_outcome on every list below, both values of nilpotent, as the
# certificate gave it when every homology action and Johnson image was
# still read off words
CERTIFY_OUTCOMES = "9f15252d00c96d34"


def pinned_cases():
	"""certify_cases with the diamond lists for d = 2..6 and the four-path lists."""
	cases = certify_cases()
	for d in range(2, 7):
		g = diamond_chain(d)
		cases.append((g, diamond_generators(g, d)))
	for tup in FOUR_PATH_TUPLES:
		g = four_path(*tup)
		cases.append((g, four_path_generators(g, *tup)))
	return cases


def test_certificate_outcomes_are_pinned():
	cases = pinned_cases()
	outcomes = [certify_outcome(g, gens, nilpotent) for nilpotent in (False, True) for g, gens in cases]
	assert len(outcomes) == 156
	assert outcomes[-12:-7] == [7, 11, 15, 19, 23]
	digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()[:16]
	assert digest == CERTIFY_OUTCOMES


def test_nontrivial_homology_action_is_never_inner_and_keyed_match_is_the_first():
	# over every pair of every pinned list: a commutator acting
	# nontrivially on homology is not inner, and the match looked up by
	# homology action is the first k that a plain scan of phi_k and
	# phi_k^-1, in list order, finds through is_inner alone; the list is
	# followed by its own reverse, so every match has a later twin. An
	# entry whose table is c's, entry for entry, is one _match accepts
	# with no is_inner call: c phi_k^-1 must be inner with witness ()
	seen = {"acts": 0, "matched": 0, "unmatched": 0, "table hits": 0}
	for g, gens in pinned_cases():
		ctx = WordContext(g)
		phis = [realize(ctx, gen) for gen in gens]
		listed = vcd._by_action(phis + phis[::-1])
		for i, j in itertools.combinations(range(len(gens)), 2):
			c, moved = commutator(phis[i], phis[j])
			cmat = _h1_action(c, moved)
			if cmat:
				assert is_inner(ctx, c).status == "no"
				seen["acts"] += 1
			elif is_inner(ctx, c).status == "yes":
				continue
			for _, start, table, _ in listed.get(frozenset(cmat.items()), ()):
				if c == table:
					assert is_inner(ctx, images_through(ctx, start, (c,), g.full)[0]) == ("yes", (), "")
					seen["table hits"] += 1
			scan = next(
				(
					k
					for k, phi in enumerate(phis + phis[::-1])
					for start in (phi.back, phi.images)
					if is_inner(ctx, images_through(ctx, start, (c,), g.full)[0]).status == "yes"
				),
				None,
			)
			assert vcd._match(ctx, listed, c, moved, cmat) == scan, (str(gens[i]), str(gens[j]))
			seen["matched" if scan is not None else "unmatched"] += 1
	assert min(seen.values()) > 10, seen


def test_table_match_needs_the_same_moved_vertices():
	# on the free group of m, x, y, u, c = trv m^x after pc y:[u] has
	# trv m^x's homology action and its word at m, the one vertex trv m^x
	# moves; but c also moves u, and c (trv m^x)^-1 = pc y:[u] is not inner
	g = DefiningGraph(list("mxyu"), [])
	ctx = WordContext(g)
	gens = [
		LaurenceGenerator.transvection(g, "m", "x"),
		LaurenceGenerator.partial_conj(g, "y", g.mask(["u"])),
	]
	phi, psi = (realize(ctx, gen) for gen in gens)
	listed = vcd._by_action([phi, psi])
	m, u = g.index["m"], g.index["u"]
	c = phi.compose(psi).images
	assert c[2 * m] == phi.images[2 * m] and c[2 * u] != (2 * u,)
	cmat = _h1_action(c, g.mask(["m", "u"]))
	assert cmat == {(m, g.index["x"]): 1} == h1(phi)
	assert is_inner(ctx, psi.images).status == "no"
	assert vcd._match(ctx, listed, c, g.mask(["m", "u"]), cmat) is None
	assert vcd._match(ctx, listed, phi.images, g.mask(["m"]), cmat) == 0


def clique_certificate_counts(monkeypatch, n):
	"""vcd_report on K_n, with the calls the certificate makes counted."""
	counts = {}

	def count(owner, name):
		f = getattr(owner, name)
		counts[name] = 0

		def counted(*args):
			counts[name] += 1
			return f(*args)

		monkeypatch.setattr(owner, name, counted)

	count(vcd, "is_inner")
	count(vcd, "images_through")
	count(vcd, "_commutator")
	count(WordContext, "apply_map")
	bound = vcd_report(PeripheralPair(clique(n)))
	assert bound.lower == bound.upper == n * (n - 1) // 2
	return counts


def test_clique_certificate_counts_innerness_tests(monkeypatch):
	# K_16's triangle list: 120 transvections trv j^i (i < j), declining
	# the C(16, 3) = 560 pairs trv i^h, trv j^i with h < i < j. Each
	# commutator is j -> j h^-1: it acts on homology, so it needs no
	# innerness test of its own, and its table is trv j^h's inverse table
	# letter for letter, so the match makes no is_inner call either
	counts = clique_certificate_counts(monkeypatch, 16)
	assert counts["_commutator"] == 560
	assert counts["is_inner"] == 0


def test_clique_certificate_counts_on_k40(monkeypatch):
	# K_40's 780 transvections trv j^i (i < j); every count is per
	# triple h < i < j, of which there are C(40, 3) = 9,880:
	# - trv j^h and trv j^i both move j and commute: 2 apply_map at j;
	# - trv i^h and trv j^i are declined: 2 apply_map at j, none at i,
	#   which trv j^i fixes while trv i^h's word i h avoids j, then
	#   _commutator threads i and j through 3 tables each, in one
	#   images_through call;
	# every other pair has disjoint supports. The 9,880 commutators are
	# matched by their tables, as on K_16, so 8 + 2 = 10 apply_map a
	# triple and no is_inner call. images_through is counted where vcd
	# binds it, since vcd imports it by name
	counts = clique_certificate_counts(monkeypatch, 40)
	assert counts == {"is_inner": 0, "images_through": 9880, "_commutator": 9880, "apply_map": 98800}


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
		assert word_johnson(ctx, phi.images[::2]) == want


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
		assert word_johnson(ctx, phi.compose(psi).images[::2]) == tau_sum(
			word_johnson(ctx, phi.images[::2]), word_johnson(ctx, psi.images[::2])
		)
		assert tau_sum(word_johnson(ctx, phi.images[::2]), word_johnson(ctx, phi.back[::2])) == {}
		checked += bool(word_johnson(ctx, phi.images[::2]))
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
			assert word_johnson(ctx, phi.images[::2]) == want


def test_closed_form_johnson_images_match_the_word_route():
	# every listed partial conjugation, its inverse and every inner
	# automorphism, against the Magnus coefficients of their words, on the
	# data-route graphs and diamond_chain(3)
	d3 = diamond_chain(3)
	pcs = inner = 0
	for g, gens in data_route_cases() + [(d3, enumerate_generators(PeripheralPair(d3)))]:
		ctx = WordContext(g)
		for gen in gens:
			if gen.kind != "pc":
				continue
			phi = realize(ctx, gen)
			tau = _conjugation_johnson(*gen.data)
			assert tau == word_johnson(ctx, phi.images[::2]), str(gen)
			assert tau_sum(tau, word_johnson(ctx, phi.back[::2])) == {}
			pcs += 1
		for c in range(g.n):
			words = [(2 * c, 2 * v, 2 * c + 1) for v in range(g.n)]
			tau = _conjugation_johnson(c, g.full & ~g.star_masks[c])
			assert tau == word_johnson(ctx, words)
			inner += bool(tau)
	assert pcs > 50 and inner > 50, (pcs, inner)


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
			_certify_johnson_independent(g, gens)
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


def test_triangle_list_reads_the_order_rows():
	# against the by-name build filtered by gen_in_relative
	rng = random.Random(47)
	cut = set()
	for _ in range(60):
		g = clique(rng.randrange(2, 6))
		pp = PeripheralPair(g, *random_peripheral(g, rng))
		want = [gen for gen in triangle_list(g) if gen_in_relative(gen, pp)]
		assert _triangle_list(pp) == want
		cut.add(len(want) < len(triangle_list(g)))
	assert cut == {True, False}


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


def test_nilpotent_matches_a_listed_generator_up_to_an_inner_factor(monkeypatch):
	# the commutator of pc v4:[v1] and trv v4^v3 is pc v3:[v5] only up to
	# an inner automorphism, so its letter table differs from the listed
	# one and _match accepts it through is_inner
	names = ["v%d" % i for i in range(6)]
	edges = ["v0v1", "v0v3", "v0v4", "v0v5", "v2v3", "v2v5", "v3v4"]
	g = DefiningGraph(names, [[e[:2], e[2:]] for e in edges])
	gens = [
		parse_generator(g, text)
		for text in [
			"trv v2^v0", "trv v1^v4", "trv v1^v0", "pc v4:[v1]",
			"trv v4^v3", "trv v5^v3", "pc v3:[v5]", "trv v1^v3",
		]
	]
	answers = []
	inner = vcd.is_inner

	def recorded(ctx, table):
		out = inner(ctx, table)
		answers.append(out.status)
		return out

	monkeypatch.setattr(vcd, "is_inner", recorded)
	assert certify_lower_bound(g, gens, nilpotent=True) == 8
	assert "yes" in answers


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


def bracket(a, b):
	"""ab - ba of sparse matrices {(i, j): nonzero entry}."""
	out = {}
	for (i, k), x in a.items():
		for (k2, j), y in b.items():
			if k == k2:
				out[i, j] = out.get((i, j), 0) + x * y
	for (i, k), y in b.items():
		for (k2, j), x in a.items():
			if k == k2:
				out[i, j] = out.get((i, j), 0) - y * x
	return {key: x for key, x in out.items() if x}


def lie_closure_by_layers(logs):
	"""(basis, nilpotent) of the rational Lie algebra the sparse matrices generate.

	Every new basis element is bracketed with every earlier one, which
	closes the span; then every element of each layer of the lower
	central series, starting from L itself, is bracketed with every basis
	element. The series must shrink at each layer until it reaches zero.
	"""
	ech = _Echelon()
	basis = [m for m in logs if ech.add(m)]
	i = 0
	while i < len(basis):
		for b in basis[:i]:
			c = bracket(basis[i], b)
			if ech.add(c):
				basis.append(c)
		i += 1
	layer = basis
	while layer:
		nxt_ech = _Echelon()
		nxt = [c for a in layer for b in basis for c in [bracket(a, b)] if nxt_ech.add(c)]
		if len(nxt) >= len(layer):
			return basis, False
		layer = nxt
	return basis, True


def unipotent(mat, n):
	"""Whether (M - 1)^n = 0 for the sparse M - 1, by dense powers."""
	nil = [[mat.get((i, j), 0) for j in range(n)] for i in range(n)]
	power = nil
	for _ in range(n - 1):
		power = [[sum(row[k] * nil[k][j] for k in range(n)) for j in range(n)] for row in power]
	return not any(map(any, power))


def homology_outcome(n, gens, mats):
	"""_homology_dimension's count, or the text of its refusal."""
	try:
		return _homology_dimension(n, gens, mats)
	except CertificationError as exc:
		return str(exc)


def reference_outcome(n, gens, mats):
	"""The same outcome through dense unipotence and the reference closure.

	The first generator acting non-unipotently refuses. Otherwise each
	nontrivial M - 1 is a single +1 off the diagonal, so it squares to zero
	and is its own logarithm, and the closure's dimension counts unless
	the algebra is not nilpotent.
	"""
	for gen, mat in zip(gens, mats):
		if not unipotent(mat, n):
			return "the homology action of %s is not unipotent" % gen
	logs = [mat for mat in mats if mat]
	for log in logs:
		assert list(log.values()) == [1], log
	basis, nilpotent = lie_closure_by_layers(logs)
	if not nilpotent:
		return "the homology image does not generate a nilpotent Lie algebra"
	return len(basis)


def transvections(n, edges):
	"""The trv m^a on K_n for each edge (m, a), and their homology actions."""
	g = clique(n)
	ctx = WordContext(g)
	gens = [LaurenceGenerator.transvection(g, m, a) for m, a in edges]
	return gens, [h1(realize(ctx, gen)) for gen in gens]


def test_lie_closure_grows_heisenberg():
	# E12 and E23 bracket to E13
	assert _homology_dimension(3, *transvections(3, [(0, 1), (1, 2)])) == 3


def test_lie_closure_reaches_depth_three():
	# E12, E23, E34 generate all six strictly upper triangular 4x4 units;
	# E14 only appears as the bracket of the new element E13 with E34
	assert _homology_dimension(4, *transvections(4, [(0, 1), (1, 2), (2, 3)])) == 6


def test_homology_dimension_matches_the_lie_closure_on_random_edge_lists():
	# seeded edge lists on 1-7 vertices, after a 3-cycle with no 2-cycle,
	# whose E12, E23 and E31 generate sl_3 though no two edges are opposite
	rng = random.Random(67)
	cases = [(3, [(0, 1), (1, 2), (2, 0)])]
	while len(cases) < 1000:
		n = rng.randrange(1, 8)
		pairs = [(m, a) for m in range(n) for a in range(n) if m != a]
		k = rng.randrange(0, 2 * n + 1)
		cases.append((n, [rng.choice(pairs) for _ in range(k)] if pairs else []))
	verdicts = {int: 0, str: 0}
	for n, edges in cases:
		gens, mats = transvections(n, edges)
		got = homology_outcome(n, gens, mats)
		assert got == reference_outcome(n, gens, mats), (n, edges)
		verdicts[type(got)] += 1
	assert min(verdicts.values()) > 200, verdicts


def test_homology_dimension_matches_the_lie_closure_on_the_pinned_lists():
	# inversions among them, which must refuse in list order
	verdicts = {"count": 0, "unipotent": 0, "nilpotent": 0}
	for g, gens in pinned_cases():
		ctx = WordContext(g)
		mats = [h1(realize(ctx, gen)) for gen in gens]
		got = homology_outcome(g.n, gens, mats)
		assert got == reference_outcome(g.n, gens, mats), [str(gen) for gen in gens]
		if isinstance(got, int):
			verdicts["count"] += 1
		else:
			verdicts["unipotent" if got.endswith("unipotent") else "nilpotent"] += 1
	assert min(verdicts.values()) > 0, verdicts


# ---- reports ----


def test_report_clique_auto_lower():
	b = vcd_report(PeripheralPair(clique(3)))
	assert b.upper == b.lower == 3
	assert any(tag == "unipotent block plus extension" for _, _, tag in b.per_leaf)


def test_report_json():
	b = vcd_report(PeripheralPair(clique(2)))
	obj = bound_to_json_obj(b)
	assert obj["upper"] == obj["lower"] == 1
	assert all({"leaf", "dim", "why"} <= set(row) for row in obj["per_leaf"])


def test_report_plain_graph_defaults_to_zero_lower():
	b = vcd_report(PeripheralPair(edgeless(2)))
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
