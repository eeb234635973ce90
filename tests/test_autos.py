import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagout.errors import DomainError
from raagout.graphs import DefiningGraph, bits, mask_of
from raagout.peripheral import PeripheralPair
from raagout.words import WordContext, enc, inverse
from raagout.autos import (
	Automorphism,
	LaurenceGenerator,
	acts_trivially_word,
	enumerate_generators,
	gen_in_relative,
	is_inner,
	parse_generator,
	product_of,
	realize,
)

from helpers import (
	acts_trivially_on,
	conjugate,
	connected_graphs_upto_iso,
	foata,
	graph_from_edges,
	inverts,
	preserves_closed_form,
	preserves_word,
	same_map,
	supp,
)


def path3():
	return DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def path5():
	return DefiningGraph(
		["a", "b", "c", "d", "e"],
		[["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]],
	)


def diamond():
	return DefiningGraph(
		["c0", "a1", "b1", "c1"],
		[["c0", "a1"], ["c0", "b1"], ["a1", "c1"], ["b1", "c1"]],
	)


def star4():
	return DefiningGraph(
		["v", "w", "x", "y", "z"],
		[["w", "v"], ["w", "x"], ["w", "y"], ["w", "z"]],
	)


def absolute(graph):
	return PeripheralPair(graph, [], [])


# ---- generator symbols ----


def test_generator_validation():
	g = path3()
	with pytest.raises(DomainError):
		LaurenceGenerator.transvection(g, "a", "a")
	with pytest.raises(DomainError):
		# b is not dominated by a
		LaurenceGenerator.transvection(g, "b", "a")
	with pytest.raises(DomainError):
		LaurenceGenerator.partial_conj(g, "a", 0)
	with pytest.raises(DomainError):
		# region touches the acting star
		LaurenceGenerator.partial_conj(g, "a", g.mask(["b"]))
	with pytest.raises(DomainError):
		LaurenceGenerator.inversion(g, "q")
	with pytest.raises(DomainError):
		LaurenceGenerator.symmetry(g, (0, 0, 1))
	with pytest.raises(DomainError):
		# swapping an end with the middle breaks adjacency
		LaurenceGenerator.symmetry(g, (1, 0, 2))
	with pytest.raises(DomainError):
		LaurenceGenerator(g, "rot", (0,))


def test_region_may_not_split_components():
	g = path5()
	with pytest.raises(DomainError):
		# away from st(e), the piece a-b-c is one component; cutting it is out
		LaurenceGenerator.partial_conj(g, "e", g.mask(["a", "b"]))
	# full components pass
	LaurenceGenerator.partial_conj(g, "e", g.mask(["a", "b", "c"]))
	LaurenceGenerator.partial_conj(g, "c", g.mask(["a"]))
	LaurenceGenerator.partial_conj(g, "c", g.mask(["a", "e"]))


def test_parse_roundtrip():
	g = path5()
	texts = [
		"inv c",
		"trv a^b",
		"pc c:[a,e]",
		"sym (a e)(b d)",
		"sym ()",
	]
	for text in texts:
		gen = parse_generator(g, text)
		assert str(gen) == text or text == "sym ()"
		assert parse_generator(g, str(gen)) == gen


def test_parse_errors():
	g = path3()
	bad = ["inv q", "trv ab", "pc a:b", "sym a b", "sym (a", "rot a"]
	for text in bad:
		with pytest.raises(DomainError):
			parse_generator(g, text)


def test_generator_sort_key():
	g = path3()
	gens = [
		parse_generator(g, "trv a^b"),
		parse_generator(g, "inv c"),
		parse_generator(g, "inv a"),
	]
	gens.sort(key=LaurenceGenerator.key)
	assert [str(x) for x in gens] == ["inv a", "inv c", "trv a^b"]


# ---- realization ----


def test_realize_images():
	g = diamond()
	ctx = WordContext(g)
	tv = realize(ctx, LaurenceGenerator.transvection(g, "c0", "c1"))
	assert ctx.format(tv.images[2 * g.index["c0"]]) == "c0 c1"
	pc = realize(ctx, LaurenceGenerator.partial_conj(g, "a1", g.mask(["b1"])))
	assert ctx.format(pc.images[2 * g.index["b1"]]) == "a1 b1 a1^-1"
	inv = realize(ctx, LaurenceGenerator.inversion(g, "c0"))
	assert ctx.format(inv.images[2 * g.index["c0"]]) == "c0^-1"
	assert inverts(tv) and inverts(pc) and inverts(inv)


def test_inverted_transvection_writes_the_inverse_letter_and_undoes_it():
	g = path3()
	ctx = WordContext(g)
	gen = LaurenceGenerator.transvection(g, "a", "c")
	down = realize(ctx, gen).invert()
	assert ctx.format(down.images[0]) == "a c^-1"
	assert same_map(realize(ctx, gen).compose(down), Automorphism.identity(ctx))


def test_compose_against_substitution():
	g = path3()
	ctx = WordContext(g)
	f = realize(ctx, LaurenceGenerator.transvection(g, "a", "b"))
	h = realize(ctx, LaurenceGenerator.inversion(g, "a"))
	# (f h)(a) = f(h(a)) = f(a^-1) = (ab)^-1
	assert f.compose(h).images[0] == ctx.parse("b^-1 a^-1")
	assert h.compose(f).images[0] == ctx.parse("a^-1 b")


def test_product_first_factor_applied_last():
	g = path3()
	ctx = WordContext(g)
	f = parse_generator(g, "trv a^b")
	h = parse_generator(g, "inv a")
	prod = product_of(ctx, [(f, 1), (h, 1)])
	assert same_map(prod, realize(ctx, f).compose(realize(ctx, h)))


def test_invert_roundtrip():
	g = diamond()
	ctx = WordContext(g)
	gens = enumerate_generators(absolute(g))
	rng = random.Random(5)
	phi = product_of(ctx, [(rng.choice(gens), rng.choice([1, -1])) for _ in range(6)])
	assert inverts(phi)


def test_identity_swap_product():
	# a transvection sandwich realizing the end swap on the path
	g = path3()
	ctx = WordContext(g)
	steps = [
		(parse_generator(g, "inv a"), 1),
		(parse_generator(g, "trv a^c"), -1),
		(parse_generator(g, "inv a"), 1),
		(parse_generator(g, "inv c"), 1),
		(parse_generator(g, "trv c^a"), 1),
		(parse_generator(g, "trv a^c"), -1),
	]
	phi = product_of(ctx, steps)
	assert same_map(phi, realize(ctx, parse_generator(g, "sym (a c)")))


# ---- innerness ----


def test_inner_conjugation():
	g = path5()
	ctx = WordContext(g)
	rng = random.Random(13)
	for _ in range(20):
		w = tuple(rng.randrange(2 * g.n) for _ in range(rng.randrange(6)))
		images = [conjugate(ctx, w, (enc(v, 1),)) for v in range(g.n)]
		back = [conjugate(ctx, inverse(w), (enc(v, 1),)) for v in range(g.n)]
		phi = Automorphism.from_images(ctx, images, back)
		res = is_inner(ctx, phi.images)
		assert res.status == "yes"
		for v in range(g.n):
			assert foata(conjugate(ctx, res.witness, (enc(v, 1),)), g) == foata(phi.images[2 * v], g)


def test_not_inner():
	g = path5()
	ctx = WordContext(g)
	tv = realize(ctx, LaurenceGenerator.transvection(g, "a", "b"))
	assert is_inner(ctx, tv.images).status == "no"
	pc = realize(ctx, LaurenceGenerator.partial_conj(g, "c", g.mask(["a"])))
	assert is_inner(ctx, pc.images).status == "no"
	f2 = DefiningGraph(["u", "v"], [])
	ctx2 = WordContext(f2)
	sw = realize(ctx2, parse_generator(f2, "sym (u v)"))
	assert is_inner(ctx2, sw.images).status == "no"


def test_full_conjugation_is_inner():
	g = path5()
	ctx = WordContext(g)
	comps = [g.mask(["a"]), g.mask(["e"])]
	phi = product_of(
		ctx, [(LaurenceGenerator.partial_conj(g, "c", c), 1) for c in comps]
	)
	res = is_inner(ctx, phi.images)
	assert res.status == "yes"
	assert ctx.canonical(res.witness) == ctx.parse("c")


def test_a_wrong_witness_is_refused(monkeypatch):
	# a front strip that finds nothing leaves the empty word as the witness
	# of a nontrivial conjugation; the exact check must refuse it
	g = diamond()
	ctx = WordContext(g)
	c = g.index["c0"]
	phi = Automorphism.from_images(
		ctx,
		[(2 * c, 2 * v, 2 * c + 1) for v in range(g.n)],
		[(2 * c + 1, 2 * v, 2 * c) for v in range(g.n)],
	)
	assert is_inner(ctx, phi.images).status == "yes"
	monkeypatch.setattr(ctx, "strip_front", lambda letters, smask: ((), ()))
	with pytest.raises(RuntimeError, match="witness failed verification"):
		is_inner(ctx, phi.images)


# ---- closed forms against the word level ----


def _cases(nmax):
	for edges in connected_graphs_upto_iso(nmax):
		g = graph_from_edges(nmax, edges)
		ctx = WordContext(g)
		gens = enumerate_generators(absolute(g))
		perms = []
		# include the graph symmetries reachable by swapping equivalent ends
		for u in range(g.n):
			for v in range(u + 1, g.n):
				perm = list(range(g.n))
				perm[u], perm[v] = v, u
				try:
					perms.append(LaurenceGenerator.symmetry(g, perm))
				except DomainError:
					pass
		yield g, ctx, gens + perms


def test_trivial_action_closed_forms():
	for g, ctx, gens in _cases(4):
		for gen in gens:
			phi = realize(ctx, gen)
			for d in range(1, g.full + 1):
				got, _ = acts_trivially_word(ctx, phi, d)
				assert got == acts_trivially_on(gen, d), (g.to_json_obj(), str(gen), d)


def test_preserve_closed_forms():
	for g, ctx, gens in _cases(4):
		for gen in gens:
			phi = realize(ctx, gen)
			for d in range(1, g.full + 1):
				got, witness = preserves_word(ctx, phi, d)
				# the word test must be conclusive on generators
				assert got is not None, (g.to_json_obj(), str(gen), d)
				assert got == preserves_closed_form(gen, d), (g.to_json_obj(), str(gen), d)
				if got:
					for v in bits(d):
						conj = conjugate(ctx, inverse(witness), phi.images[2 * v])
						assert not supp(ctx, conj) & ~d


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_preserve_word_random_products(data):
	edges = data.draw(st.sampled_from(list(connected_graphs_upto_iso(4))))
	g = graph_from_edges(4, edges)
	ctx = WordContext(g)
	gens = enumerate_generators(absolute(g))
	steps = data.draw(
		st.lists(
			st.tuples(st.sampled_from(gens), st.sampled_from([1, -1])),
			max_size=4,
		)
	)
	phi = product_of(ctx, steps)
	d = data.draw(st.integers(1, g.full))
	got, witness = preserves_word(ctx, phi, d)
	if got:
		for v in bits(d):
			conj = conjugate(ctx, inverse(witness), phi.images[2 * v])
			assert not supp(ctx, conj) & ~d
	elif got is False:
		# a refutation means no generator-built witness works either
		for cand in [()] + [phi.images[2 * v] for v in bits(d)]:
			carried = all(
				not supp(ctx, conjugate(ctx, inverse(cand), phi.images[2 * v])) & ~d
				for v in bits(d)
			)
			assert not carried


# ---- relative membership ----


def test_gen_in_relative_inversion():
	g = diamond()
	pp = PeripheralPair(g, [g.mask(["c1"])], [g.mask(["c1"])])
	assert not gen_in_relative(parse_generator(g, "inv c1"), pp)
	assert gen_in_relative(parse_generator(g, "inv c0"), pp)


def test_gen_in_relative_transvection():
	g = diamond()
	pp = PeripheralPair(g, [g.mask(["c1"])], [g.mask(["c1"])])
	assert gen_in_relative(parse_generator(g, "trv c0^c1"), pp)
	# the member through c1 does not contain c0
	assert not gen_in_relative(parse_generator(g, "trv c1^c0"), pp)


def test_gen_in_relative_partial_conj():
	g = star4()
	members = [g.mask(["x"]), g.mask(["y"]), g.mask(["x", "y"])]
	pp = PeripheralPair(g, members, [])
	assert gen_in_relative(parse_generator(g, "pc v:[x,y]"), pp)
	assert not gen_in_relative(parse_generator(g, "pc v:[x]"), pp)
	assert gen_in_relative(parse_generator(g, "pc v:[z]"), pp)


def test_gen_in_relative_symmetry():
	g = path3()
	swap = parse_generator(g, "sym (a c)")
	assert gen_in_relative(swap, absolute(g))
	pp_set = PeripheralPair(g, [g.mask(["a", "c"])], [])
	assert gen_in_relative(swap, pp_set)
	pp_pt = PeripheralPair(g, [g.mask(["a", "c"])], [g.mask(["a", "c"])])
	assert not gen_in_relative(swap, pp_pt)
	pp_off = PeripheralPair(g, [g.mask(["a"])], [])
	assert not gen_in_relative(swap, pp_off)


def test_gen_in_relative_matches_preservation():
	# a generator lies in the relative group iff it preserves every member
	# and acts trivially on the pointwise ones
	rng = random.Random(17)
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		ctx = WordContext(g)
		gens = enumerate_generators(absolute(g))
		for _ in range(6):
			glist = [rng.randrange(1, g.full) for _ in range(rng.randrange(3))]
			hlist = [m for m in glist if rng.random() < 0.5]
			pp = PeripheralPair(g, glist, hlist)
			for gen in gens:
				phi = realize(ctx, gen)
				expect = all(
					preserves_word(ctx, phi, m)[0] for m in pp.g_members
				) and all(acts_trivially_word(ctx, phi, m)[0] for m in pp.h_members)
				assert gen_in_relative(gen, pp) == expect, (
					g.to_json_obj(),
					str(gen),
					pp.to_json_obj(),
				)


# ---- enumeration ----


def test_enumerate_path():
	g = path3()
	gens = enumerate_generators(absolute(g))
	assert [str(x) for x in gens] == [
		"inv a",
		"inv b",
		"inv c",
		"trv a^b",
		"trv a^c",
		"trv c^a",
		"trv c^b",
	]


def test_enumerate_free2():
	g = DefiningGraph(["u", "v"], [])
	gens = enumerate_generators(absolute(g))
	assert [str(x) for x in gens] == ["inv u", "inv v", "trv u^v", "trv v^u"]


def test_enumerate_partial_conjugations():
	g = path5()
	gens = enumerate_generators(absolute(g))
	pcs = [str(x) for x in gens if x.kind == "pc"]
	# two components away from st(c) and from st(d): keep the smaller one
	assert "pc c:[a]" in pcs or "pc c:[e]" in pcs
	assert len([p for p in pcs if p.startswith("pc c")]) == 1


def test_enumerate_relative_diamond():
	g = diamond()
	pp = PeripheralPair(g, [g.mask(["c1"])], [g.mask(["c1"])])
	assert [str(x) for x in enumerate_generators(pp)] == [
		"inv c0",
		"inv a1",
		"inv b1",
		"trv c0^c1",
		"trv a1^b1",
		"trv b1^a1",
	]


def test_enumerated_generators_are_members():
	rng = random.Random(29)
	for edges in connected_graphs_upto_iso(4):
		g = graph_from_edges(4, edges)
		for _ in range(6):
			glist = [rng.randrange(1, g.full) for _ in range(rng.randrange(3))]
			hlist = [m for m in glist if rng.random() < 0.5]
			pp = PeripheralPair(g, glist, hlist)
			for gen in enumerate_generators(pp):
				assert gen_in_relative(gen, pp)
