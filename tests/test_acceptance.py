"""Acceptance harness: the ten headline checks, one test per criterion.

Each test prints a single PASS line (visible with -s, or via -v through the
test name) after its assertions, together with the measured runtime where the
criterion bounds one. Seeds are fixed, so every run exercises the same
instances.
"""

import itertools
import random
import time

from helpers import (
	checked_saturate,
	connected_graphs_upto_iso,
	diamond_quartet,
	graph_from_edges,
	preserves_word,
	same_map,
)

from raagout.autos import (
	Automorphism,
	acts_trivially_word,
	enumerate_generators,
	gen_in_relative,
	is_inner,
	parse_generator,
	product_of,
	realize,
)
from raagout.decompose import (
	decompose,
	lift_generator,
	restriction_step,
	word_restriction,
)
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
from raagout.peripheral import PeripheralPair, is_invariant, saturate
from raagout.vcd import (
	certify_lower_bound,
	vcd_report,
	vcd_upper,
)
from raagout.words import WordContext, inverse, mask_word


def _ok(n, text):
	print("PASS criterion %d: %s" % (n, text))


def test_01_diamond_chain_uppers():
	# scripted decomposition gives the exact dimension 4d - 1
	t0 = time.monotonic()
	for d in (2, 3, 4):
		tree = decompose(PeripheralPair(diamond_chain(d)), mode="script", script=diamond_script(d))
		assert vcd_upper(tree) == 4 * d - 1, d
	took = time.monotonic() - t0
	assert took < 60.0, took
	_ok(1, "diamond chain uppers 7, 11, 15 for d=2,3,4 in %.2fs" % took)


def test_02_diamond_chain_abelian_lowers():
	t0 = time.monotonic()
	for d in (2, 3, 4, 5, 6):
		g = diamond_chain(d)
		gens = diamond_generators(g, d)
		assert certify_lower_bound(g, gens) == 4 * d - 1
	# the certificate already proves pairwise-inner commutators; re-check
	# one family explicitly so the property is visible here
	g = diamond_chain(2)
	ctx = WordContext(g)
	phis = [realize(ctx, x) for x in diamond_generators(g, 2)]
	for a, b in itertools.combinations(phis, 2):
		comm = a.compose(b).compose(a.invert()).compose(b.invert())
		assert is_inner(ctx, comm.images).status == "yes"
	took = time.monotonic() - t0
	assert took < 300.0, took
	_ok(2, "diamond chain abelian lowers 7, 11, 15, 19, 23 for d=2..6 in %.2fs" % took)


def test_03_single_diamond_quartet():
	dims = []
	for name, pair, gens, dim in diamond_quartet():
		bound = vcd_report(pair, gens=gens)
		assert bound.upper == dim, (name, bound)
		assert bound.lower == dim, (name, bound)
		dims.append(dim)
	assert dims == [2, 2, 2, 1]
	_ok(3, "single diamond quartet reports 2, 2, 2, 1")


def test_04_four_path_family():
	tuples = [(1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 2, 2), (1, 3, 2, 2)]
	for p, q, r, s in tuples:
		want = four_path_dimension(p, q, r, s)
		bound = vcd_report(
			PeripheralPair(four_path(p, q, r, s)), script=four_path_script(p, q, r, s)
		)
		assert bound.upper == want, ((p, q, r, s), bound.upper, want)
	for p, q, r, s in [(1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 2, 2)]:
		g = four_path(p, q, r, s)
		gens = four_path_generators(g, p, q, r, s)
		want = four_path_dimension(p, q, r, s)
		assert certify_lower_bound(g, gens, nilpotent=True) == want
	_ok(4, "4-path uppers match the closed form on four tuples; lowers match on three")


def test_05_saturation_oracle():
	p3 = DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
	sat = checked_saturate(PeripheralPair(p3, [], []))
	b = p3.mask(["b"])
	assert set(sat.g_members) == {b} and sat.h_members == ()

	# re-derive by brute force: a proper subgraph survives exactly when all
	# seven generators preserve it word-level
	ctx = WordContext(p3)
	gens = enumerate_generators(PeripheralPair(p3, [], []))
	assert len(gens) == 7
	survivors = set()
	for dmask in range(1, p3.full):
		if all(preserves_word(ctx, realize(ctx, x), dmask)[0] for x in gens):
			survivors.add(dmask)
	assert survivors == {b}

	# pinned counterexample: a -> ac moves <a,b> off every conjugate
	rho = realize(ctx, parse_generator(p3, "trv a^c"))
	got, witness = preserves_word(ctx, rho, p3.mask(["a", "b"]))
	assert got is False and witness is None

	f2 = DefiningGraph(["a", "b"], [])
	sat2 = checked_saturate(PeripheralPair(f2, [], []))
	assert sat2.g_members == () and sat2.h_members == ()
	_ok(5, "saturation gives {<b>} on the path and nothing on F2, brute-force confirmed")


def test_06_suite_a_generator_criteria():
	# every candidate generator, all connected graphs on up to 5 vertices,
	# 200 random pairs per graph
	rng = random.Random(2026)
	checked = 0
	for n in range(2, 6):
		for edges in connected_graphs_upto_iso(n):
			g = graph_from_edges(n, edges)
			ctx = WordContext(g)
			gens = enumerate_generators(PeripheralPair(g, [], []))
			phis = [realize(ctx, x) for x in gens]
			# word-oracle verdicts per (generator index, mask): the 200 pairs
			# of one graph ask about the same few masks again and again
			preserved = {}
			trivial = {}
			for _ in range(200):
				glist = [rng.randrange(1, g.full) for _ in range(rng.randrange(3))]
				hlist = [m for m in glist if rng.random() < 0.5]
				pp = PeripheralPair(g, glist, hlist)
				for i, (gen, phi) in enumerate(zip(gens, phis)):
					expect = True
					for m in pp.g_members:
						if (i, m) not in preserved:
							preserved[i, m] = preserves_word(ctx, phi, m)[0]
						verdict = preserved[i, m]
						assert verdict is not None, (g.to_json_obj(), str(gen), m)
						if not verdict:
							expect = False
							break
					if expect:
						for m in pp.h_members:
							if (i, m) not in trivial:
								trivial[i, m] = acts_trivially_word(ctx, phi, m)[0]
						expect = all(trivial[i, m] for m in pp.h_members)
					assert gen_in_relative(gen, pp) == expect, (
						g.to_json_obj(), str(gen), pp.to_json_obj()
					)
					checked += 1
	_ok(6, "membership criteria agree with the word oracle on %d cases" % checked)


def test_07_suite_b_invariance():
	rng = random.Random(2027)
	closure_checked = 0
	oracle_checked = 0
	while closure_checked < 1000:
		n = rng.randrange(2, 7)
		full = (1 << n) - 1
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		edges = [e for e in pairs if rng.random() < 0.5]
		g = graph_from_edges(n, edges)
		ctx = WordContext(g)
		glist = [rng.randrange(1, full) for _ in range(rng.randrange(3))]
		hlist = [m for m in glist if rng.random() < 0.5]
		pp = PeripheralPair(g, glist, hlist)
		gens = enumerate_generators(pp)
		phis = [realize(ctx, x) for x in gens]
		invariant = []
		for dmask in range(1, full):
			got = is_invariant(pp, dmask)
			want = all(preserves_word(ctx, phi, dmask)[0] for phi in phis)
			assert got == want, (g.to_json_obj(), pp.to_json_obj(), dmask)
			oracle_checked += 1
			if got:
				invariant.append(dmask)
		rng.shuffle(invariant)
		for d1, d2 in itertools.combinations(invariant[:8], 2):
			if d1 & d2:
				assert is_invariant(pp, d1 & d2), (g.to_json_obj(), d1, d2)
				closure_checked += 1
	_ok(7, "invariance oracle agreed on %d masks; intersection closure held on %d pairs"
		% (oracle_checked, closure_checked))


def test_08_suite_c_exact_sequence():
	rng = random.Random(2028)
	done = 0
	lifted = 0
	kernel_checked = 0
	while done < 100:
		n = rng.randrange(3, 7)
		full = (1 << n) - 1
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		edges = [e for e in pairs if rng.random() < 0.55]
		g = graph_from_edges(n, edges)
		glist = [rng.randrange(1, full) for _ in range(rng.randrange(3))]
		hlist = [m for m in glist if rng.random() < 0.5]
		sat = saturate(PeripheralPair(g, glist, hlist))
		members = [m for m in sat.g_members if 0 < m < full]
		if not members:
			continue
		dmask = rng.choice(members)
		kernel, image = restriction_step(sat, dmask, mode="saturated")
		ctx = WordContext(g)
		sub_ctx = WordContext(image.graph)
		for gen in image.gens():
			lift = lift_generator(sat, image, dmask, gen)
			back = word_restriction(sub_ctx, dmask, realize(ctx, lift))
			disc = back.compose(realize(sub_ctx, gen).invert())
			res = is_inner(sub_ctx, disc.images)
			assert res.status == "yes", (g.to_json_obj(), sat.to_json_obj(), str(gen))
			lifted += 1
		for gen in kernel.gens():
			flag, _ = acts_trivially_word(ctx, realize(ctx, gen), dmask)
			assert flag, (g.to_json_obj(), sat.to_json_obj(), str(gen))
			kernel_checked += 1
		done += 1
	_ok(8, "exact sequence on %d pairs: %d lifts matched mod inner, %d kernel gens trivial"
		% (done, lifted, kernel_checked))


def test_09_normal_form_suite():
	rng = random.Random(2029)
	graphs = []
	for _ in range(12):
		n = rng.randrange(2, 7)
		pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
		edges = [e for e in pairs if rng.random() < 0.5]
		g = graph_from_edges(n, edges)
		graphs.append((g, WordContext(g)))

	def random_word(g, maxlen):
		return tuple(
			2 * rng.randrange(g.n) + rng.randrange(2) for _ in range(rng.randrange(maxlen))
		)

	swaps = 0
	while swaps < 100_000:
		g, ctx = graphs[rng.randrange(len(graphs))]
		w = random_word(g, 14)
		r = ctx.reduce(w)
		assert len(r) <= len(w)
		assert ctx.reduce(r) == r
		c = ctx.canonical(w)
		fuzzed = list(w)
		for _ in range(20):
			if len(fuzzed) < 2:
				break
			i = rng.randrange(len(fuzzed) - 1)
			a, b = fuzzed[i], fuzzed[i + 1]
			if a >> 1 != b >> 1 and g.adj[a >> 1] >> (b >> 1) & 1:
				fuzzed[i], fuzzed[i + 1] = b, a
				swaps += 1
		assert ctx.canonical(tuple(fuzzed)) == c

	for _ in range(10_000):
		g, ctx = graphs[rng.randrange(len(graphs))]
		w = random_word(g, 10)
		conj = random_word(g, 6)
		moved = tuple(conj) + w + inverse(conj)
		assert mask_word(ctx.cyc_reduce(moved)[0]) == mask_word(ctx.cyc_reduce(w)[0])
	_ok(9, "normal form stable under %d commuting swaps; cyclically reduced support "
		"conjugation-invariant on 10000 pairs"
		% swaps)


def test_10_symmetry_as_product():
	p3 = DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
	ctx = WordContext(p3)
	inv_a = parse_generator(p3, "inv a")
	inv_c = parse_generator(p3, "inv c")
	rho_ac = parse_generator(p3, "trv a^c")  # a -> ac
	rho_ca = parse_generator(p3, "trv c^a")  # c -> ca
	word = [
		(inv_a, 1), (rho_ac, -1), (inv_a, 1), (inv_c, 1), (rho_ca, 1), (rho_ac, -1),
	]
	phi = product_of(ctx, word)
	swap = realize(ctx, parse_generator(p3, "sym (a c)"))
	assert same_map(phi, swap)
	assert phi.images[2 * p3.index["a"]] == (2 * p3.index["c"],)
	assert phi.images[2 * p3.index["b"]] == (2 * p3.index["b"],)
	_ok(10, "the six-factor product equals the a-c graph symmetry word-for-word")
