import random

import pytest

from raagout import families
from raagout.autos import parse_generator, product_of
from raagout.graphs import DefiningGraph
from raagout.words import WordContext, enc, inverse, mask_word

import helpers


def path_abc():
	return DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


# a small pool of graphs exercising different commutation patterns
def graph_pool():
	pool = []
	for n in (1, 2, 3, 4):
		for edges in helpers.connected_graphs_upto_iso(n):
			pool.append(helpers.graph_from_edges(n, edges))
	# one disconnected graph
	pool.append(DefiningGraph(["a", "b", "c"], [["a", "b"]]))
	return pool


POOL = graph_pool()


def random_word(rng, graph, maxlen=8):
	k = rng.randrange(maxlen + 1)
	return tuple(rng.randrange(2 * graph.n) for _ in range(k))


# ---- frozen values (derived independently by closure search) ----


def test_canonical_frozen():
	g = path_abc()
	ctx = WordContext(g)
	assert ctx.canonical(ctx.parse("b a")) == ctx.parse("a b")
	assert ctx.canonical(ctx.parse("c a")) == ctx.parse("c a")
	assert ctx.canonical(ctx.parse("c b a")) == ctx.parse("b c a")
	assert ctx.canonical(ctx.parse("a a^-1")) == ()
	assert ctx.canonical(ctx.parse("b c b^-1 a")) == ctx.parse("c a")


def test_cyc_reduce_frozen():
	g = path_abc()
	ctx = WordContext(g)
	core, conj = ctx.cyc_reduce(ctx.parse("a c a^-1"))
	assert core == ctx.parse("c") and conj == ctx.parse("a")
	core, conj = ctx.cyc_reduce(ctx.parse("a b a^-1"))
	assert core == ctx.parse("b") and conj == ()
	core, conj = ctx.cyc_reduce(ctx.parse("a c a^-1 c^-1"))
	assert len(core) == 4 and conj == ()


def test_parse_format():
	ctx = WordContext(path_abc())
	w = ctx.parse("a b^-1 c^2 a^-3")
	assert ctx.format(w) == "a b^-1 c c a^-1 a^-1 a^-1"
	assert ctx.parse(ctx.format(w)) == w
	assert ctx.format(()) == "1"
	with pytest.raises(Exception):
		ctx.parse("q")


def test_supp_crsupp():
	g = path_abc()
	ctx = WordContext(g)
	assert ctx.supp(ctx.parse("a c a^-1")) == g.mask(["a", "c"])
	assert mask_word(ctx.cyc_reduce(ctx.parse("a c a^-1"))[0]) == g.mask(["c"])


def test_canonical_long_words_have_closed_forms():
	# in F2 a reduced word is the only reduced word of its element, so the
	# canonical form of the image of a under alternating transvections,
	# whose length grows like the Fibonacci numbers, is its free reduction
	f2 = DefiningGraph(["a", "b"], [])
	ctx = WordContext(f2)
	up, down = parse_generator(f2, "trv a^b"), parse_generator(f2, "trv b^a")
	phi = product_of(ctx, [(up if i % 2 else down, 1) for i in range(20)])
	image = phi.images[0]
	assert len(image) == 17711
	assert ctx.canonical(image) == ctx.reduce(image)
	# in Z^2 every a moves ahead of b
	k2 = DefiningGraph(["a", "b"], [["a", "b"]])
	ctx = WordContext(k2)
	a, b = enc(0, 1), enc(1, 1)
	assert ctx.canonical(ctx.parse("a^20000 b")) == (a,) * 20000 + (b,)
	assert ctx.canonical(ctx.parse("b a^20000")) == (a,) * 20000 + (b,)


# ---- randomized properties against the brute-force oracles ----


def test_reduce_matches_bruteforce():
	rng = random.Random(7)
	for _ in range(300):
		g = rng.choice(POOL)
		ctx = WordContext(g)
		w = random_word(rng, g, maxlen=7)
		red = ctx.reduce(w)
		assert red in helpers.word_closure(w, g)
		assert len(red) == min(len(u) for u in helpers.word_closure(w, g))


def test_canonical_matches_bruteforce():
	rng = random.Random(11)
	for _ in range(300):
		g = rng.choice(POOL)
		ctx = WordContext(g)
		w = random_word(rng, g, maxlen=7)
		assert ctx.canonical(w) == helpers.brute_canonical(w, g)


def test_canonical_separates_and_joins():
	rng = random.Random(13)
	for _ in range(200):
		g = rng.choice(POOL)
		ctx = WordContext(g)
		w1 = random_word(rng, g, maxlen=6)
		w2 = random_word(rng, g, maxlen=6)
		same = helpers.brute_equal(w1, w2, g)
		assert (ctx.canonical(w1) == ctx.canonical(w2)) == same


def test_cyc_reduce_properties():
	rng = random.Random(17)
	for _ in range(300):
		g = rng.choice(POOL)
		ctx = WordContext(g)
		w = random_word(rng, g, maxlen=7)
		core, conj = ctx.cyc_reduce(w)
		# w == conj * core * conj^-1
		assert helpers.foata(w, g) == helpers.foata(tuple(conj) + tuple(core) + inverse(conj), g)
		# no further cyclic cancellation: every single-letter transport keeps length
		for t in helpers.cyclic_transports(ctx, core):
			assert len(t) == len(core)


def test_cyc_core_minimal_length():
	rng = random.Random(19)
	for _ in range(60):
		g = rng.choice(POOL)
		ctx = WordContext(g)
		w = random_word(rng, g, maxlen=5)
		core, _ = ctx.cyc_reduce(w)
		letters = tuple(range(2 * g.n))
		assert len(core) == helpers.brute_cyc_core_length(w, g, letters)


def test_strip_front_sound_and_complete():
	rng = random.Random(23)
	for _ in range(400):
		g = rng.choice(POOL)
		ctx = WordContext(g)
		smask = rng.randrange(g.full + 1)
		tmask = rng.randrange(g.full + 1)
		# completeness: words built as s * t must split after stripping
		s = tuple(lt for lt in random_word(rng, g, 4) if smask >> (lt >> 1) & 1)
		t = tuple(lt for lt in random_word(rng, g, 4) if tmask >> (lt >> 1) & 1)
		u = ctx.reduce(s + t)
		prefix, rem = ctx.strip_front(u, smask)
		assert helpers.foata(u, g) == helpers.foata(prefix + rem, g)
		assert all(smask >> (lt >> 1) & 1 for lt in prefix)
		assert ctx.supp(rem) & ~tmask == 0, (g.to_json_obj(), s, t, u, prefix, rem)


def test_strip_front_negative_agrees_with_search():
	# when strip_front leaves a remainder outside A_T, no factorization exists
	rng = random.Random(29)
	checked = 0
	for _ in range(200):
		g = rng.choice(POOL)
		if g.n < 2:
			continue
		ctx = WordContext(g)
		smask = rng.randrange(1, g.full + 1)
		tmask = rng.randrange(1, g.full + 1)
		u = ctx.reduce(random_word(rng, g, 5))
		prefix, rem = ctx.strip_front(u, smask)
		claim = ctx.supp(rem) & ~tmask == 0
		if claim or len(u) > 4:
			continue
		# exhaustive search over s in A_S of bounded length
		found = False
		for s in helpers.words_over(g, smask, 4):
			rest = ctx.reduce(inverse(s) + u)
			if ctx.supp(rest) & ~tmask == 0:
				found = True
				break
		assert not found, (g.to_json_obj(), u, smask, tmask)
		checked += 1
	assert checked > 20


# ---- long words against the Cartier-Foata normal form ----


FOATA_POOL = POOL + [families.diamond_chain(2)]


def scramble(rng, graph, word, moves=30):
	"""A word equal to word in the group, by random commuting swaps and cancelling pairs."""
	w = list(word)
	for _ in range(moves):
		kind = rng.randrange(3)
		i = rng.randrange(len(w) + 1)
		if kind == 0 and i + 1 < len(w):
			a, b = w[i] >> 1, w[i + 1] >> 1
			if a != b and graph.adj[a] >> b & 1:
				w[i], w[i + 1] = w[i + 1], w[i]
		elif kind == 1:
			lt = rng.randrange(2 * graph.n)
			w[i:i] = [lt, lt ^ 1]
		elif i + 1 < len(w) and w[i] == w[i + 1] ^ 1:
			del w[i : i + 2]
	return tuple(w)


def test_foata_matches_bruteforce():
	rng = random.Random(37)
	outcomes = [0, 0]
	for _ in range(200):
		g = rng.choice(POOL)
		w1 = random_word(rng, g, maxlen=4)
		if rng.random() < 0.5:
			w2 = scramble(rng, g, w1, moves=2)
		else:
			w2 = random_word(rng, g, maxlen=4)
		same = helpers.foata(w1, g) == helpers.foata(w2, g)
		assert same == helpers.brute_equal(w1, w2, g)
		assert sum(map(len, helpers.foata(w1, g))) == len(min(helpers.word_closure(w1, g), key=len))
		outcomes[same] += 1
	assert min(outcomes) > 50, outcomes


def test_normal_forms_match_foata():
	rng = random.Random(41)
	outcomes = [0, 0]
	for _ in range(400):
		g = rng.choice(FOATA_POOL)
		ctx = WordContext(g)
		w1 = random_word(rng, g, maxlen=40)
		form = helpers.foata(w1, g)
		assert helpers.foata(ctx.canonical(w1), g) == form
		assert len(ctx.reduce(w1)) == sum(len(level) for level in form)
		w2 = scramble(rng, g, w1)
		if rng.random() < 0.5 and w2:
			i = rng.randrange(len(w2))
			w2 = w2[:i] + (rng.randrange(2 * g.n),) + w2[i + 1 :]
		same = helpers.foata(w2, g) == form
		assert (ctx.canonical(w1) == ctx.canonical(w2)) == same
		outcomes[same] += 1
	assert min(outcomes) > 50, outcomes


def test_apply_map_matches_naive():
	rng = random.Random(31)
	g = path_abc()
	ctx = WordContext(g)
	a, b, c = (enc(i, 1) for i in range(3))
	# substitution: a -> ab, b -> b, c -> c (a transvection image table)
	images = [None] * 6
	images[a] = (a, b)
	images[a ^ 1] = (b ^ 1, a ^ 1)
	for lt in (b, b ^ 1, c, c ^ 1):
		images[lt] = (lt,)
	for _ in range(100):
		w = random_word(rng, g, 6)
		naive = []
		for lt in w:
			naive.extend(images[lt])
		assert ctx.apply_map(w, images) == ctx.reduce(tuple(naive))
