"""Family builders: graphs, scripts, and certifying generator lists."""

import pytest

from raagout.autos import LaurenceGenerator, gen_in_relative, enumerate_generators
from raagout.decompose import (
	FouxeRabinovitch,
	FreeAbelian,
	GeneralLinear,
	ProjectionStep,
	decompose,
)
from raagout.errors import DomainError
from raagout.families import (
	diamond_chain,
	diamond_generators,
	diamond_labels,
	diamond_script,
	four_path,
	four_path_classes,
	four_path_dimension,
	four_path_generators,
	four_path_script,
)
from raagout.graphs import DefiningGraph
from raagout.peripheral import PeripheralPair

from helpers import diamond_quartet, is_clique


def cycle(n):
	names = ["v%d" % i for i in range(n)]
	return DefiningGraph(names, [[names[i], names[(i + 1) % n]] for i in range(n)])


def with_edge(graph, a, b):
	return DefiningGraph(graph.vertices, graph.to_json_obj()["edges"] + [[a, b]])


def test_diamond_labels_of_a_diamond_chain_name_its_vertices():
	g = diamond_chain(3)
	assert diamond_labels(g) == {name: name for name in g.vertices}


@pytest.mark.parametrize(
	"graph",
	[
		cycle(5),
		with_edge(diamond_chain(2), "c0", "c2"),
		# 7 vertices and 8 edges, as diamond_chain(2) has
		with_edge(cycle(7), "v0", "v3"),
	],
	ids=["vertex-count", "degree-sum", "right-counts-not-a-chain"],
)
def test_diamond_labels_reject_other_graphs(graph):
	assert diamond_labels(graph) is None


def test_diamond_chain_shape():
	g = diamond_chain(3)
	assert g.n == 10
	assert sum(bin(m).count("1") for m in g.adj) == 2 * 12
	assert sorted(g.vertices)[:3] == ["a1", "a2", "a3"]
	with pytest.raises(DomainError):
		diamond_chain(0)


def twisted_generators(g, d):
	"""The diamond list without the transvection pushing the top corner off its diamond.

	It matches the group that holds that corner fixed, of rank 4d - 2.
	"""
	top = LaurenceGenerator.transvection(g, "c%d" % d, "c%d" % (d - 1))
	return [gen for gen in diamond_generators(g, d) if gen != top]


def test_diamond_generator_counts():
	for d, count in [(1, 4), (2, 7), (3, 11), (4, 15)]:
		g = diamond_chain(d)
		gens = diamond_generators(g, d)
		assert len(gens) == count
		assert len(twisted_generators(g, d)) == count - 1
		assert len(set(map(str, gens))) == count


def test_diamond_generators_in_group():
	for d in (2, 3):
		g = diamond_chain(d)
		pair = PeripheralPair(g, [], [])
		for gen in diamond_generators(g, d):
			assert gen_in_relative(gen, pair), str(gen)


def test_diamond_twisted_generators_fix_top_corner():
	g = diamond_chain(2)
	top = g.mask(["c2"])
	pair = PeripheralPair(g, [], [top])
	for gen in twisted_generators(g, 2):
		assert gen_in_relative(gen, pair), str(gen)
	extra = diamond_generators(g, 2)[-1]
	assert not gen_in_relative(extra, pair)


def test_diamond_script_runs():
	for d in (2, 3):
		pp = PeripheralPair(diamond_chain(d))
		root = decompose(pp, mode="script", script=diamond_script(d))
		leaves = root.leaves()
		assert all(
			isinstance(s, (FreeAbelian, GeneralLinear, FouxeRabinovitch))
			for s in leaves
		)


def test_diamond_script_d1_is_empty():
	assert diamond_script(1) == []


def test_quartet():
	rows = diamond_quartet()
	assert [dim for _, _, _, dim in rows] == [2, 2, 2, 1]
	assert len({name for name, _, _, _ in rows}) == 4
	for name, pp, gens, dim in rows:
		assert len(gens) == dim
		for gen in gens:
			assert gen_in_relative(gen, pp), "%s: %s" % (name, gen)


def test_four_path_shape():
	g = four_path(2, 1, 2, 1)
	assert g.n == 6
	w, x, y, z = four_path_classes(2, 1, 2, 1)
	assert g.mask(w) | g.mask(x) | g.mask(y) | g.mask(z) == g.full
	assert is_clique(g, g.mask(y))
	assert not g.adj[g.index["w1"]] >> g.index["y1"] & 1
	with pytest.raises(DomainError):
		four_path(0, 1, 1, 1)


def test_four_path_dimension_values():
	assert four_path_dimension(1, 1, 1, 1) == 4
	assert four_path_dimension(2, 1, 2, 1) == 12
	assert four_path_dimension(2, 2, 2, 2) == 22
	assert four_path_dimension(1, 3, 2, 2) == 22


def test_four_path_generators_in_group():
	for tup in [(1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 2, 2)]:
		g = four_path(*tup)
		pair = PeripheralPair(g, [], [])
		gens = four_path_generators(g, *tup)
		assert len(gens) == len(set(map(str, gens)))
		for gen in gens:
			assert gen_in_relative(gen, pair), str(gen)


def test_four_path_script_leaf_shapes():
	p, q, r, s = 2, 1, 2, 1
	pp = PeripheralPair(four_path(p, q, r, s))
	root = decompose(pp, mode="script", script=four_path_script(p, q, r, s))
	leaves = root.leaves()
	gl = [sh for sh in leaves if isinstance(sh, GeneralLinear)]
	assert sorted(sh.m for sh in gl) == [q, r]
	fr = [sh for sh in leaves if isinstance(sh, FouxeRabinovitch)]
	assert len(fr) == 2
	for sh in fr:
		assert len(sh.factors) == 1 and sh.held == (True,)
	assert {(sh.factors[0].n, sh.free_rank) for sh in fr} == {(q, s), (r, p)}

	ranks = [
		node.step.kernel_rank
		for _, _, _, node, _ in root.walk()
		if isinstance(node.step, ProjectionStep)
	]
	assert sorted(ranks) == sorted([p * q, r * s])


def test_four_path_innermost_kernel_trivial():
	pp = PeripheralPair(four_path(2, 1, 2, 1))
	root = decompose(pp, mode="script", script=four_path_script(2, 1, 2, 1))
	outer = root.step.kernel
	inner = outer.step.kernel
	assert inner.step.shape == FreeAbelian(0, 0)
	assert list(enumerate_generators(inner.pair)) == []
