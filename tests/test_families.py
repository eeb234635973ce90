"""Family builders: graphs, scripts, and certifying generator lists."""

import pytest

from raagout.autos import gen_in_relative, enumerate_generators
from raagout.decompose import (
	FouxeRabinovitch,
	FreeAbelian,
	GeneralLinear,
	GroupDescriptor,
	ProjectionStep,
	decompose,
)
from raagout.errors import DomainError
from raagout.families import (
	diamond_chain,
	diamond_generators,
	diamond_quartet,
	diamond_script,
	four_path,
	four_path_classes,
	four_path_dimension,
	four_path_generators,
	four_path_script,
)
from raagout.peripheral import PeripheralPair


def test_diamond_chain_shape():
	g = diamond_chain(3)
	assert g.n == 10
	assert sum(bin(m).count("1") for m in g.adj) == 2 * 12
	assert sorted(g.vertices)[:3] == ["a1", "a2", "a3"]
	with pytest.raises(DomainError):
		diamond_chain(0)


def test_diamond_generator_counts():
	for d, count in [(1, 4), (2, 7), (3, 11), (4, 15)]:
		g = diamond_chain(d)
		gens = diamond_generators(g, d)
		assert len(gens) == count
		assert len(diamond_generators(g, d, twisted=True)) == count - 1
		assert len(set(map(str, gens))) == count


def test_diamond_generators_in_group():
	for d in (2, 3):
		g = diamond_chain(d)
		pair = PeripheralPair(g, [], []).normalize()
		for gen in diamond_generators(g, d):
			assert gen_in_relative(gen, pair), str(gen)


def test_diamond_twisted_generators_fix_top_corner():
	g = diamond_chain(2)
	top = g.mask(["c2"])
	pair = PeripheralPair(g, [], [top]).normalize()
	for gen in diamond_generators(g, 2, twisted=True):
		assert gen_in_relative(gen, pair), str(gen)
	extra = diamond_generators(g, 2)[-1]
	assert not gen_in_relative(extra, pair)


def test_diamond_script_runs():
	for d in (2, 3):
		desc = GroupDescriptor.absolute(diamond_chain(d))
		root = decompose(desc, mode="script", script=diamond_script(d))
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
	for name, desc, gens, dim in rows:
		assert len(gens) == dim
		for gen in gens:
			assert gen_in_relative(gen, desc.pair), "%s: %s" % (name, gen)


def test_four_path_shape():
	g = four_path(2, 1, 2, 1)
	assert g.n == 6
	w, x, y, z = four_path_classes(2, 1, 2, 1)
	assert g.mask(w) | g.mask(x) | g.mask(y) | g.mask(z) == g.full
	assert g.is_clique(g.mask(y))
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
		pair = PeripheralPair(g, [], []).normalize()
		gens = four_path_generators(g, *tup)
		assert len(gens) == len(set(map(str, gens)))
		for gen in gens:
			assert gen_in_relative(gen, pair), str(gen)


def test_four_path_script_leaf_shapes():
	p, q, r, s = 2, 1, 2, 1
	desc = GroupDescriptor.absolute(four_path(p, q, r, s))
	root = decompose(desc, mode="script", script=four_path_script(p, q, r, s))
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
		for _, node, _ in root.walk()
		if isinstance(node.step, ProjectionStep)
	]
	assert sorted(ranks) == sorted([p * q, r * s])


def test_four_path_innermost_kernel_trivial():
	desc = GroupDescriptor.absolute(four_path(2, 1, 2, 1))
	root = decompose(desc, mode="script", script=four_path_script(2, 1, 2, 1))
	outer = root.step.kernel
	inner = outer.step.kernel
	assert inner.step.shape == FreeAbelian(0, 0)
	assert list(enumerate_generators(inner.descriptor.pair)) == []
