import doctest
import importlib
import json
import pkgutil

import pytest

import raagout
from raagout.errors import DomainError
from raagout.graphs import DefiningGraph, bits, mask_of
from raagout.load import build_graph

from helpers import is_clique, link_of_set, subgraph_center


def diamond():
	# c0 and c1 joined through a1 and b1 (a square)
	return DefiningGraph(
		["c0", "a1", "b1", "c1"],
		[["c0", "a1"], ["c0", "b1"], ["a1", "c1"], ["b1", "c1"]],
	)


def path4():
	return DefiningGraph(["w", "x", "y", "z"], [["w", "x"], ["x", "y"], ["y", "z"]])


def test_bits_roundtrip():
	assert list(bits(0)) == []
	assert mask_of([0, 2, 5]) == 0b100101
	assert list(bits(0b100101)) == [0, 2, 5]


def test_json_roundtrip():
	g = diamond()
	obj = g.to_json_obj()
	g2 = build_graph(json.loads(json.dumps(obj)))
	assert g2.vertices == g.vertices
	assert g2.adj == g.adj


@pytest.mark.parametrize(
	"verts,edges",
	[
		(["a", "a"], []),
		(["a", "b"], [["a", "c"]]),
		(["a", "b"], [["a", "a"]]),
		(["a", "b"], [["a", "b"], ["b", "a"]]),
		(["a", "b"], [["a"]]),
	],
)
def test_validation_errors(verts, edges):
	with pytest.raises(DomainError):
		build_graph({"vertices": verts, "edges": edges})


def test_links_and_stars():
	g = path4()
	w, x, y, z = range(4)
	assert g.adj[x] == mask_of([w, y])
	assert g.star_masks[x] == mask_of([w, x, y])
	assert link_of_set(g, mask_of([w, y])) == mask_of([x])
	# empty set links to everything by convention
	assert link_of_set(g, 0) == g.full


def test_components():
	g = DefiningGraph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
	assert g.components() == [0b0011, 0b1100]
	assert not g.is_connected()
	assert g.is_connected(0b0011)
	assert g.components(0b0111) == [0b0011, 0b0100]


def test_center_and_cliques():
	g = diamond()
	assert g.center == subgraph_center(g, g.full) == 0  # c0, c1 not adjacent
	assert subgraph_center(g, g.mask(["c0", "a1"])) == g.mask(["c0", "a1"])
	assert g.clique_number() == 2
	assert is_clique(g, g.mask(["c0", "a1"]))
	assert not is_clique(g, g.mask(["c0", "c1"]))
	star = DefiningGraph(["m", "a", "b"], [["m", "a"], ["m", "b"]])
	assert star.center == subgraph_center(star, star.full) == star.mask(["m"])
	assert star.clique_number() == 2


def test_domination_path4():
	g = path4()
	w, x, y, z = range(4)
	assert g.dominates(w, x)  # lk(w)={x} inside st(x)
	assert not g.dominates(x, w)
	assert g.dominates(w, y)  # lk(w)={x} inside st(y)={x,y,z}
	assert g.dominates(z, y)
	assert g.dominates(z, x)
	assert not g.dominates(y, x)


def test_vertex_classes_diamond():
	g = diamond()
	cls = g.vertex_classes()
	assert cls == [g.mask(["c0", "c1"]), g.mask(["a1", "b1"])]


def test_vertex_classes_path4():
	g = path4()
	assert g.vertex_classes() == [g.mask([v]) for v in "wxyz"]
	tri = DefiningGraph(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]])
	assert tri.vertex_classes() == [tri.full]


def test_source_doctests_pass():
	attempted = 0
	for info in pkgutil.iter_modules(raagout.__path__, "raagout."):
		result = doctest.testmod(importlib.import_module(info.name))
		assert result.failed == 0, info.name
		attempted += result.attempted
	assert attempted >= 2
