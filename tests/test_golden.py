"""Golden digests of decomposition trees, upper bounds and saturations.

Each case runs `decompose --format json` and `saturate --format json`
through the command line on an input from data/ or on a family instance,
folds the same tree to its upper bound, and compares a SHA-256 digest of
the three against a pinned value (GOLDEN). A second table (GOLDEN_VCD)
pins the digest of `vcd --format json` on the same inputs, plus two
four-path graphs with their nilpotent generator lists, so the certified
lower bound, which rests on the word kernel, is pinned too. A third
(GOLDEN_TREE) pins `decompose --format text` and `--format dot` on the
same inputs, so the tree renderings are pinned byte for byte. A change
to any tree node, member list, rendering or bound changes a digest, so a
speed-up of a lower layer cannot alter results unseen. When a change is meant to alter
a result, print the new digests with `python tests/test_golden.py` and
update the tables.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from raagout import families
from raagout.cli import main
from raagout.decompose import decompose
from raagout.load import build_graph, build_pair
from raagout.peripheral import PeripheralPair
from raagout.vcd import vcd_upper

DATA = Path(__file__).resolve().parent.parent / "data"


def _data(name):
	return json.loads((DATA / name).read_text())


def _data_case(graph, periph=None, script=None):
	return lambda: (
		_data(graph),
		_data(periph) if periph else None,
		_data(script) if script else None,
	)


def _family_case(graph, script=None):
	return lambda: (graph().to_json_obj(), None, script() if script else None)


def _four_path_gens(p, q, r, s):
	"""A four-path graph with its generator list, as (graph_obj, gen_texts)."""
	def load():
		graph = families.four_path(p, q, r, s)
		texts = [str(x) for x in families.four_path_generators(graph, p, q, r, s)]
		return graph.to_json_obj(), texts
	return load


CASES = {
	"diamonds_d3": _data_case("diamonds_d3.json"),
	"diamonds_d3+script": _data_case("diamonds_d3.json", script="diamonds_d3.script.json"),
	"diamonds_d3+empty": _data_case("diamonds_d3.json", periph="empty.json"),
	"diamonds_d3+corner": _data_case("diamonds_d3.json", periph="diamond_corner.json"),
	"diamonds_d3+corner+script": _data_case(
		"diamonds_d3.json", periph="diamond_corner.json", script="diamonds_d3.script.json"
	),
	"fourpath_2121": _data_case("fourpath_2121.json"),
	"fourpath_2121+script": _data_case("fourpath_2121.json", script="fourpath_2121.script.json"),
	"p3": _data_case("p3.json"),
	"p3+empty": _data_case("p3.json", periph="empty.json"),
	"diamond_chain(2)": _family_case(lambda: families.diamond_chain(2)),
	"diamond_chain(3)": _family_case(lambda: families.diamond_chain(3)),
	"diamond_chain(4)": _family_case(lambda: families.diamond_chain(4)),
	"diamond_chain(2)+script": _family_case(
		lambda: families.diamond_chain(2), lambda: families.diamond_script(2)
	),
	"diamond_chain(3)+script": _family_case(
		lambda: families.diamond_chain(3), lambda: families.diamond_script(3)
	),
	"diamond_chain(4)+script": _family_case(
		lambda: families.diamond_chain(4), lambda: families.diamond_script(4)
	),
	"four_path(2,1,2,1)": _family_case(lambda: families.four_path(2, 1, 2, 1)),
	"four_path(2,1,2,1)+script": _family_case(
		lambda: families.four_path(2, 1, 2, 1), lambda: families.four_path_script(2, 1, 2, 1)
	),
	"four_path(4,4,4,4)": _family_case(lambda: families.four_path(4, 4, 4, 4)),
	"four_path(2,2,2,2)+script": _family_case(
		lambda: families.four_path(2, 2, 2, 2), lambda: families.four_path_script(2, 2, 2, 2)
	),
}

# First 16 hex digits of each case's digest.
GOLDEN = {
	'diamond_chain(2)': '1cca02147b34d8d0',
	'diamond_chain(2)+script': '308f946519028613',
	'diamond_chain(3)': '7ba6c7382e022e2c',
	'diamond_chain(3)+script': '3f207e14db3b5d14',
	'diamond_chain(4)': 'd43345c99369cfe1',
	'diamond_chain(4)+script': 'fc512b3a3598efb4',
	'diamonds_d3': '7ba6c7382e022e2c',
	'diamonds_d3+corner': '10546d52ff88ac37',
	'diamonds_d3+corner+script': '24b2cda63e1f06e3',
	'diamonds_d3+empty': '7ba6c7382e022e2c',
	'diamonds_d3+script': '3f207e14db3b5d14',
	'four_path(2,1,2,1)': 'ea769db426c0bf4f',
	'four_path(2,1,2,1)+script': 'ae9af57b7c6b1d9d',
	'four_path(2,2,2,2)+script': '0b6f020ac76f8645',
	'four_path(4,4,4,4)': '0b39e424f57d323c',
	'fourpath_2121': 'ea769db426c0bf4f',
	'fourpath_2121+script': 'ae9af57b7c6b1d9d',
	'p3': 'fad2df5829257f2d',
	'p3+empty': 'fad2df5829257f2d',
}

# First 16 hex digits of each case's `decompose --format text` output
# followed by its `decompose --format dot` output.
GOLDEN_TREE = {
	'diamond_chain(2)': '32366f38951e80c3',
	'diamond_chain(2)+script': 'bf00372cffc9c6c9',
	'diamond_chain(3)': 'e921d95011a770bd',
	'diamond_chain(3)+script': '5b69482f0c750730',
	'diamond_chain(4)': 'b495272cd3d9de8b',
	'diamond_chain(4)+script': '4704a8fe2ef2cf14',
	'diamonds_d3': 'e921d95011a770bd',
	'diamonds_d3+corner': '59e9e1e371a727b9',
	'diamonds_d3+corner+script': 'b57106c3e7945eb5',
	'diamonds_d3+empty': 'e921d95011a770bd',
	'diamonds_d3+script': '5b69482f0c750730',
	'four_path(2,1,2,1)': '31b6d25c669b61ca',
	'four_path(2,1,2,1)+script': '3f37d9e11d5fd78e',
	'four_path(2,2,2,2)+script': '5e9ec05d716be568',
	'four_path(4,4,4,4)': '68e4cba27c20d38d',
	'fourpath_2121': '31b6d25c669b61ca',
	'fourpath_2121+script': '3f37d9e11d5fd78e',
	'p3': 'a32f7ea25493bf18',
	'p3+empty': 'a32f7ea25493bf18',
}

# Cases that only `vcd` runs: `--gens` with the listed generators and
# `--nilpotent`, on the auto tree.
GENS_CASES = {
	"four_path(2,1,2,1)+gens": _four_path_gens(2, 1, 2, 1),
	"four_path(2,2,2,2)+gens": _four_path_gens(2, 2, 2, 2),
}

# First 16 hex digits of each case's `vcd --format json` output.
GOLDEN_VCD = {
	'diamond_chain(2)': 'aed6f55e8bdcf635',
	'diamond_chain(2)+script': '25ef17f7fbcdb5de',
	'diamond_chain(3)': '86ad89d6dae4c4ae',
	'diamond_chain(3)+script': '5cb8542bc4cf5ab5',
	'diamond_chain(4)': '270f536fac9ae536',
	'diamond_chain(4)+script': '939faa7e292ad6ba',
	'diamonds_d3': '86ad89d6dae4c4ae',
	'diamonds_d3+corner': 'f307f45e13ce6b40',
	'diamonds_d3+corner+script': '1f04475283804110',
	'diamonds_d3+empty': '86ad89d6dae4c4ae',
	'diamonds_d3+script': '5cb8542bc4cf5ab5',
	'four_path(2,1,2,1)': 'c8510dfac235a2b2',
	'four_path(2,1,2,1)+gens': '47c0c7c1d8563dc7',
	'four_path(2,1,2,1)+script': '315eabfd58245ecf',
	'four_path(2,2,2,2)+gens': '03790158e9b4842d',
	'four_path(2,2,2,2)+script': '6b0a5f7d31412ece',
	'four_path(4,4,4,4)': '2725b5348a600324',
	'fourpath_2121': 'c8510dfac235a2b2',
	'fourpath_2121+script': '315eabfd58245ecf',
	'p3': '0de69de2b8255d33',
	'p3+empty': '0de69de2b8255d33',
}


def _cli(*argv):
	out = io.StringIO()
	with contextlib.redirect_stdout(out):
		assert main(list(argv)) == 0
	return out.getvalue()


def _write(tmp_path, **objs):
	"""Write each non-None object as <key>.json and return the paths by key."""
	files = {}
	for key, obj in objs.items():
		if obj is not None:
			files[key] = tmp_path / ("%s.json" % key)
			files[key].write_text(json.dumps(obj))
	return files


def _digest(text):
	return hashlib.sha256(text.encode()).hexdigest()[:16]


def case_digest(name, tmp_path):
	graph_obj, periph_obj, script = CASES[name]()
	files = _write(tmp_path, graph=graph_obj, periph=periph_obj, script=script)
	common = ["--graph", str(files["graph"]), "--format", "json"]
	if "periph" in files:
		common += ["--periph", str(files["periph"])]
	tree_json = _cli("decompose", *common, *(
		["--script", str(files["script"])] if script is not None else []
	))
	saturated_json = _cli("saturate", *common)
	graph = build_graph(graph_obj)
	if periph_obj is None:
		pair = PeripheralPair(graph, [], [])
	else:
		pair = build_pair(periph_obj, graph)
	tree = decompose(pair, mode="script" if script is not None else "auto", script=script)
	text = "%s\n%s\nupper=%s\n" % (tree_json, saturated_json, vcd_upper(tree))
	return _digest(text)


def tree_digest(name, tmp_path):
	graph_obj, periph_obj, script = CASES[name]()
	files = _write(tmp_path, graph=graph_obj, periph=periph_obj, script=script)
	extra = []
	for key in ("periph", "script"):
		if key in files:
			extra += ["--%s" % key, str(files[key])]
	outputs = [
		_cli("decompose", "--graph", str(files["graph"]), "--format", fmt, *extra)
		for fmt in ("text", "dot")
	]
	return _digest("".join(outputs))


def vcd_digest(name, tmp_path):
	if name in GENS_CASES:
		graph_obj, texts = GENS_CASES[name]()
		files = _write(tmp_path, graph=graph_obj, gens=texts)
		extra = ["--gens", str(files["gens"]), "--nilpotent"]
	else:
		graph_obj, periph_obj, script = CASES[name]()
		files = _write(tmp_path, graph=graph_obj, periph=periph_obj, script=script)
		extra = []
		for key in ("periph", "script"):
			if key in files:
				extra += ["--%s" % key, str(files[key])]
	return _digest(_cli("vcd", "--graph", str(files["graph"]), "--format", "json", *extra))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
	assert case_digest(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_tree_digest(name, tmp_path):
	assert tree_digest(name, tmp_path) == GOLDEN_TREE[name]


@pytest.mark.parametrize("name", sorted(set(CASES) | set(GENS_CASES)))
def test_golden_vcd_digest(name, tmp_path):
	assert vcd_digest(name, tmp_path) == GOLDEN_VCD[name]


if __name__ == "__main__":
	import tempfile

	for table, names, digest in (
		("GOLDEN", sorted(CASES), case_digest),
		("GOLDEN_TREE", sorted(CASES), tree_digest),
		("GOLDEN_VCD", sorted(set(CASES) | set(GENS_CASES)), vcd_digest),
	):
		print("%s = {" % table)
		for name in names:
			with tempfile.TemporaryDirectory() as tmp:
				print("\t%r: %r," % (name, digest(name, Path(tmp))))
		print("}")
