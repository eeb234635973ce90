"""Random JSON inputs to every command line command.

Each example writes a graph, a peripheral pair, a script and a generator
list, some shaped like the real formats and some arbitrary JSON, and runs
one command on them; every command gets the same number of examples.
About one example in four slips on purpose: its pair or its script steps
carry a misspelled key or "mode", which no format takes, its restrict
steps leave out the target, or its project and leaf steps carry an unknown
op or a key only restrict takes, so the loader's checks are reached while
most examples get past the loader to the tree builder. Half of the
examples of a command that reads a generator list (vcd) instead bound the
graph's absolute group in auto mode with a list of its own generators,
which lie in that group, so they get past the loader and the tree to the
lower-bound certificate. The other half, and the decompose examples, draw
their restrict targets from the pair's invariant subgraphs and their
generator lists from the pair's own generators whenever the pair is well
formed, so scripted and relative examples reach the certificate too.
Whatever the input, the command must exit 0, 1 (domain or usage error) or
2 (capability limit) and must not raise: 3, an internal error, fails the
test too. The run is derandomized and small, so the same examples run
every time.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raagout.autos import enumerate_generators
from raagout.cli import main
from raagout.errors import DomainError
from raagout.graphs import DefiningGraph
from raagout.load import build_graph, build_pair
from raagout.peripheral import PeripheralPair, saturate

NAMES = ["a", "b", "c", "d", "e"]

KEYS = [
	"vertices", "edges", "G", "H", "op", "target", "image",
	# keys every format rejects: misspelled, or the "mode" older scripts carry
	"g", "moed", "mode",
]
SLIPS = [None] * 15 + ["g", "moed", "mode", "target", "op"]
scalars = st.one_of(
	st.none(),
	st.booleans(),
	st.integers(-3, 8),
	st.sampled_from(NAMES + ["", "zz", "restrict", "project", "leaf", "fast"]),
)
any_json = st.recursive(
	scalars,
	lambda inner: st.one_of(
		st.lists(inner, max_size=4),
		st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
	),
	max_leaves=12,
)


# the flags each command takes besides --graph and --format; --periph
# comes first, as the --script and --gens draws read the pair it gives
FLAGS = {
	"info": ("--periph",),
	"gens": ("--periph",),
	"invariant": ("--periph", "--target"),
	"saturate": ("--periph",),
	"periphery": ("--periph", "--target"),
	"restrict": ("--periph", "--target"),
	"decompose": ("--periph", "--script"),
	"vcd": ("--periph", "--script", "--gens", "--nilpotent"),
	"cone-graph": ("--periph",),
	"apply": ("--gen", "--word"),
	"check-exact": ("--periph", "--target"),
}


def shaped(strategy):
	"""The well-formed strategy, one time in eight arbitrary JSON instead."""
	return st.integers(0, 7).flatmap(lambda i: any_json if i == 7 else strategy)


def pair_of(graph, periph):
	"""The normalized pair periph gives on graph, None when it gives none."""
	try:
		return build_pair({} if periph is None else periph, build_graph(graph))
	except DomainError:
		return None


def invariant_names(pair):
	"""Names of the invariant subgraphs of pair, none without a pair.

	Each is a restrict target invariant at the root and in every kernel
	below it, since a kernel is a subgroup.
	"""
	if pair is None:
		return []
	return [pair.graph.names(m) for m in saturate(pair).g_members]


def own_generators(pair):
	"""Lists of the pair's own transvections and partial conjugations; None without any.

	They lie in the pair's group. Inversions are left out: the homology
	action of an inversion is not unipotent, which ends a certificate
	before its Lie-closure and Johnson checks.
	"""
	own = [] if pair is None else [gen for gen in enumerate_generators(pair) if gen.kind != "inv"]
	if not own:
		return None
	return st.lists(st.sampled_from(sorted(map(str, own), reverse=True)), min_size=1, max_size=4)


@st.composite
def invocations(draw, command):
	"""(argv, {file name: JSON object}) for command on a random graph."""
	vertices = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=5, unique=True))
	edges = [[u, v] for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
	if edges:
		edges = draw(st.lists(st.sampled_from(edges), max_size=6, unique_by=tuple))
	graph = {"vertices": vertices, "edges": edges}
	# names of the graph's vertices, in one example of eight also one that is not
	vertex = st.sampled_from(vertices + ["zz"] if draw(st.integers(0, 7)) == 7 else vertices)
	name_lists = st.lists(vertex, min_size=1, max_size=4, unique=True)
	slip = draw(st.sampled_from(SLIPS))
	typo = {slip: st.sampled_from(["fast", "saturated"])} if slip in ("moed", "mode") else {}

	def script(targets):
		"""Scripts whose restrict steps draw their targets from targets.

		With no targets, a restrict step could only fail, and the steps
		are the other ones.
		"""
		target = {} if slip == "target" else {"target": st.sampled_from(targets)}
		# leaf first, so the simplest draw is a step that can end a branch
		other = st.fixed_dictionaries(
			{"op": st.sampled_from(["leaf", "project"] + ["spin"] * (slip == "op")), **typo},
			optional={"target": name_lists} if slip == "op" else {},
		)
		if not targets:
			return shaped(st.lists(other, min_size=1, max_size=3))
		steps = st.recursive(
			st.one_of(
				st.fixed_dictionaries({"op": st.just("restrict"), **target, **typo}),
				other,
			),
			lambda inner: st.fixed_dictionaries(
				{"op": st.just("restrict"), **target, "image": st.lists(inner, max_size=2), **typo}
			),
			max_leaves=4,
		)
		# an empty script is auto mode, which leaving out --script covers
		return shaped(st.lists(steps, min_size=1, max_size=3))

	generator_texts = st.one_of(
		st.builds("inv {}".format, vertex),
		st.builds("trv {}^{}".format, vertex, vertex),
		st.builds(lambda x, r: "pc %s:[%s]" % (x, ",".join(r)), vertex, name_lists),
		st.builds("sym ({} {})".format, vertex, vertex),
		st.sampled_from(["", "trv", "pc a:", "sym (a"]),
	)
	file_flags = {
		"--graph": shaped(st.just(graph)),
		"--periph": shaped(st.fixed_dictionaries(
			{"g": st.lists(name_lists, max_size=1)} if slip == "g" else {},
			optional={"G": st.lists(name_lists, max_size=3), "H": st.lists(name_lists, max_size=2)},
		)),
		"--gens": shaped(st.lists(generator_texts, max_size=4)),
	}
	text_flags = {
		"--target": name_lists.map(",".join),
		"--word": st.lists(
			st.builds("{}^{}".format, vertex, st.integers(-2, 3)), max_size=6
		).map(" ".join),
	}
	formats = ["text", "json"] + (["dot"] if command in ("decompose", "cone-graph") else [])
	argv = [command, "--format", draw(st.sampled_from(formats))]
	if "--gens" in FLAGS[command] and draw(st.booleans()):
		absolute = PeripheralPair(DefiningGraph(vertices, edges), [], [])
		files = {"graph.json": graph, "gens.json": draw(own_generators(absolute))}
		argv += ["--graph", "graph.json", "--gens", "gens.json"]
		return argv + ["--nilpotent"] * draw(st.booleans()), files
	files = {}
	for flag in ("--graph",) + FLAGS[command]:
		if flag != "--graph" and draw(st.integers(0, 3)) == 3:
			continue
		if flag in ("--script", "--gens"):
			# restrict targets and generators the pair has, where it has any
			pair = pair_of(graph, files.get("periph.json"))
		if flag == "--script":
			files["script.json"] = draw(script(invariant_names(pair)))
			argv += [flag, "script.json"]
		elif flag == "--gens" and own_generators(pair) is not None:
			texts = st.lists(generator_texts, max_size=4)
			files["gens.json"] = draw(shaped(st.one_of(own_generators(pair), texts)))
			argv += [flag, "gens.json"]
		elif flag in file_flags:
			name = flag[2:] + ".json"
			files[name] = draw(file_flags[flag])
			argv += [flag, name]
		elif flag == "--gen":
			for text in draw(st.lists(generator_texts, min_size=1, max_size=3)):
				argv += [flag, text]
		elif flag == "--nilpotent":
			argv.append(flag)
		else:
			argv += [flag, draw(text_flags[flag])]
	return argv, files


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(
	max_examples=15,
	derandomize=True,
	deadline=None,
	database=None,
	suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_command_exits_cleanly_on_random_json(command, data):
	argv, files = data.draw(invocations(command))
	with tempfile.TemporaryDirectory() as tmp:
		for name, obj in files.items():
			(Path(tmp) / name).write_text(json.dumps(obj))
		argv = [str(Path(tmp) / a) if a in files else a for a in argv]
		out, err = io.StringIO(), io.StringIO()
		with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
			try:
				code = main(argv)
			except SystemExit as exc:
				code = exc.code
	# an exception other than SystemExit would have propagated out of main
	assert code in (0, 1, 2), (argv, files, err.getvalue())
	if code:
		assert err.getvalue().count("\n") == 1 or code == 1 and argv[0] == "check-exact"
