"""End-to-end runs of the command line surface, in process."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from raagout.autos import InnerResult
from raagout.cli import main
from raagout.errors import DomainError
from raagout.families import diamond_chain
from raagout.load import build_graph


P3 = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}


@pytest.fixture
def p3(tmp_path):
	path = tmp_path / "p3.json"
	path.write_text(json.dumps(P3))
	return str(path)


def write_json(tmp_path, name, obj):
	path = tmp_path / name
	path.write_text(json.dumps(obj))
	return str(path)


def run(capsys, *argv):
	code = main(list(argv))
	out = capsys.readouterr()
	return code, out.out, out.err


def test_gens_p3(capsys, p3):
	code, out, _ = run(capsys, "gens", "--graph", p3)
	assert code == 0
	lines = out.splitlines()
	assert len(lines) == 7
	assert "trv a^c" in lines and "trv c^a" in lines
	assert "trv b^a" not in lines


def test_gens_json(capsys, p3):
	code, out, _ = run(capsys, "gens", "--graph", p3, "--format", "json")
	assert code == 0
	assert len(json.loads(out)) == 7


def test_info_text(capsys, p3):
	code, out, _ = run(capsys, "info", "--graph", p3)
	assert code == 0
	assert "3 vertices, 2 edges, connected" in out


def test_invariant(capsys, p3):
	code, out, _ = run(capsys, "invariant", "--graph", p3, "--target", "b")
	assert (code, out.strip()) == (0, "invariant")
	code, out, _ = run(capsys, "invariant", "--graph", p3, "--target", "a,b")
	assert (code, out.strip()) == (0, "not invariant")


def test_saturate_p3_empty(capsys, tmp_path, p3):
	periph = write_json(tmp_path, "empty.json", {"G": [], "H": []})
	code, out, _ = run(capsys, "saturate", "--graph", p3, "--periph", periph)
	assert code == 0
	assert out.splitlines() == ["G <b>"]


def test_vcd_diamond_script(capsys, tmp_path):
	from raagout.families import diamond_chain, diamond_script

	graph = write_json(tmp_path, "d3.json", diamond_chain(3).to_json_obj())
	script = write_json(tmp_path, "d3.script.json", diamond_script(3))
	code, out, _ = run(capsys, "vcd", "--graph", graph, "--script", script)
	assert code == 0
	lines = out.splitlines()
	assert lines[0] == "upper: 11"
	assert lines[1] == "lower: 11"


def test_vcd_json_round_trip_and_determinism(capsys, tmp_path):
	from raagout.families import diamond_chain, diamond_script

	graph = write_json(tmp_path, "d2.json", diamond_chain(2).to_json_obj())
	script = write_json(tmp_path, "d2.script.json", diamond_script(2))
	runs = []
	for _ in range(2):
		code, out, _ = run(capsys, "vcd", "--graph", graph, "--script", script,
			"--format", "json")
		assert code == 0
		runs.append(out)
	assert runs[0] == runs[1]
	obj = json.loads(runs[0])
	assert obj["upper"] == 7 and obj["lower"] == 7


def test_vcd_gens_file(capsys, tmp_path):
	from raagout.families import four_path, four_path_generators, four_path_script

	g = four_path(1, 1, 1, 1)
	graph = write_json(tmp_path, "fp.json", g.to_json_obj())
	script = write_json(tmp_path, "fp.script.json", four_path_script(1, 1, 1, 1))
	gens = write_json(
		tmp_path, "fp.gens.json", [str(x) for x in four_path_generators(g, 1, 1, 1, 1)]
	)
	code, out, _ = run(capsys, "vcd", "--graph", graph, "--script", script,
		"--gens", gens, "--nilpotent")
	assert code == 0
	assert out.splitlines()[:2] == ["upper: 4", "lower: 4"]


def test_decompose_dot(capsys, p3):
	code, out, _ = run(capsys, "decompose", "--graph", p3, "--format", "dot")
	assert code == 0
	assert out.startswith("digraph decomposition {")


def test_decompose_json_has_leaves(capsys, p3):
	code, out, _ = run(capsys, "decompose", "--graph", p3, "--format", "json")
	assert code == 0
	json.loads(out)


def test_restrict_json_round_trip(capsys, p3):
	code, out, _ = run(capsys, "restrict", "--graph", p3, "--target", "b",
		"--format", "json")
	assert code == 0
	obj = json.loads(out)
	img = build_graph(obj["image"]["graph"])
	assert img.to_json_obj() == obj["image"]["graph"]


def test_periphery_adds_target(capsys, p3):
	code, out, _ = run(capsys, "periphery", "--graph", p3, "--target", "b")
	assert code == 0


def test_periphery_of_the_whole_graph_is_refused(capsys, p3):
	# the whole graph is invariant, but it cannot join G as a member
	code, out, err = run(capsys, "periphery", "--graph", p3, "--target", "a,b,c")
	assert (code, out) == (1, "")
	assert err == "error: peripheral members must be proper subgraphs\n"


def test_cone_graph_round_trip(capsys, p3):
	code, out, _ = run(capsys, "cone-graph", "--graph", p3, "--format", "json")
	assert code == 0
	obj = json.loads(out)
	g = build_graph(obj)
	assert g.to_json_obj() == obj
	assert "@*" in g.vertices


def test_apply_symmetry_product(capsys, p3):
	# inv a, trv^-1, inv a, inv c, trv c^a, trv^-1 composes to the a-c swap
	gens = []
	for text in ("inv a", "trv a^c^-1", "inv a", "inv c", "trv c^a", "trv a^c^-1"):
		gens += ["--gen", text]
	images = {}
	for w in "abc":
		code, out, _ = run(capsys, "apply", "--graph", p3, *gens, "--word", w)
		assert code == 0
		images[w] = out.strip()
	assert images == {"a": "c", "b": "b", "c": "a"}


def test_check_exact_clean(capsys, p3):
	code, out, _ = run(capsys, "check-exact", "--graph", p3, "--target", "b")
	assert code == 0
	assert "0 failures" in out
	assert "FAIL" not in out


def test_check_exact_mode_flag_is_gone(capsys, p3):
	# the modes give the same groups, and check-exact prints only what they fix
	with pytest.raises(SystemExit) as exc:
		main(["check-exact", "--graph", p3, "--target", "b", "--mode", "fast"])
	err = capsys.readouterr().err
	assert exc.value.code == 1
	assert err == "raagout: error: unrecognized arguments: --mode fast\n"


def test_check_exact_reports_a_failed_lift(capsys, monkeypatch, p3):
	def broken(source, image, dmask, gen):
		raise DomainError("no lift")

	monkeypatch.setattr("raagout.cli.lift_generator", broken)
	code, out, _ = run(capsys, "check-exact", "--graph", p3, "--target", "b")
	lines = out.splitlines()
	fails = [line for line in lines if line.startswith("FAIL lift ")]
	assert code == 1
	assert fails and all(line.endswith(": no lift") for line in fails)
	assert lines[-1] == "%d checks, %d failures" % (len(lines) - 1, len(fails))


def check_exact_lines(capsys, p3):
	code, out, _ = run(capsys, "check-exact", "--graph", p3, "--target", "b")
	return code, out.splitlines()


def test_check_exact_reports_a_lift_that_is_not_inner(capsys, monkeypatch, p3):
	# every lift of a clean run, with its discrepancy declared not inner
	_, clean = check_exact_lines(capsys, p3)
	lifts = [line[len("ok   lift ") :] for line in clean if line.startswith("ok   lift ")]
	assert lifts
	monkeypatch.setattr(
		"raagout.cli.is_inner", lambda ctx, images: InnerResult("no", None, "not a conjugation")
	)
	code, lines = check_exact_lines(capsys, p3)
	assert code == 1
	assert [line for line in lines if " lift " in line] == [
		"FAIL lift %s: not a conjugation" % gen for gen in lifts
	]
	assert lines[-1] == "%d checks, %d failures" % (len(clean) - 1, len(lifts))


def test_check_exact_reports_a_kernel_generator_acting_nontrivially(capsys, monkeypatch, p3):
	_, clean = check_exact_lines(capsys, p3)
	kernel = [line[len("ok   kernel ") :] for line in clean if line.startswith("ok   kernel ")]
	assert kernel
	monkeypatch.setattr("raagout.cli.acts_trivially_word", lambda ctx, phi, dmask: (False, None))
	code, lines = check_exact_lines(capsys, p3)
	assert code == 1
	assert [line for line in lines if " kernel " in line] == [
		"FAIL kernel %s does not act trivially" % gen for gen in kernel
	]
	assert lines[-1] == "%d checks, %d failures" % (len(clean) - 1, len(kernel))


def test_exit_code_domain_errors(capsys, tmp_path, p3):
	code, _, err = run(capsys, "gens", "--graph", str(tmp_path / "missing.json"))
	assert code == 1 and "error" in err
	code, _, err = run(capsys, "invariant", "--graph", p3, "--target", "zz")
	assert code == 1
	bad = tmp_path / "bad.json"
	bad.write_text("{nope")
	code, _, err = run(capsys, "gens", "--graph", str(bad))
	assert code == 1 and "not JSON" in err


def test_exit_code_usage_error_is_1(capsys, p3):
	with pytest.raises(SystemExit) as exc:
		main(["gens", "--graph", p3, "--bogus"])
	capsys.readouterr()
	assert exc.value.code == 1


@pytest.mark.parametrize(
	"command, code",
	[
		("cone-graph", 0),
		("gens", 1),
		("info", 1),
		("vcd", 1),
	],
)
def test_dot_format_only_for_trees_and_graphs(capsys, p3, command, code):
	try:
		got = main([command, "--graph", p3, "--format", "dot"])
	except SystemExit as exc:
		got = exc.code
		assert "invalid choice: 'dot'" in capsys.readouterr().err
	assert got == code


def test_internal_error_exits_3_on_one_line(capsys, monkeypatch, p3):
	def broken(*args, **kwargs):
		raise RuntimeError("complexity failed to decrease")

	monkeypatch.setattr("raagout.cli.decompose", broken)
	code, out, err = run(capsys, "decompose", "--graph", p3)
	assert (code, out) == (3, "")
	assert err == "internal error: complexity failed to decrease\n"


def test_deeply_nested_json_is_a_domain_error(capsys, tmp_path):
	path = tmp_path / "deep.json"
	path.write_text("[" * 100000)
	code, out, err = run(capsys, "info", "--graph", str(path))
	assert (code, out) == (1, "")
	assert "nested too deeply" in err and err.count("\n") == 1


def test_exit_code_capability_limit(capsys, tmp_path):
	# one vertex over SATURATE_CAP
	names = ["v%d" % i for i in range(21)]
	graph = write_json(tmp_path, "f21.json", {"vertices": names, "edges": []})
	periph = write_json(tmp_path, "empty.json", {"G": [], "H": []})
	code, out, err = run(capsys, "saturate", "--graph", graph, "--periph", periph)
	assert (code, out) == (2, "")
	assert err.startswith("capability limit: ") and err.count("\n") == 1


def test_json_nested_deeper_than_the_stack_is_a_capability_limit(capsys, monkeypatch, p3):
	deep = []
	for _ in range(sys.getrecursionlimit()):
		deep = [deep]
	monkeypatch.setattr("raagout.decompose.DecompositionNode.to_json_obj", lambda self: deep)
	code, _, err = run(capsys, "decompose", "--graph", p3, "--format", "json")
	assert code == 2
	assert err.startswith("capability limit: ") and err.count("\n") == 1


def test_vcd_runs_a_script_deeper_than_the_stack(capsys, tmp_path):
	# every vertex pair of the 46-cycle in turn: 1,035 steps, each one a
	# kernel below the last. On a cycle with n >= 5 no vertex dominates
	# another and no star complement splits, so every target is invariant.
	n = 46
	names = ["v%d" % i for i in range(n)]
	edges = [[names[i], names[(i + 1) % n]] for i in range(n)]
	graph = write_json(tmp_path, "c46.json", {"vertices": names, "edges": edges})
	steps = [
		{"op": "restrict", "target": [u, v], "mode": "saturated"}
		for i, u in enumerate(names)
		for v in names[i + 1 :]
	]
	script = write_json(tmp_path, "c46.script.json", steps)
	# CPU time of this process, so a loaded host does not move the verdict
	t0 = time.process_time()
	code, out, err = run(capsys, "vcd", "--graph", graph, "--script", script)
	took = time.process_time() - t0
	assert (code, err) == (0, "")
	assert out.splitlines()[:2] == ["upper: 0", "lower: 0"]
	assert took < 2.0


def test_vcd_fast_step_after_a_saturated_one_past_the_listing_cap(capsys, tmp_path):
	# diamond_chain(8) has 25 vertices: the kernel of the saturated step
	# lists G only when read, and the fast step below it cuts its image's
	# index from the closures, so nothing lists G; it gives what two fast
	# steps give
	from raagout.families import diamond_chain

	graph = write_json(tmp_path, "d8.json", diamond_chain(8).to_json_obj())
	top = {"op": "restrict", "target": ["c7", "a8", "b8", "c8"]}
	rest = {"op": "restrict", "target": ["c0"] + ["%s%d" % (x, i) for i in range(1, 8) for x in "abc"]}
	outs = []
	for first in ("saturated", "fast"):
		steps = [dict(top, mode=first), dict(rest, mode="fast")]
		script = write_json(tmp_path, "d8.%s.json" % first, steps)
		code, out, err = run(capsys, "vcd", "--graph", graph, "--script", script)
		assert (code, err) == (0, "")
		assert out.splitlines()[:2] == ["upper: 31", "lower: 31"]
		outs.append(out)
	assert outs[0] == outs[1]


def test_vcd_projection_below_a_saturated_step_past_the_listing_cap(capsys, tmp_path):
	# the cone over the 21-cycle has 22 vertices: the kernel of the
	# saturated step lists G only when read, and its projection image reads
	# its index off the kernel's, since the complement of the apex is a
	# join target, so nothing lists G; a fast first step gives the same bound
	names = ["v%d" % i for i in range(21)]
	edges = [[names[i], names[(i + 1) % 21]] for i in range(21)] + [[v, "z"] for v in names]
	graph = write_json(tmp_path, "cone.json", {"vertices": names + ["z"], "edges": edges})
	for mode in ("saturated", "fast"):
		steps = [{"op": "restrict", "target": ["z"], "mode": mode}, {"op": "project"}]
		script = write_json(tmp_path, "cone.%s.json" % mode, steps)
		code, out, err = run(capsys, "vcd", "--graph", graph, "--script", script)
		assert (code, err) == (0, "")
		assert out.splitlines()[0] == "upper: 21"


@pytest.mark.parametrize("edges, clique", [(True, 2), (False, 1)])
def test_info_clique_number_past_the_recursion_limit(capsys, tmp_path, edges, clique):
	# a 1,200-vertex path and edgeless graph: the clique search branches
	# once per vertex, deeper than the interpreter's recursion limit
	names = ["v%d" % i for i in range(1200)]
	path = [[names[i], names[i + 1]] for i in range(len(names) - 1)] if edges else []
	graph = write_json(tmp_path, "g.json", {"vertices": names, "edges": path})
	code, out, err = run(capsys, "info", "--graph", graph)
	assert (code, err) == (0, "")
	assert out.splitlines()[1] == "clique number %d" % clique


def test_scripted_leaf_below_an_unlisted_invariant_subgraph_is_refused(capsys, tmp_path):
	# a-d, b-d and an isolated c, with G = H = [cd]: abd is invariant
	# though G does not list it, and some generator restricts to it
	# nontrivially, so the group is not yet terminal
	graph = write_json(
		tmp_path, "g.json", {"vertices": ["a", "b", "c", "d"], "edges": [["a", "d"], ["b", "d"]]}
	)
	periph = write_json(tmp_path, "p.json", {"G": [["c", "d"]], "H": [["c", "d"]]})
	script = write_json(tmp_path, "leaf.json", [{"op": "leaf"}])
	for command in ("decompose", "vcd"):
		code, out, err = run(capsys, command, "--graph", graph, "--periph", periph, "--script", script)
		assert (code, out) == (1, "")
		assert err == (
			"error: script file %s: [0]: restriction to abd is still nontrivial; "
			"restrict first\n" % script
		)


def test_scripted_leaf_at_the_root_of_a_four_path_is_refused(capsys, tmp_path):
	# the absolute four_path(2, 2, 2, 2) folds and certifies at 22, so a
	# root leaf, FreeAbelian(40) from its 40 generators, would claim a rank
	# it does not have
	from raagout.families import four_path

	graph = write_json(tmp_path, "fp.json", four_path(2, 2, 2, 2).to_json_obj())
	script = write_json(tmp_path, "leaf.json", [{"op": "leaf"}])
	code, out, err = run(capsys, "vcd", "--graph", graph, "--script", script)
	assert (code, out) == (1, "")
	assert err.endswith(": [0]: restriction to x1x2 is still nontrivial; restrict first\n")


def test_saturate_cap_flag_is_gone(capsys, p3):
	with pytest.raises(SystemExit) as exc:
		main(["saturate", "--graph", p3, "--cap", "64"])
	assert exc.value.code == 1
	assert "--cap" in capsys.readouterr().err


def test_closed_output_pipe_ends_quietly(tmp_path):
	# K16 with every vertex in H lists 2^16 - 2 + 16 lines, far more than a
	# pipe buffers, so the command is still writing when the reader leaves
	names = ["v%d" % i for i in range(16)]
	edges = [[u, v] for i, u in enumerate(names) for v in names[i + 1 :]]
	graph = write_json(tmp_path, "k16.json", {"vertices": names, "edges": edges})
	periph = write_json(tmp_path, "h16.json", {"G": [], "H": [[v] for v in names]})
	src = str(Path(__file__).resolve().parents[1] / "src")
	proc = subprocess.Popen(
		[sys.executable, "-m", "raagout.cli", "saturate", "--graph", graph, "--periph", periph],
		stdout=subprocess.PIPE,
		stderr=subprocess.PIPE,
		env=dict(os.environ, PYTHONPATH=src),
	)
	assert proc.stdout.readline().startswith(b"G <")
	proc.stdout.close()
	err = proc.stderr.read()
	proc.stderr.close()
	assert proc.wait(timeout=60) == 1
	assert err == b""


def test_saturation_cap_applies_only_to_listing_members(capsys, tmp_path):
	from raagout.families import diamond_chain

	graph = write_json(tmp_path, "d7.json", diamond_chain(7).to_json_obj())
	code, out, _ = run(capsys, "vcd", "--graph", graph)
	assert code == 0
	assert out.startswith("upper: 27\nlower: 27\n")
	# printing the tree prints |G| of the 22-vertex root
	code, out, err = run(capsys, "decompose", "--graph", graph)
	assert (code, out) == (2, "")
	assert err.startswith("capability limit: ") and err.count("\n") == 1


def test_vcd_lower_above_upper_is_an_internal_error(capsys, monkeypatch, tmp_path):
	# both bounds are proofs, so a leaf rule that undercounts is a bug
	monkeypatch.setattr("raagout.vcd.leaf_dimension", lambda shape: (0, "stub"))
	graph = write_json(tmp_path, "f3.json", {"vertices": ["a", "b", "c"], "edges": []})
	gens = write_json(tmp_path, "gens.json", ["trv a^b"])
	code, out, err = run(capsys, "vcd", "--graph", graph, "--gens", gens)
	assert (code, out) == (3, "")
	assert err.startswith("internal error: certified lower bound 1 exceeds the upper bound 0")
	assert err.count("\n") == 1


def test_vcd_cfg_flag_is_gone(capsys, p3):
	with pytest.raises(SystemExit) as exc:
		main(["vcd", "--graph", p3, "--cfg", "x.json"])
	assert exc.value.code == 1
	assert "unrecognized arguments: --cfg x.json" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
	code, out, _ = run(capsys)
	assert code == 1
	assert "command" in out


def test_help_names_info_a_peripheral_pair_summary(capsys):
	with pytest.raises(SystemExit) as exc:
		main(["--help"])
	assert exc.value.code == 0
	lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
	assert "info graph and peripheral pair summary" in lines


@pytest.mark.parametrize(
	"flag, obj, key",
	[
		("--periph", [["a"]], '"G"'),
		("--script", [{"op": "restrict"}], '[0]: missing key "target"'),
		("--script", {"op": "leaf"}, "must be a list, got an object"),
		("--script", ["leaf"], '"op"'),
		("--script", [{"op": "restrict", "target": ["b"], "image": {"op": "leaf"}}], '[0]"image": must be a list'),
		("--periph", {"G": [1]}, '"G"[0]: must be a list, got 1'),
		("--periph", {"H": "ab"}, '"H"'),
		("--script", [{"op": "restrict", "target": "ab"}], '[0]"target": must be a list, got "ab"'),
		("--script", [{"op": "restrict", "target": [["b"]]}], '[0]"target"[0]: must be a string'),
		("--periph", {"g": [["a"]], "h": [["c"]]}, '"g": unknown key'),
		("--script", [{"op": "restrict", "target": ["b"], "moed": "saturated"}], '[0]"moed": unknown key'),
		("--script", [{"op": "restrict", "target": ["b"], "mode": "x"}], '[0]"mode": must be fast or saturated'),
		# a is in the graph but not in the image branch, which only the tree knows
		(
			"--script",
			[{"op": "restrict", "target": ["b"], "image": [{"op": "restrict", "target": ["a"]}]}],
			'[0]"image"[0]"target": unknown vertex \'a\'',
		),
		("--script", [{"op": "restrict", "target": ["a"]}], '[0]"target": restriction target a is not invariant'),
		# a leaf step takes no restrict key, so loading stops before the bogus nested op
		(
			"--script",
			[{"op": "restrict", "target": ["b"], "image": [
				{"op": "leaf", "target": ["b"], "mode": "saturated", "image": [{"op": "bogus"}]},
			]}],
			'[0]"image"[0]"target": only a restrict step takes this key',
		),
		("--script", [{"op": "leaf"}, {"op": "spin"}], '[1]"op": must be restrict, project or leaf'),
	],
	ids=[
		"periph-list", "restrict-no-target", "script-object", "step-not-object", "image-object",
		"member-not-list", "members-string", "target-string", "target-name-not-string",
		"periph-unknown-key", "step-unknown-key", "mode-unknown", "image-target-not-in-image",
		"target-not-invariant", "leaf-with-restrict-keys", "op-unknown",
	],
)
def test_decompose_malformed_input_is_a_domain_error(capsys, tmp_path, p3, flag, obj, key):
	path = write_json(tmp_path, "bad.json", obj)
	code, out, err = run(capsys, "decompose", "--graph", p3, flag, path)
	assert code == 1 and out == ""
	assert err.startswith("error: ") and err.count("\n") == 1
	assert " file %s: " % path in err
	assert key in err


@pytest.mark.parametrize(
	"command, flag, obj, key",
	[
		("info", "--graph", {"vertices": "ab", "edges": []}, '"vertices": must be a list'),
		("info", "--graph", {"vertices": [["a"]], "edges": []}, '"vertices"[0]: must be a string'),
		("info", "--graph", {"vertices": ["a", "b"], "edges": ["ab"]}, '"edges"[0]: must be a list'),
		("info", "--graph", {"vertices": ["a", "b"], "edges": [["a", ["b"]]]}, '"edges"[0][1]: must be a string'),
		("vcd", "--gens", [1, 2], "[0]: must be a string, got 1"),
		("info", "--graph", {"vertices": ["a"], "edges": [], "loops": []}, '"loops": unknown key'),
	],
	ids=[
		"vertices-string", "vertex-not-string", "edge-string", "endpoint-not-string", "gens-ints",
		"graph-unknown-key",
	],
)
def test_malformed_names_are_domain_errors(capsys, tmp_path, p3, command, flag, obj, key):
	path = write_json(tmp_path, "bad.json", obj)
	argv = [command, flag, path] if flag == "--graph" else [command, "--graph", p3, flag, path]
	code, out, err = run(capsys, *argv)
	assert code == 1 and out == ""
	assert err.startswith("error: ") and err.count("\n") == 1
	assert " file %s: " % path in err
	assert key in err


@pytest.mark.parametrize(
	"argv",
	[
		["info"],
		["invariant", "--graph", "g.json"],
		["apply", "--graph", "g.json", "--word", "a"],
	],
	ids=["info-graph", "invariant-target", "apply-gen"],
)
def test_required_flags_are_usage_errors(capsys, argv):
	with pytest.raises(SystemExit) as exc:
		main(argv)
	err = capsys.readouterr().err
	assert exc.value.code == 1
	assert "required" in err and err.count("\n") == 1


def test_apply_word_over_the_letter_cap_is_a_capability_limit(capsys, p3):
	code, out, err = run(capsys, "apply", "--graph", p3, "--gen", "inv a", "--word", "a^1000000000")
	assert (code, out) == (2, "")
	assert err.startswith("capability limit: ") and err.count("\n") == 1


def test_apply_product_over_the_letter_cap_is_a_capability_limit(capsys, monkeypatch, tmp_path):
	# alternating transvections on F2 grow the images like the Fibonacci
	# numbers: past PARSE_CAP after 30 factors, which takes seconds of
	# composing, and past the lowered cap here after 20
	monkeypatch.setattr("raagout.autos.PARSE_CAP", 1 << 14)
	graph = write_json(tmp_path, "f2.json", {"vertices": ["a", "b"], "edges": []})
	gens = []
	for i in range(60):
		gens += ["--gen", "trv b^a" if i % 2 else "trv a^b"]
	code, out, err = run(capsys, "apply", "--graph", graph, *gens, "--word", "a")
	assert (code, out) == (2, "")
	assert err.startswith("capability limit: ") and err.count("\n") == 1


def test_apply_takes_no_periphery(capsys, p3, tmp_path):
	# apply reads no pair, so a periphery file, even a missing one, is a
	# usage error and not silently ignored
	missing = str(tmp_path / "missing.json")
	with pytest.raises(SystemExit) as exc:
		main(["apply", "--graph", p3, "--periph", missing, "--gen", "inv a", "--word", "a"])
	out = capsys.readouterr()
	assert (exc.value.code, out.out) == (1, "")
	assert "unrecognized arguments: --periph" in out.err and out.err.count("\n") == 1


def test_seed_flag_is_gone(capsys, p3):
	with pytest.raises(SystemExit) as exc:
		main(["info", "--graph", p3, "--seed", "1"])
	assert exc.value.code == 1
	assert "--seed" in capsys.readouterr().err


# small inputs by file name, written to a fresh directory per test
EDGE = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
INPUTS = {
	"p3.json": P3,
	"p3-b.json": {"G": [["b"]], "H": [["b"]]},
	"empty.json": {"G": [], "H": []},
	"edge.json": EDGE,
	"edge-ab.json": {"G": [], "H": [["a"], ["b"]]},
	"edge-trv.json": ["trv a^b"],
	"c4.json": {
		"vertices": ["a", "b", "c", "d"],
		"edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
	},
	"d3.json": diamond_chain(3).to_json_obj(),
	"abc.json": {"vertices": ["a", "b", "c"], "edges": []},
	"p3-a.json": {"G": [["a"]], "H": []},
	"p3-sym.json": ["sym (a c)"],
	"c4-rot.json": ["sym (a b c d)"],
	"g5.json": {
		"vertices": ["a", "b", "c", "d", "e"],
		"edges": [["a", "e"], ["b", "d"], ["b", "e"], ["c", "d"], ["c", "e"], ["d", "e"]],
	},
	"g5-mixed.json": [
		{"op": "restrict", "target": ["b", "c", "d", "e"], "mode": "saturated"},
		{
			"op": "restrict",
			"target": ["c", "d", "e"],
			"mode": "fast",
			"image": [{"op": "restrict", "target": ["c"], "mode": "saturated"}],
		},
	],
}

# a fast step below a saturated one: its image lists G cut to <c,d,e>
# with the computed periphery, 4 members, the first time it is read
G5_MIXED_TREE = """\
restrict to <b,c,d,e>  [n=5 |G|=0 |H|=0]
 kernel:
  restrict to <c,d,e>  [n=5 |G|=7 |H|=1]
   kernel:
    project out <e>, kernel rank 1  [n=5 |G|=15 |H|=2]
      leaf FR(factors=[<b,c,d>!], m=1)  [n=4 |G|=7 |H|=2]
   image:
    restrict to <c>  [n=3 |G|=4 |H|=0]
     kernel:
      restrict to <d>  [n=3 |G|=6 |H|=1]
       kernel:
        restrict to <e>  [n=3 |G|=6 |H|=2]
         kernel:
          leaf Trivial  [n=3 |G|=6 |H|=3]
         image:
          leaf GL(1,Z) ext 0  [n=1 |G|=0 |H|=0]
       image:
        leaf GL(1,Z) ext 0  [n=1 |G|=0 |H|=0]
     image:
      leaf GL(1,Z) ext 0  [n=1 |G|=0 |H|=0]
 image:
  restrict to <e>  [n=4 |G|=2 |H|=0]
   kernel:
    restrict to <d,e>  [n=4 |G|=2 |H|=1]
     kernel:
      project out <d,e>, kernel rank 4  [n=4 |G|=3 |H|=2]
        leaf FR(factors=[], m=2)  [n=2 |G|=0 |H|=0]
     image:
      leaf GL(1,Z) ext 1  [n=2 |G|=1 |H|=1]
   image:
    leaf GL(1,Z) ext 0  [n=1 |G|=0 |H|=0]
leaves: FreeAbelian(1); FR(factors=[<b,c,d>!], m=1); Trivial; GL(1,Z) ext 0; \
GL(1,Z) ext 0; GL(1,Z) ext 0; FreeAbelian(4); FR(factors=[], m=2); GL(1,Z) ext 1; \
GL(1,Z) ext 0
"""


@pytest.mark.parametrize(
	"argv, code, out, err",
	[
		(
			["periphery", "--graph", "d3.json", "--target", "c2,a3,b3,c3", "--format", "json"],
			0, '[\n  [\n    "c2"\n  ]\n]\n', "",
		),
		(
			["restrict", "--graph", "p3.json", "--target", "b"],
			0, "kernel: n=3 |G|=1 |H|=1\nimage:  n=1 |G|=0 |H|=0\n", "",
		),
		(
			["info", "--graph", "p3.json", "--periph", "p3-b.json"],
			0,
			"3 vertices, 2 edges, connected\nclique number 2\nclasses: [a,c] [b]\n"
			"G <b>\nH <b>\ncomplexity (3, 7)\n",
			"",
		),
		(["saturate", "--graph", "p3.json", "--periph", "p3-b.json"], 0, "G <b>\nH <b>\n", ""),
		(
			["vcd", "--graph", "edge.json", "--periph", "edge-ab.json", "--gens", "edge-trv.json"],
			1, "", "error: trv a^b is not in the group being bounded\n",
		),
		(
			# the 4-cycle is the diamond chain of length 1, whose list vcd derives
			["vcd", "--graph", "c4.json"],
			0,
			"upper: 2\nlower: 2\n"
			"  root.k.k                 0        free-abelian rank\n"
			"  root.k.i                 1        free group outer\n"
			"  root.i                   1        free group outer\n",
			"",
		),
		(
			["decompose", "--graph", "edge.json", "--periph", "edge-ab.json"],
			0, "leaf Trivial  [n=2 |G|=2 |H|=2]\nleaves: Trivial\n", "",
		),
		(
			["apply", "--graph", "p3.json", "--gen", "inv a", "--word", "a^x"],
			1, "", "error: bad exponent in 'a^x'\n",
		),
		(
			["apply", "--graph", "p3.json", "--gen", "sym ((a c))", "--word", "a"],
			1, "", "error: nested cycle in symmetry\n",
		),
		(
			["apply", "--graph", "p3.json", "--gen", "sym (a c", "--word", "a"],
			1, "", "error: unbalanced cycle in symmetry\n",
		),
		(
			["apply", "--graph", "p3.json", "--gen", "sym (a c))", "--word", "a"],
			1, "", "error: unbalanced cycle in symmetry\n",
		),
		(
			["decompose", "--graph", "edge.json", "--periph", "edge-ab.json", "--format", "json"],
			0,
			json.dumps(
				{
					"graph": EDGE,
					"pair": {"G": [["a"], ["b"]], "H": [["a"], ["b"]]},
					"leaf": {"class": "trivial"},
				},
				indent=2,
				sort_keys=True,
			)
			+ "\n",
			"",
		),
		(
			["decompose", "--graph", "edge.json", "--periph", "edge-ab.json", "--format", "dot"],
			0,
			'digraph decomposition {\n\tnode [shape=box];\n'
			'\tn0 [label="n=2 |G|=2 |H|=2\\nTrivial"];\n}\n',
			"",
		),
		(
			# the inverse of the 3-cycle a -> b -> c -> a sends a to c and b to a
			["apply", "--graph", "abc.json", "--gen", "sym (a b c)^-1", "--word", "a b^2"],
			0, "c a a\n", "",
		),
		(
			# the symmetry moves the member {a} of G onto {c}
			["vcd", "--graph", "p3.json", "--periph", "p3-a.json", "--gens", "p3-sym.json"],
			1, "", "error: sym (a c) is not in the group being bounded\n",
		),
		(
			# the rotation moves the class {a,c} onto {b,d}
			["vcd", "--graph", "c4.json", "--gens", "c4-rot.json"],
			1, "", "error: sym (a b c d) is not in the group being bounded\n",
		),
		(
			# inputs are read graph, periphery, script, generators, target,
			# so the periphery error comes first in every command
			["restrict", "--graph", "p3.json", "--periph", "missing.json", "--target", "z"],
			1, "", "error: periphery file missing.json: cannot read: No such file or directory\n",
		),
		(["invariant", "--graph", "p3.json", "--target", ""], 1, "", "error: unknown vertex ''\n"),
		(["decompose", "--graph", "g5.json", "--script", "g5-mixed.json"], 0, G5_MIXED_TREE, ""),
		(
			["vcd", "--graph", "g5.json", "--script", "g5-mixed.json"],
			0,
			"upper: unknown\nlower: 0\n"
			"  root.k.k.z               1        projection kernel\n"
			"  root.k.k.i               unknown  free product with no formula\n"
			"  root.k.i.k.k.k           0        trivial\n"
			"  root.k.i.k.k.i           0        unipotent block plus extension\n"
			"  root.k.i.k.i             0        unipotent block plus extension\n"
			"  root.k.i.i               0        unipotent block plus extension\n"
			"  root.i.k.k.z             4        projection kernel\n"
			"  root.i.k.k.i             1        free group outer\n"
			"  root.i.k.i               1        unipotent block plus extension\n"
			"  root.i.i                 0        unipotent block plus extension\n",
			"",
		),
		(
			["info", "--graph", "p3.json", "--format", "json"],
			0,
			'{\n  "classes": [\n    [\n      "a",\n      "c"\n    ],\n    [\n      "b"\n    ]\n  ],\n'
			'  "clique_number": 2,\n  "complexity": [\n    3,\n    8\n  ],\n  "connected": true,\n'
			'  "edges": 2,\n  "pair": {\n    "G": [],\n    "H": []\n  },\n'
			'  "vertices": [\n    "a",\n    "b",\n    "c"\n  ]\n}\n',
			"",
		),
		(
			["invariant", "--graph", "p3.json", "--target", "b", "--format", "json"],
			0, '{\n  "invariant": true\n}\n', "",
		),
		(["periphery", "--graph", "d3.json", "--target", "c2,a3,b3,c3"], 0, "<c2>\n", ""),
		(
			["cone-graph", "--graph", "p3.json", "--periph", "empty.json"],
			0,
			"vertices: a b c @G @*\na -- b\na -- @G\na -- @*\nb -- c\nb -- @G\nb -- @*\n"
			"c -- @G\nc -- @*\n",
			"",
		),
		(
			["apply", "--graph", "p3.json", "--gen", "trv a^c", "--word", "a b^-1", "--format", "json"],
			0, '{\n  "image": "a b^-1 c",\n  "word": "a b^-1"\n}\n', "",
		),
	],
	ids=[
		"periphery-json", "restrict-text", "info-with-h", "saturate-with-h",
		"vcd-gen-outside-group", "vcd-four-cycle", "trivial-leaf-text", "apply-bad-exponent",
		"apply-nested-cycle", "apply-open-cycle", "apply-extra-close", "trivial-leaf-json",
		"trivial-leaf-dot", "apply-inverse-symmetry", "vcd-symmetry-moves-a-member",
		"vcd-symmetry-moves-a-class", "periphery-read-before-target", "empty-target",
		"decompose-fast-below-saturated", "vcd-fast-below-saturated", "info-json",
		"invariant-json", "periphery-text", "cone-graph-text", "apply-json",
	],
)
def test_pinned_output(capsys, monkeypatch, tmp_path, argv, code, out, err):
	# a name not in INPUTS, like missing.json, names no file
	monkeypatch.chdir(tmp_path)
	for name, obj in INPUTS.items():
		write_json(tmp_path, name, obj)
	argv = [str(tmp_path / a) if a in INPUTS else a for a in argv]
	assert run(capsys, *argv) == (code, out, err)


def dot_strings(text):
	"""The quoted strings of DOT text with \\\\ and \\" undone; fails on one left open."""
	out = []
	for line in text.splitlines():
		i = line.find('"')
		while i >= 0:
			chars = []
			i += 1
			while True:
				assert i < len(line), "quoted string not closed: %r" % line
				if line[i] == '"':
					break
				if line[i] == "\\" and line[i + 1 : i + 2] in ('"', "\\"):
					i += 1
				chars.append(line[i])
				i += 1
			out.append("".join(chars))
			i = line.find('"', i + 1)
	return out


def test_dot_quotes_names_with_quotes_and_backslashes(capsys, tmp_path):
	# vertex names a"x and b\: DOT needs both escaped inside a quoted string
	ax, b = 'a"x', "b\\"
	path = write_json(tmp_path, "p.json", {"vertices": [ax, b, "c"], "edges": [[ax, b], [b, "c"]]})
	code, out, _ = run(capsys, "cone-graph", "--graph", path, "--format", "dot")
	assert code == 0
	cone = [ax, b, "c", "@G", "@*"]
	edges = [(ax, b), (ax, "@G"), (ax, "@*"), (b, "c"), (b, "@G"), (b, "@*"), ("c", "@G"), ("c", "@*")]
	assert dot_strings(out) == cone + [name for e in edges for name in e]
	code, out, _ = run(capsys, "decompose", "--graph", path, "--format", "dot")
	assert code == 0
	assert dot_strings(out)[0] == "n=3 |G|=1 |H|=0\\nrestrict b\\"
	# an isolated c: the restriction names both letters, the FR leaf holds them
	edge = write_json(tmp_path, "e.json", {"vertices": [ax, b, "c"], "edges": [[ax, b]]})
	code, out, _ = run(capsys, "decompose", "--graph", edge, "--format", "dot")
	assert code == 0
	assert dot_strings(out) == [
		'n=3 |G|=1 |H|=0\\nrestrict a"x,b\\',
		'n=3 |G|=3 |H|=1\\nFR(factors=[<a"x,b\\>!], m=1)',
		"ker",
		"n=2 |G|=0 |H|=0\\nGL(2,Z) ext 0",
		"im",
	]
