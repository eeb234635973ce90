"""Self-tests of the benchmark on smoke sizes; they finish in seconds.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

NAMES = sorted(workloads.WORKLOADS)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def lib():
	"""A fresh import: run.main() re-imports the package, leaving older modules stale."""
	if str(run.SRC) not in sys.path:
		sys.path.insert(0, str(run.SRC))
	return run.Library()


def result_of(capsys, *argv):
	assert run.main(list(argv)) == 0
	return json.loads(capsys.readouterr().out.splitlines()[-1])


def answer_of(kind, lib):
	args = kind.prepare(lib, kind.graph(lib))
	answer = kind.call(lib, args)
	assert kind.check(kind, lib, args, answer) is None
	if hasattr(answer, "g_members"):
		return len(answer.g_members)
	if hasattr(answer, "lower"):
		return answer.upper, answer.lower
	return answer


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(capsys, name):
	res = result_of(capsys, "--workload", name, "--seed", "3", "--seconds", "0.2", "--smoke")
	assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
	want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
	assert {k: v["unit"] for k, v in res["metrics"].items()} == want
	assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_removes_wrappers(capsys, lib, name):
	res = result_of(
		capsys, "--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", "1", "--smoke"
	)
	assert res["correct"], "a call escaped the wrappers"
	metrics = {k: v["value"] for k, v in res["metrics"].items()}
	want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
	assert {k: v["unit"] for k, v in res["metrics"].items()} == want
	for mod_name, mod in list(sys.modules.items()):
		if mod_name.startswith("raagout."):
			assert not any(hasattr(val, "__wrapped__") for val in vars(mod).values())
	if name == "certify":
		assert metrics["words.calls"] > 0
	else:
		assert metrics["words.calls"] == 0
	if name == "saturate":
		assert metrics["peripheral.saturate.calls"] == 2


@pytest.mark.parametrize("name", NAMES)
def test_altered_expected_answer_trips_the_checker(lib, name):
	for kind in workloads.build(name, lib, seed=5, smoke=True):
		tally = run.Tally()
		assert tally.run(kind, lib) is not None
		kind.expected += 1
		assert tally.run(kind, lib) is None
		assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("name", NAMES)
def test_three_seeds_give_the_same_answers(lib, name):
	answers = []
	for seed in (1, 2, 3):
		kinds = workloads.build(name, lib, seed, smoke=True)
		answers.append([answer_of(kind, lib) for kind in kinds])
	assert answers[0] == answers[1] == answers[2]


def vertex_orders(lib, seed, draws=3):
	kinds = workloads.build("certify", lib, seed, smoke=True)
	return [kind.graph(lib).vertices for kind in kinds for _ in range(draws)]


def test_seed_fixes_the_relabelled_inputs(lib):
	assert vertex_orders(lib, 9) == vertex_orders(lib, 9)
	assert vertex_orders(lib, 9) != vertex_orders(lib, 10)
	assert len(set(vertex_orders(lib, 9))) > 2, "instances do not get fresh labels"


def test_tracer_counts_calls_through_imported_names(lib):
	graph = lib.families.diamond_chain(2)
	desc = lib.decompose.GroupDescriptor.absolute(graph)
	tracer = tracing.Tracer()
	tracer.install()
	try:
		# decompose.py binds saturate and enumerate_generators by name
		with tracer:
			lib.decompose.decompose(desc)
	finally:
		tracer.remove()
	assert tracer.calls("peripheral.saturate") > 0
	assert tracer.calls("autos.enumerate_generators") > 0
	assert tracer.calls("decompose.decompose") == 1
	assert not hasattr(lib.decompose.saturate, "__wrapped__")
	assert not hasattr(lib.words.WordContext.reduce, "__wrapped__")


def test_benchmark_json_matches_the_layer_table():
	spec = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
	table = [m for layer in tracing.LAYERS.values() for m in layer["metrics"]]
	assert spec == table
	assert {w["name"] for w in SPEC["workloads"]} == set(NAMES)


def test_exits_nonzero_without_the_package(tmp_path):
	shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
	ignore = shutil.ignore_patterns("out", "__pycache__")
	shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=ignore)
	argv = ["--workload", "saturate", "--seed", "1", "--seconds", "1", "--trace", "0"]
	proc = subprocess.run(
		[sys.executable, "%s/run.py" % run.HERE.name] + argv,
		cwd=tmp_path,
		capture_output=True,
		text=True,
		timeout=180,
	)
	assert proc.returncode != 0
	assert '"correct"' not in proc.stdout
