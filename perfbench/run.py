"""Layered benchmark for raagout.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
src/ directory; no build step is needed. One caller runs the workload's
instance mix in a closed loop, in whole rounds, until --seconds have passed,
and checks every answer outside the timed region. Workloads are described
in workloads.py, the per-layer tracing in tracing.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones:

- instances_per_s: throughput at the stated mix, the mix size over the sum
  of each kind's median instance time;
- instance_p50_s: the median instance time taken kind by kind: each kind's
  median, then the median of those. The median of the pooled times would
  fall in the gap between two kinds of a two-kind mix and swing with the
  slowest instance of the faster kind;
- setup_s: median of three set-ups, each a fresh import of the package,
  input generation and one untimed warm-up instance of the mix's first kind;
- peak_rss_mb: peak resident memory of the process;
- success_ratio: instances that returned the right answer over instances
  attempted (1 - error ratio; an end-to-end metric must never read 0).

Times are in nominal seconds: see REFERENCE_S. The line before the result
holds the run metadata (revision, cores, Python, seed, kernel kind) and the
same three timings in raw wall seconds.

With --trace 1 the same untraced loop runs first, then one traced round of
the mix, and the metrics are the per-layer ones of tracing.LAYERS; their
times are raw wall seconds. The spans go to
perfbench/out/trace-<workload>-<seed>.json.

Exit codes: 0 with a result line, 2 when the package source is missing.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = tracing.PACKAGE
MODULES = ("graphs", "words", "orders", "autos", "peripheral", "decompose", "vcd", "families")
SETUPS = 3

# The speed of a shared host drifts by a fifth or more over tens of seconds,
# and all the work here drifts together. Each timed region is therefore
# scaled by the speed of a fixed reference loop timed just before and just
# after it: reported times are seconds at the nominal speed, at which one
# reference_work() call takes REFERENCE_S. Raw wall times go on the
# metadata line.
REFERENCE_S = 0.0045


def reference_work():
	"""Fixed work of the kinds the package does: mask arithmetic and list access.

	It allocates no object the garbage collector tracks, so its time does
	not depend on the size of the heap.
	"""
	slots = [0] * 4096
	m = 0x5DEECE66D
	acc = 0
	for _ in range(12000):
		m = (m * 0x5DEECE66D + 11) & 0xFFFFFFFFFFFF
		acc += (m & -m).bit_length()
		slots[m & 4095] ^= m >> 36
	return acc + sum(slots)


def reference_s():
	"""Seconds one reference_work() call takes now, median of three."""
	times = []
	for _ in range(3):
		t0 = time.perf_counter()
		reference_work()
		times.append(time.perf_counter() - t0)
	return statistics.median(times)


def nominal(wall, before, after):
	"""Wall seconds scaled to the nominal speed, from reference times around them."""
	return wall * REFERENCE_S / math.sqrt(before * after)


class Library:
	"""The package's modules, freshly imported."""

	def __init__(self):
		for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
			del sys.modules[name]
		pkg = importlib.import_module(PACKAGE)
		where = Path(pkg.__file__).resolve()
		if SRC.resolve() not in where.parents:
			raise ImportError("%s was imported from %s, not from %s" % (PACKAGE, where, SRC))
		for name in MODULES:
			setattr(self, name, importlib.import_module("%s.%s" % (PACKAGE, name)))


class Tally:
	"""Instance outcomes and timings of one loop."""

	def __init__(self):
		self.attempted = 0
		self.failed = 0
		self.times = {}  # kind label -> nominal seconds per instance
		self.raw = {}  # kind label -> wall seconds per instance
		self.rounds = []  # nominal seconds per whole round
		self.scope = contextlib.nullcontext()  # entered around each timed call

	def run(self, kind, lib):
		"""Run one instance; return its nominal seconds, or None if it failed."""
		args = kind.prepare(lib, kind.graph(lib))
		gc.collect()
		before = reference_s()
		self.attempted += 1
		t0 = time.perf_counter()
		try:
			with self.scope:
				answer = kind.call(lib, args)
		except Exception as exc:  # an instance that raises is a failed instance
			dt = None
			error = "%s: %s" % (type(exc).__name__, exc)
		else:
			dt = time.perf_counter() - t0
			scaled = nominal(dt, before, reference_s())
			error = kind.check(kind, lib, args, answer)
		if error is not None:
			self.failed += 1
			print("FAILED %s: %s" % (kind.label, error), file=sys.stderr)
			return None
		self.raw.setdefault(kind.label, []).append(dt)
		self.times.setdefault(kind.label, []).append(scaled)
		return scaled

	def round(self, kinds, lib):
		total = 0.0
		for kind in kinds:
			dt = self.run(kind, lib)
			total += dt if dt is not None else 0.0
		self.rounds.append(total)
		return total


def setup(name, seed, smoke, tally):
	"""Import the package, build the inputs, run one warm-up instance.

	Returns nominal and wall seconds, the package and the workload's kinds.
	"""
	before = reference_s()
	t0 = time.perf_counter()
	lib = Library()
	kinds = workloads.build(name, lib, seed, smoke)
	tally.run(kinds[0], lib)
	dt = time.perf_counter() - t0
	return nominal(dt, before, reference_s()), dt, lib, kinds


def measure(kinds, lib, seconds, tally):
	start = time.perf_counter()
	while True:
		tally.round(kinds, lib)
		if time.perf_counter() - start >= seconds:
			return


def timing(times, setups):
	"""instances_per_s, instance_p50_s and setup_s from per-kind times."""
	medians = [statistics.median(ts) for ts in times.values()]
	return len(medians) / sum(medians), statistics.median(medians), statistics.median(setups)


def end_to_end(tally, setups):
	per_s, p50, setup_s = timing(tally.times, [scaled for scaled, _ in setups])
	rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
	values = {
		"instances_per_s": (per_s, "1/s"),
		"instance_p50_s": (p50, "s"),
		"setup_s": (setup_s, "s"),
		"peak_rss_mb": (rss, "MB"),
		"success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
	}
	return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_round(name, lib, tally, meta, smoke):
	"""One traced round; return its per-layer metrics and any escape found.

	The round replays the seed's first inputs, so its counts do not depend
	on how many untraced rounds fitted in the run.
	"""
	kinds = workloads.build(name, lib, meta["seed"], smoke)
	tracer = tracing.Tracer()
	tracer.install()
	before = tally.attempted
	tally.scope = tracer
	try:
		traced = tally.round(kinds, lib)
	finally:
		tally.scope = contextlib.nullcontext()
		tracer.remove()
	instances = tally.attempted - before
	untraced = statistics.median(tally.rounds[:-1])
	metrics = tracer.layer_metrics(traced / untraced)
	problems = []
	entry = workloads.ENTRY[name]
	if tracer.calls(entry) != instances:
		problems.append(
			"%s ran %d times for %d instances" % (entry, tracer.calls(entry), instances)
		)
	if name == "decompose" and metrics["words.calls"]:
		problems.append("decompose called the word kernel %d times" % metrics["words.calls"])
	out = HERE / "out"
	out.mkdir(exist_ok=True)
	tracer.dump(out / ("trace-%s-%d.json" % (name, meta["seed"])), meta)
	return metrics, problems


def git_revision():
	"""HEAD of the checkout read from .git, or "unknown" outside a repository."""
	git = ROOT / ".git"
	try:
		head = (git / "HEAD").read_text().strip()
		if not head.startswith("ref: "):
			return head
		ref = head[len("ref: ") :]
		if (git / ref).is_file():
			return (git / ref).read_text().strip()
		for line in (git / "packed-refs").read_text().splitlines():
			if line.endswith(" " + ref):
				return line.split()[0]
	except OSError:
		pass
	return "unknown"


def metadata(lib, seed, name):
	digest = hashlib.sha256()
	for path in sorted((SRC / PACKAGE).glob("*.py")):
		digest.update(path.name.encode())
		digest.update(path.read_bytes())
	return {
		"workload": name,
		"seed": seed,
		"git_revision": git_revision(),
		"source_sha256": digest.hexdigest(),
		"nproc": os.cpu_count(),
		"cores_usable": len(os.sched_getaffinity(0)),
		"python": platform.python_version(),
		"kernel_kind": getattr(lib.words, "KERNEL_KIND", "pure"),
	}


def parse_args(argv):
	ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
	ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
	ap.add_argument("--seed", type=int, required=True)
	ap.add_argument("--seconds", type=float, required=True)
	ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
	ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
	return ap.parse_args(argv)


def main(argv=None):
	args = parse_args(argv)
	if not (SRC / PACKAGE / "__init__.py").is_file():
		print("no package source at %s" % (SRC / PACKAGE), file=sys.stderr)
		return 2
	sys.path.insert(0, str(SRC))
	tally = Tally()
	setups = []
	for _ in range(SETUPS):
		scaled, wall, lib, kinds = setup(args.workload, args.seed, args.smoke, tally)
		setups.append((scaled, wall))
	tally.times = {}
	tally.raw = {}
	tally.rounds = []
	measure(kinds, lib, args.seconds, tally)
	meta = metadata(lib, args.seed, args.workload)
	problems = []
	if args.trace:
		metrics, problems = traced_round(args.workload, lib, tally, meta, args.smoke)
		metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()}
	else:
		metrics = end_to_end(tally, setups)
	for problem in problems:
		print("TRACE %s" % problem, file=sys.stderr)
	wall = timing(tally.raw, [w for _, w in setups])
	wall = dict(zip(("instances_per_s", "instance_p50_s", "setup_s"), wall))
	print(json.dumps({"meta": meta, "wall": wall}))
	result = {
		"correct": tally.failed == 0 and not problems,
		"attempted": tally.attempted,
		"failed": tally.failed,
		"metrics": metrics,
	}
	print(json.dumps(result))
	return 0


if __name__ == "__main__":
	sys.exit(main())
