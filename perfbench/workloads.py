"""Workloads of the raagout benchmark: seeded inputs, the timed call, the check.

Each workload is a mix of instance kinds run in a fixed order, one after the
other, by a single caller (a closed loop). A kind names a family graph, the
public call made on it and its expected answer. Every instance gets a fresh
relabelling of its family graph, drawn from the seed: the vertex order is
shuffled and the names are kept, so the decomposition scripts still apply,
and the answers, which have closed forms in the family parameters, do not
change. The program only ever sees relabelled graphs. Vertex order moves
the time of one saturate instance by up to a third (the scan exits early at
different masks), so a run averages over many orders.

Why these workloads:

- decompose: upper bounds through decomposition trees. Saturated pairs
  average over a thousand members, so the time goes to orders.g_components,
  generator enumeration and the pivot search; the word kernel is not called.
- saturate: absolute pairs have few members and the 2^n mask scan
  dominates, with a yield as low as 5 / 2^19. A per-pair order index would
  move decompose but not this workload.
- certify: the full upper-plus-lower call. The word kernel, rational
  arithmetic and is_inner dominate; peripheral and orders are about 0.
"""

import random


def four_path_dimension(p, q, r, s):
	"""vcd of the absolute four-path group, as the source paper derives it.

	Kept apart from the package's own copy, so a change there cannot move
	the expected answer along with the computed one.
	"""
	return (
		q * (q - 1) // 2
		+ r * (r - 1) // 2
		+ r * s
		+ p * q
		+ q * (2 * s - 1)
		+ r * (2 * p - 1)
	)


def diamond_invariant_count(d):
	"""Proper invariant subgraphs of the absolute diamond chain of d diamonds.

	8d^2 - 4d - 6 for d >= 2; every count is re-checked mask by mask against
	is_invariant, so a wrong formula shows as a failed instance.
	"""
	return 2 if d == 1 else 8 * d * d - 4 * d - 6


# Four-path graphs have exactly five invariant subgraphs: the two middle
# cliques, their union, and that union with either free end class.
FOUR_PATH_INVARIANT = 5

# Rejected masks re-checked against is_invariant after each saturate call.
REJECTED_SAMPLE = 32


class Kind:
	"""One instance kind: a family graph, the call and its check.

	Every instance gets a fresh relabelling of the graph, drawn from the
	kind's own random stream, so a run averages over many vertex orders and
	the same seed replays the same inputs.
	"""

	def __init__(self, label, family, expected, prepare, call, check):
		self.label = label
		self.family = family  # lib -> DefiningGraph in the family function's order
		self.expected = expected
		self.prepare = prepare  # (lib, graph) -> call arguments, untimed
		self.call = call  # (lib, args) -> answer, timed
		self.check = check  # (kind, lib, args, answer) -> error text or None
		self.vertices = None
		self.edges = None
		self.rng = None

	def seed(self, lib, rng):
		obj = self.family(lib).to_json_obj()
		self.vertices = obj["vertices"]
		self.edges = obj["edges"]
		self.rng = random.Random(rng.getrandbits(64))

	def graph(self, lib):
		"""The next relabelled graph: shuffled vertex order, same names."""
		order = list(self.vertices)
		self.rng.shuffle(order)
		return lib.graphs.DefiningGraph(order, self.edges)


# ---- decompose ----


def _decompose_kind(label, family, expected, script=None):
	def prepare(lib, graph):
		desc = lib.decompose.GroupDescriptor.absolute(graph)
		return desc, script(lib) if script else None

	def call(lib, args):
		desc, steps = args
		mode = "auto" if steps is None else "script"
		return lib.vcd.vcd_upper(lib.decompose.decompose(desc, mode=mode, script=steps))

	def check(kind, lib, args, answer):
		if answer != kind.expected:
			return "upper bound %r, expected %r" % (answer, kind.expected)
		return None

	return Kind(label, family, expected, prepare, call, check)


def _decompose(smoke):
	# diamond_chain(5) scripted runs the same code as diamond_chain(4)
	# scripted but takes 7 s, which leaves too few instances in a run for a
	# steady median.
	d_auto, d_script, fp = (2, 3, (1, 1, 1, 1)) if smoke else (4, 4, (4, 4, 4, 4))
	return [
		_decompose_kind(
			"diamond_chain(%d) auto" % d_auto,
			lambda lib: lib.families.diamond_chain(d_auto),
			4 * d_auto - 1,
		),
		_decompose_kind(
			"four_path%r auto" % (fp,),
			lambda lib: lib.families.four_path(*fp),
			four_path_dimension(*fp),
		),
		_decompose_kind(
			"diamond_chain(%d) script" % d_script,
			lambda lib: lib.families.diamond_chain(d_script),
			4 * d_script - 1,
			script=lambda lib: lib.families.diamond_script(d_script),
		),
	]


# ---- saturate ----


def _saturate_check(kind, lib, args, answer):
	(pp,) = args
	found = set(answer.g_members)
	if len(found) != kind.expected:
		return "%d invariant subgraphs, expected %d" % (len(found), kind.expected)
	is_invariant = lib.peripheral.is_invariant
	for m in sorted(found):
		if not is_invariant(pp, m):
			return "saturate added the non-invariant mask %#x" % m
	full = pp.graph.full
	sample = [kind.rng.randrange(1, full) for _ in range(REJECTED_SAMPLE)]
	for m in sample:
		if m not in found and is_invariant(pp, m):
			return "saturate missed the invariant mask %#x" % m
	return None


def _saturate_kind(label, family, expected):
	def prepare(lib, graph):
		return (lib.peripheral.PeripheralPair(graph, [], []).normalize(),)

	def call(lib, args):
		return lib.peripheral.saturate(args[0])

	return Kind(label, family, expected, prepare, call, _saturate_check)


def _saturate(smoke):
	d, fp = (3, (1, 1, 1, 1)) if smoke else (6, (5, 5, 4, 5))
	return [
		_saturate_kind(
			"four_path%r" % (fp,),
			lambda lib: lib.families.four_path(*fp),
			FOUR_PATH_INVARIANT,
		),
		_saturate_kind(
			"diamond_chain(%d)" % d,
			lambda lib: lib.families.diamond_chain(d),
			diamond_invariant_count(d),
		),
	]


# ---- certify ----


def _certify_check(kind, lib, args, answer):
	got = (answer.upper, answer.lower)
	if got != (kind.expected, kind.expected):
		return "upper/lower %r, expected %d/%d" % (got, kind.expected, kind.expected)
	return None


def _certify(smoke):
	d, fp = (2, (1, 1, 1, 1)) if smoke else (3, (2, 2, 2, 2))

	def diamond_prepare(lib, graph):
		return lib.decompose.GroupDescriptor.absolute(graph), {}

	def four_path_prepare(lib, graph):
		fam = lib.families
		kwargs = {
			"script": fam.four_path_script(*fp),
			"gens": fam.four_path_generators(graph, *fp),
			"nilpotent": True,
		}
		return lib.decompose.GroupDescriptor.absolute(graph), kwargs

	def call(lib, args):
		desc, kwargs = args
		return lib.vcd.vcd_report(desc, **kwargs)

	return [
		Kind(
			"diamond_chain(%d) vcd_report" % d,
			lambda lib: lib.families.diamond_chain(d),
			4 * d - 1,
			diamond_prepare,
			call,
			_certify_check,
		),
		Kind(
			"four_path%r vcd_report nilpotent" % (fp,),
			lambda lib: lib.families.four_path(*fp),
			four_path_dimension(*fp),
			four_path_prepare,
			call,
			_certify_check,
		),
	]


WORKLOADS = {"decompose": _decompose, "saturate": _saturate, "certify": _certify}

# The public function each instance calls exactly once; the traced run
# checks its call count against the instance count.
ENTRY = {
	"decompose": "decompose.decompose",
	"saturate": "peripheral.saturate",
	"certify": "vcd.vcd_report",
}


def build(name, lib, seed, smoke=False):
	"""The workload's kinds, in mix order, with input streams drawn from seed."""
	kinds = WORKLOADS[name](smoke)
	rng = random.Random(seed)
	for kind in kinds:
		kind.seed(lib, rng)
	return kinds
