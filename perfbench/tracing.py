"""Per-layer tracing of raagout from outside the program.

The tracer wraps public functions of the library's modules. A wrapper is
installed on every module or class attribute that binds the wrapped
function, so calls through names imported with ``from .x import f`` are
seen too. Each wrapped call records its name, start, end and parent span;
spans stay in memory until the run writes them out. A function's self time
is its duration minus the durations of the wrapped calls made inside it.

Three kinds of wrapper:

- ``span``: records a span, a call count and self time.
- ``hot``: functions called far more than 1e5 times per run; call count and
  self time only, no span, so tracing stays affordable.
- ``count``: call count and counters only; its time stays with its caller.

The untraced run never installs a wrapper.
"""

import json
import sys
import time
from collections import Counter

PACKAGE = "raagout"

# (layer, owner, attribute, kind). The owner is a module of the package, or
# "module.Class" for a method. Layers are the package's module names.
WRAPPED = [
	("words", "words.WordContext", "reduce", "hot"),
	("words", "words.WordContext", "canonical", "hot"),
	("words", "words.WordContext", "cyc_reduce", "hot"),
	("words", "words.WordContext", "apply_map", "hot"),
	("words", "words.WordContext", "strip_front", "hot"),
	("autos", "autos", "is_inner", "span"),
	("autos", "autos.Automorphism", "compose", "hot"),
	("autos", "autos", "enumerate_generators", "span"),
	("autos", "autos", "gen_in_relative", "hot"),
	("orders", "orders", "leq_rel", "hot"),
	("orders", "orders", "g_adjacent", "hot"),
	("orders", "orders", "g_components", "hot"),
	("orders", "orders", "gv_components", "hot"),
	("orders", "orders", "n_g", "hot"),
	("orders", "orders", "blocked_masks", "hot"),
	("peripheral", "peripheral", "saturate", "span"),
	("peripheral", "peripheral", "_invariant_scan", "count"),
	("peripheral", "peripheral", "is_invariant", "span"),
	("peripheral", "peripheral", "fast_periphery", "span"),
	("decompose", "decompose", "decompose", "span"),
	("decompose", "decompose.GroupDescriptor", "gens", "hot"),
	("decompose", "decompose", "restriction_step", "span"),
	("decompose", "decompose", "projection_step", "span"),
	("decompose", "decompose", "classify_irreducible", "span"),
	("decompose", "decompose", "restriction_nontrivial", "hot"),
	("vcd", "vcd", "fold", "span"),
	("vcd", "vcd", "certify_abelian_lower_bound", "span"),
	("vcd", "vcd", "certify_nilpotent_lower_bound", "span"),
	("vcd", "vcd", "vcd_report", "span"),
]

CERTIFY = ("vcd.certify_abelian_lower_bound", "vcd.certify_nilpotent_lower_bound")

# Per-layer metrics as (name, unit, better), and the workload whose
# end-to-end numbers each layer should move. graphs.bits (about 2e7 calls
# per decompose round) and families (input building, covered by setup_s)
# stay unwrapped: bits shows up in its callers' self time.
LAYERS = {
	"words": {
		"metrics": [
			("words.calls", "count", "lower"),
			("words.letters_in", "count", "lower"),
			("words.self_s", "s", "lower"),
		],
		"moves": "certify throughput; about 0 on decompose and saturate",
	},
	"autos": {
		"metrics": [
			("autos.is_inner.calls", "count", "lower"),
			("autos.is_inner.self_s", "s", "lower"),
			("autos.is_inner.yes_ratio", "ratio", "higher"),
			("autos.compose.calls", "count", "lower"),
			("autos.compose.self_s", "s", "lower"),
			("autos.enumerate_generators.calls", "count", "lower"),
			("autos.enumerate_generators.self_s", "s", "lower"),
			("autos.generators_out", "count", "lower"),
			("autos.gen_in_relative.calls", "count", "lower"),
		],
		"moves": "is_inner and compose: certify; enumeration: decompose",
	},
	"orders": {
		"metrics": [
			("orders.g_components.calls", "count", "lower"),
			("orders.g_components.self_s", "s", "lower"),
			("orders.members_scanned", "count", "lower"),
			("orders.leq_rel.calls", "count", "lower"),
		],
		"moves": "decompose instance_p50_s; small on saturate",
	},
	"peripheral": {
		"metrics": [
			("peripheral.saturate.calls", "count", "lower"),
			("peripheral.saturate.self_s", "s", "lower"),
			("peripheral.masks_scanned", "count", "lower"),
			("peripheral.invariant_found", "count", "lower"),
			("peripheral.scan_yield", "ratio", "higher"),
			("peripheral.g_members_mean", "count", "lower"),
			("peripheral.is_invariant.calls", "count", "lower"),
			("peripheral.fast_periphery.calls", "count", "lower"),
		],
		"moves": "saturate most; decompose in part",
	},
	"decompose": {
		"metrics": [
			("decompose.nodes.restrict", "count", "lower"),
			("decompose.nodes.project", "count", "lower"),
			("decompose.nodes.leaf", "count", "lower"),
			("decompose.gens_calls", "count", "lower"),
			("decompose.gens_cache_ratio", "ratio", "lower"),
			("decompose.restriction_nontrivial.calls", "count", "lower"),
			("decompose.restriction_step.self_s", "s", "lower"),
			("decompose.self_s", "s", "lower"),
		],
		"moves": "decompose",
	},
	"vcd": {
		"metrics": [
			("vcd.certify.self_s", "s", "lower"),
			("vcd.certify.is_inner_calls", "count", "lower"),
			("vcd.fold.self_s", "s", "lower"),
		],
		"moves": "certify; vcd.fold about 0 on decompose",
	},
	"trace": {
		"metrics": [("trace.overhead_ratio", "ratio", "lower")],
		"moves": "nothing: traced over untraced wall time of one round",
	},
}

UNITS = {name: unit for layer in LAYERS.values() for name, unit, _ in layer["metrics"]}


def _len_arg(args, kwargs, pos, key):
	val = args[pos] if len(args) > pos else kwargs.get(key)
	return len(val) if hasattr(val, "__len__") else 0


def _words_hook(extra, args, kwargs, result):
	extra["words.letters_in"] += _len_arg(args, kwargs, 1, "letters")


def _members_hook(extra, args, kwargs, result):
	extra["orders.members_scanned"] += _len_arg(args, kwargs, 1, "members")


def _pair_members(extra, args, kwargs):
	pp = args[0] if args else kwargs.get("pp")
	extra["peripheral.pair_calls"] += 1
	extra["peripheral.pair_members"] += len(pp.g_members)


def _pair_hook(extra, args, kwargs, result):
	_pair_members(extra, args, kwargs)


def _saturate_hook(extra, args, kwargs, result):
	_pair_members(extra, args, kwargs)
	extra["peripheral.invariant_found"] += len(result.g_members)


def _scan_hook(extra, args, kwargs, result):
	graph = args[0] if args else kwargs["graph"]
	# the exhaustive scan visits every mask strictly between 0 and full
	extra["peripheral.masks_scanned"] += graph.full - 1


def _inner_hook(extra, args, kwargs, result):
	extra["autos.is_inner.yes"] += result.status == "yes"


def _enumerate_hook(extra, args, kwargs, result):
	extra["autos.generators_out"] += len(result)


HOOKS = {
	"words": _words_hook,
	"orders": _members_hook,
	"peripheral.saturate": _saturate_hook,
	"peripheral._invariant_scan": _scan_hook,
	"peripheral.is_invariant": _pair_hook,
	"peripheral.fast_periphery": _pair_hook,
	"autos.is_inner": _inner_hook,
	"autos.enumerate_generators": _enumerate_hook,
}


class Tracer:
	"""Wraps library functions, records spans and counts while active."""

	def __init__(self):
		self.active = False
		self.stats = {}  # span name -> [calls, self seconds]
		self.extra = Counter()
		self.spans = []  # (id, parent id, name, start, end)
		self.missing = []
		self._next_id = 0
		self._stack = [[0.0, -1]]  # frames: [wrapped child time, span id]
		self._installed = []  # (owner, attribute, original)
		self._wrappers = {}  # id(wrapper) -> wrapper

	def __enter__(self):
		self.active = True
		return self

	def __exit__(self, *exc):
		self.active = False

	# ---- installation ----

	def _modules(self):
		return [
			mod
			for name, mod in sorted(sys.modules.items())
			if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
		]

	def _owners(self):
		"""Every module of the package and every class defined in one."""
		out = []
		seen = set()
		for mod in self._modules():
			out.append(mod)
			for val in vars(mod).values():
				if (
					isinstance(val, type)
					and (val.__module__ or "").startswith(PACKAGE + ".")
					and id(val) not in seen
				):
					seen.add(id(val))
					out.append(val)
		return out

	def install(self):
		if self._installed:
			raise RuntimeError("tracer is already installed")
		originals = {}
		for layer, owner, attr, kind in WRAPPED:
			mod_name, _, cls_name = owner.partition(".")
			mod = sys.modules.get("%s.%s" % (PACKAGE, mod_name))
			holder = getattr(mod, cls_name, None) if cls_name else mod
			fn = vars(holder).get(attr) if holder is not None else None
			name = "%s.%s" % (owner, attr)
			if not callable(fn):
				self.missing.append(name)
				continue
			hook = HOOKS.get(name) or HOOKS.get(layer)
			originals[id(fn)] = (fn, self._wrap(name, fn, kind, hook))
		for owner in self._owners():
			for attr, val in list(vars(owner).items()):
				hit = originals.get(id(val))
				if hit is not None and hit[0] is val:
					setattr(owner, attr, hit[1])
					self._installed.append((owner, attr, val))
		left = self._bindings(lambda val: id(val) in originals)
		if left:
			raise RuntimeError("unwrapped bindings left: %s" % ", ".join(left))

	def remove(self):
		for owner, attr, original in reversed(self._installed):
			setattr(owner, attr, original)
		self._installed = []
		left = self._bindings(lambda val: id(val) in self._wrappers)
		if left:
			raise RuntimeError("wrappers left after removal: %s" % ", ".join(left))
		self._wrappers = {}

	def _bindings(self, pred):
		return [
			"%s.%s" % (getattr(owner, "__name__", owner), attr)
			for owner in self._owners()
			for attr, val in vars(owner).items()
			if pred(val)
		]

	def _wrap(self, name, fn, kind, hook):
		stats = self.stats.setdefault(name, [0, 0.0])
		extra = self.extra
		stack = self._stack
		spans = self.spans
		clock = time.perf_counter
		tracer = self

		if kind == "count":

			def wrapper(*args, **kwargs):
				result = fn(*args, **kwargs)
				if tracer.active:
					stats[0] += 1
					if hook is not None:
						hook(extra, args, kwargs, result)
				return result

		else:
			spanned = kind == "span"

			def wrapper(*args, **kwargs):
				if not tracer.active:
					return fn(*args, **kwargs)
				parent = stack[-1][1]
				if spanned:
					sid = tracer._next_id
					tracer._next_id = sid + 1
				else:
					sid = parent
				frame = [0.0, sid]
				stack.append(frame)
				t0 = clock()
				try:
					result = fn(*args, **kwargs)
				finally:
					t1 = clock()
					stack.pop()
					dt = t1 - t0
					stack[-1][0] += dt
					stats[0] += 1
					stats[1] += dt - frame[0]
					if spanned:
						spans.append((sid, parent, name, t0, t1))
				if hook is not None:
					hook(extra, args, kwargs, result)
				return result

		wrapper.__name__ = getattr(fn, "__name__", name)
		wrapper.__qualname__ = getattr(fn, "__qualname__", name)
		wrapper.__doc__ = fn.__doc__
		wrapper.__wrapped__ = fn
		self._wrappers[id(wrapper)] = wrapper
		return wrapper

	# ---- results ----

	def calls(self, name):
		return self.stats.get(name, (0, 0.0))[0]

	def self_s(self, name):
		return self.stats.get(name, (0, 0.0))[1]

	def calls_under(self, name, ancestors):
		"""Spans of name that have a span named in ancestors above them."""
		by_id = {s[0]: s for s in self.spans}
		count = 0
		for sid, parent, sname, _, _ in self.spans:
			if sname != name:
				continue
			while parent >= 0:
				up = by_id[parent]
				if up[2] in ancestors:
					count += 1
					break
				parent = up[1]
		return count

	def layer_metrics(self, overhead_ratio):
		c, s, x = self.calls, self.self_s, self.extra
		words = ["%s.%s" % (o, a) for _, o, a, _ in WRAPPED if o.startswith("words.")]
		inner = c("autos.is_inner")
		gens = c("decompose.GroupDescriptor.gens")
		scanned = x["peripheral.masks_scanned"]
		pair_calls = x["peripheral.pair_calls"]
		out = {
			"words.calls": sum(c(n) for n in words),
			"words.letters_in": x["words.letters_in"],
			"words.self_s": sum(s(n) for n in words),
			"autos.is_inner.calls": inner,
			"autos.is_inner.self_s": s("autos.is_inner"),
			"autos.is_inner.yes_ratio": x["autos.is_inner.yes"] / inner if inner else 0.0,
			"autos.compose.calls": c("autos.Automorphism.compose"),
			"autos.compose.self_s": s("autos.Automorphism.compose"),
			"autos.enumerate_generators.calls": c("autos.enumerate_generators"),
			"autos.enumerate_generators.self_s": s("autos.enumerate_generators"),
			"autos.generators_out": x["autos.generators_out"],
			"autos.gen_in_relative.calls": c("autos.gen_in_relative"),
			"orders.g_components.calls": c("orders.g_components"),
			"orders.g_components.self_s": s("orders.g_components"),
			"orders.members_scanned": x["orders.members_scanned"],
			"orders.leq_rel.calls": c("orders.leq_rel"),
			"peripheral.saturate.calls": c("peripheral.saturate"),
			"peripheral.saturate.self_s": s("peripheral.saturate"),
			"peripheral.masks_scanned": scanned,
			"peripheral.invariant_found": x["peripheral.invariant_found"],
			"peripheral.scan_yield": (
				x["peripheral.invariant_found"] / scanned if scanned else 0.0
			),
			"peripheral.g_members_mean": (
				x["peripheral.pair_members"] / pair_calls if pair_calls else 0.0
			),
			"peripheral.is_invariant.calls": c("peripheral.is_invariant"),
			"peripheral.fast_periphery.calls": c("peripheral.fast_periphery"),
			"decompose.nodes.restrict": c("decompose.restriction_step"),
			"decompose.nodes.project": c("decompose.projection_step"),
			"decompose.nodes.leaf": c("decompose.classify_irreducible"),
			"decompose.gens_calls": gens,
			"decompose.gens_cache_ratio": (
				c("autos.enumerate_generators") / gens if gens else 0.0
			),
			"decompose.restriction_nontrivial.calls": c("decompose.restriction_nontrivial"),
			"decompose.restriction_step.self_s": s("decompose.restriction_step"),
			"decompose.self_s": s("decompose.decompose"),
			"vcd.certify.self_s": sum(s(n) for n in CERTIFY),
			"vcd.certify.is_inner_calls": self.calls_under("autos.is_inner", CERTIFY),
			"vcd.fold.self_s": s("vcd.fold"),
			"trace.overhead_ratio": overhead_ratio,
		}
		return out

	def dump(self, path, meta):
		"""Write the spans as JSON: names once, then one row per span."""
		names = sorted({s[2] for s in self.spans})
		index = {n: i for i, n in enumerate(names)}
		t0 = min((s[3] for s in self.spans), default=0.0)
		rows = [
			[sid, parent, index[name], round(start - t0, 7), round(end - t0, 7)]
			for sid, parent, name, start, end in sorted(self.spans)
		]
		obj = {
			"meta": meta,
			"missing": self.missing,
			"counts": {n: {"calls": v[0], "self_s": v[1]} for n, v in sorted(self.stats.items())},
			"names": names,
			"span_columns": ["id", "parent", "name", "start_s", "end_s"],
			"spans": rows,
		}
		with open(path, "w") as fp:
			json.dump(obj, fp, separators=(",", ":"))
