"""Command line surface.

Each command reads JSON files, writes deterministic text, JSON, or DOT to
stdout, and exits 0 on success, 1 on a domain error, 2 when a hard
capability limit is hit, and 3 when an internal consistency check fails,
which is a bug in the package, not in the input. When the reader of stdout
closes it early (as `| head` does), the command stops quietly with exit 1.
"""

import argparse
import json
import os
import sys

from .autos import (
	acts_trivially_word,
	enumerate_generators,
	is_inner,
	parse_generator,
	product_of,
	realize,
)
from .decompose import (
	RESTRICT_DEFAULT,
	RESTRICT_MODES,
	SATURATED,
	decompose,
	dot_escape,
	group_to_json_obj,
	lift_generator,
	restriction_step,
	tree_dot,
	tree_text,
	word_restriction,
)
from .errors import CapabilityError, DomainError, ScriptError
from .load import build_generators, build_graph, build_pair, build_script, load
from .peripheral import (
	PeripheralPair,
	cone_graph,
	fast_periphery,
	is_invariant,
	saturate,
)
from .vcd import bound_to_json_obj, vcd_report
from .words import WordContext


def _graph(args):
	return load(args.graph, "graph", build_graph)


def _pair(graph, args):
	return load(args.periph, "periphery", build_pair, graph) if args.periph else PeripheralPair(graph)


def _target_mask(graph, args):
	return graph.mask([name.strip() for name in args.target.split(",")])


def _member(graph, mask):
	return "<%s>" % ",".join(graph.names(mask))


def _emit_json(obj):
	try:
		json.dump(obj, sys.stdout, indent=2, sort_keys=True)
	except RecursionError:
		raise CapabilityError("output is nested too deeply to write as JSON") from None
	print()


def _graph_dot(graph):
	obj = graph.to_json_obj()
	lines = ["graph G {"]
	lines.extend('  "%s";' % dot_escape(name) for name in obj["vertices"])
	lines.extend('  "%s" -- "%s";' % (dot_escape(a), dot_escape(b)) for a, b in obj["edges"])
	lines.append("}")
	return "\n".join(lines)


# ---- commands ----


def cmd_info(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	edges = sum(bin(m).count("1") for m in graph.adj) // 2
	if args.format == "json":
		_emit_json(
			{
				"vertices": list(graph.vertices),
				"edges": edges,
				"connected": graph.is_connected(),
				"clique_number": graph.clique_number(),
				"classes": [graph.names(c) for c in graph.vertex_classes()],
				"pair": pair.to_json_obj(),
				"complexity": list(pair.complexity()),
			}
		)
		return 0
	comp = pair.complexity()
	print("%d vertices, %d edges, %s" % (
		graph.n, edges, "connected" if graph.is_connected() else "disconnected"
	))
	print("clique number %d" % graph.clique_number())
	print("classes: %s" % " ".join(
		"[%s]" % ",".join(graph.names(c)) for c in graph.vertex_classes()
	))
	for m in pair.g_members:
		print("G %s" % _member(graph, m))
	for m in pair.h_members:
		print("H %s" % _member(graph, m))
	print("complexity (%d, %d)" % (comp.n, comp.m))
	return 0


def cmd_gens(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	texts = [str(g) for g in enumerate_generators(pair)]
	if args.format == "json":
		_emit_json(texts)
	else:
		for text in texts:
			print(text)
	return 0


def cmd_invariant(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	verdict = is_invariant(pair, _target_mask(graph, args))
	if args.format == "json":
		_emit_json({"invariant": verdict})
	else:
		print("invariant" if verdict else "not invariant")
	return 0


def cmd_saturate(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	full = saturate(pair)
	if args.format == "json":
		_emit_json(full.to_json_obj())
		return 0
	for m in full.g_members:
		print("G %s" % _member(graph, m))
	for m in full.h_members:
		print("H %s" % _member(graph, m))
	return 0


def cmd_periphery(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	members = fast_periphery(pair, _target_mask(graph, args))
	if args.format == "json":
		_emit_json([graph.names(m) for m in members])
	else:
		for m in members:
			print(_member(graph, m))
	return 0


def cmd_restrict(args):
	graph = _graph(args)
	dmask = _target_mask(graph, args)
	kernel, image = restriction_step(_pair(graph, args), dmask, mode=args.mode)
	if args.format == "json":
		_emit_json({"kernel": group_to_json_obj(kernel), "image": group_to_json_obj(image)})
		return 0
	print("kernel: %s" % kernel.summary())
	print("image:  %s" % image.summary())
	return 0


def cmd_decompose(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	script = load(args.script, "script", build_script, graph) if args.script else None
	root = decompose(pair, mode="script", script=script)
	if args.format == "json":
		_emit_json(root.to_json_obj())
	elif args.format == "dot":
		print(tree_dot(root))
	else:
		print(tree_text(root))
		print("leaves: %s" % "; ".join(repr(s) for s in root.leaves()))
	return 0


def cmd_vcd(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	script = load(args.script, "script", build_script, graph) if args.script else None
	gens = load(args.gens, "generator list", build_generators, graph) if args.gens else None
	bound = vcd_report(pair, script=script, gens=gens, nilpotent=args.nilpotent)
	if args.format == "json":
		_emit_json(bound_to_json_obj(bound))
		return 0
	print("upper: %s" % bound.upper)
	print("lower: %s" % bound.lower)
	for leaf, dim, why in bound.per_leaf:
		print("  %-24s %-8s %s" % (leaf, dim, why))
	return 0


def cmd_cone_graph(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	cone = cone_graph(graph, pair.g_members)
	if args.format == "json":
		_emit_json(cone.to_json_obj())
	elif args.format == "dot":
		print(_graph_dot(cone))
	else:
		obj = cone.to_json_obj()
		print("vertices: %s" % " ".join(obj["vertices"]))
		for a, b in obj["edges"]:
			print("%s -- %s" % (a, b))
	return 0


def _signed_gen(graph, text):
	text = text.strip()
	sign = 1
	if text.endswith("^-1"):
		text, sign = text[:-3], -1
	return parse_generator(graph, text), sign


def cmd_apply(args):
	graph = _graph(args)
	ctx = WordContext(graph)
	phi = product_of(ctx, [_signed_gen(graph, text) for text in args.gen])
	word = ctx.parse(args.word or "")
	image = ctx.canonical(phi.apply(word))
	if args.format == "json":
		_emit_json({"word": ctx.format(word), "image": ctx.format(image)})
	else:
		print(ctx.format(image))
	return 0


def cmd_check_exact(args):
	graph = _graph(args)
	pair = _pair(graph, args)
	dmask = _target_mask(graph, args)
	# the modes give the same groups (restriction_step), and every line
	# below reads only the groups
	kernel, image = restriction_step(pair, dmask, mode=SATURATED)
	ctx = WordContext(graph)
	sub_ctx = WordContext(image.graph)
	failures = 0
	checks = 0
	for gen in image.gens():
		checks += 1
		try:
			lifted = lift_generator(pair, image, dmask, gen)
			back = word_restriction(sub_ctx, dmask, realize(ctx, lifted))
			disc = back.compose(realize(sub_ctx, gen).invert())
			res = is_inner(sub_ctx, disc.images)
		except DomainError as exc:
			failures += 1
			print("FAIL lift %s: %s" % (gen, exc))
			continue
		if res.status == "yes":
			print("ok   lift %s" % gen)
		else:
			failures += 1
			print("FAIL lift %s: %s" % (gen, res.reason or res.status))
	for gen in kernel.gens():
		checks += 1
		if acts_trivially_word(ctx, realize(ctx, gen), dmask)[0]:
			print("ok   kernel %s" % gen)
		else:
			failures += 1
			print("FAIL kernel %s does not act trivially" % gen)
	print("%d checks, %d failures" % (checks, failures))
	return 1 if failures else 0


# ---- argument plumbing ----


class _Parser(argparse.ArgumentParser):
	# argparse exits 2 on usage errors; 2 is reserved for capability limits
	def error(self, message):
		self.exit(1, "%s: error: %s\n" % (self.prog, message))


# only trees and graphs have a DOT form
DOT_FORMATS = ("text", "json", "dot")


def build_parser():
	parser = _Parser(prog="raagout", description=__doc__.splitlines()[0])
	sub = parser.add_subparsers(dest="command", metavar="command")

	def add(name, func, formats=("text", "json"), **kwargs):
		p = sub.add_parser(name, **kwargs)
		p.set_defaults(func=func)
		p.add_argument("--graph", metavar="F", required=True, help="graph JSON file")
		p.add_argument("--periph", metavar="F", help="peripheral pair JSON file")
		p.add_argument("--format", choices=formats, default="text")
		return p

	add("info", cmd_info, help="graph and descriptor summary")
	add("gens", cmd_gens, help="generators of the relative outer group")

	p = add("invariant", cmd_invariant, help="test a special subgroup for invariance")
	p.add_argument("--target", metavar="V,V,...", required=True, help="vertex names")

	add("saturate", cmd_saturate, help="saturate a peripheral pair")

	p = add("periphery", cmd_periphery, help="induced periphery of a subgroup")
	p.add_argument("--target", metavar="V,V,...", required=True)

	p = add("restrict", cmd_restrict, help="one restriction step")
	p.add_argument("--target", metavar="V,V,...", required=True)
	p.add_argument("--mode", choices=RESTRICT_MODES, default=RESTRICT_DEFAULT)

	p = add("decompose", cmd_decompose, formats=DOT_FORMATS, help="full decomposition tree")
	p.add_argument("--script", metavar="F", help="script JSON file")

	p = add("vcd", cmd_vcd, help="dimension bounds over a decomposition")
	p.add_argument("--script", metavar="F")
	p.add_argument("--gens", metavar="F", help="lower-bound generator list JSON")
	p.add_argument("--nilpotent", action="store_true", help="allow a generator list that does not commute")

	add("cone-graph", cmd_cone_graph, formats=DOT_FORMATS, help="cone off the preserved members")

	p = add("apply", cmd_apply, help="apply generators to a word")
	p.add_argument(
		"--gen", action="append", required=True, metavar="TEXT", help="generator, first applied last"
	)
	p.add_argument("--word", metavar="TEXT", default="", help='word like "a b^-1"')

	p = add("check-exact", cmd_check_exact, help="lift and kernel checks for one step")
	p.add_argument("--target", metavar="V,V,...", required=True)

	return parser


def main(argv=None):
	parser = build_parser()
	args = parser.parse_args(argv)
	if not getattr(args, "func", None):
		parser.print_help()
		return 1
	try:
		code = args.func(args)
		sys.stdout.flush()
		return code
	except BrokenPipeError:
		# the reader is gone: send what is still buffered to devnull, so
		# the flush at exit does not fail again
		devnull = os.open(os.devnull, os.O_WRONLY)
		os.dup2(devnull, sys.stdout.fileno())
		return 1
	except ScriptError as exc:
		# a step that fails on the tree names the file, as load's checks do
		print("error: script file %s: %s" % (args.script, exc), file=sys.stderr)
		return 1
	except DomainError as exc:
		print("error: %s" % exc, file=sys.stderr)
		return 1
	except CapabilityError as exc:
		print("capability limit: %s" % exc, file=sys.stderr)
		return 2
	except RuntimeError as exc:
		print("internal error: %s" % exc, file=sys.stderr)
		return 3


if __name__ == "__main__":
	sys.exit(main())
