"""The one reader of input files: graph, pair, script, generator list.

Each builder checks a JSON value against its format's shape table (a dict
lists the keys allowed, a one-item list is a list of that item, a type is
a value of that type), then what a shape cannot say, and builds. Errors
name the file and the key path, like [0]"image"[2]. Checks that need a
descriptor, such as the invariance of a target, stay with it.
"""

import json

from .autos import parse_generator
from .errors import DomainError
from .graphs import DefiningGraph
from .peripheral import PeripheralPair

GRAPH = {"vertices": [str], "edges": [[str]]}
PAIR = {"G": [[str]], "H": [[str]]}
STEP = {"op": str, "target": [str], "mode": str, "image": list}

_KINDS = {dict: "an object", list: "a list", str: "a string"}


def load(path, what, build, *args):
	"""build(the JSON value in the file at path, *args); errors name the file."""
	try:
		with open(path, encoding="utf-8") as fp:
			return build(json.load(fp), *args)
	except DomainError as exc:
		message = str(exc)
	except OSError as exc:
		message = "cannot read: %s" % (exc.strerror or exc)
	except ValueError as exc:  # from json.load: not UTF-8, not JSON, or too long an integer
		message = "not JSON: %s" % exc
	except RecursionError:
		message = "nested too deeply"
	raise DomainError("%s file %s: %s" % (what, path, message))


def _fail(path, message):
	raise DomainError("%s: %s" % (path, message) if path else message)


def _at(path, func, *args):
	"""func(*args), with path put in front of a DomainError it raises."""
	try:
		return func(*args)
	except DomainError as exc:
		_fail(path, exc)


def _check(value, shape, path=""):
	"""Raise DomainError, naming the key path, where value leaves shape."""
	kind = {dict: dict, list: list}.get(type(shape), shape)
	keys = ", ".join(map(json.dumps, shape)) if isinstance(shape, dict) else ""
	if type(value) is not kind:
		want = _KINDS[kind] + (keys and " with keys among " + keys)
		got = _KINDS[type(value)] if isinstance(value, (dict, list)) else json.dumps(value)
		_fail(path, "must be %s, got %s" % (want, got))
	if isinstance(shape, dict):
		for key, item in value.items():
			if key not in shape:
				_fail(path + json.dumps(key), "unknown key, not one of %s" % keys)
			_check(item, shape[key], path + json.dumps(key))
	elif isinstance(shape, list):
		for i, item in enumerate(value):
			_check(item, shape[0], "%s[%d]" % (path, i))


def _require(obj, path, *keys):
	for key in keys:
		if key not in obj:
			_fail(path, "missing key %s" % json.dumps(key))


def build_graph(obj):
	_check(obj, GRAPH)
	_require(obj, "", *GRAPH)
	names = set(obj["vertices"])
	if "" in names or len(names) < len(obj["vertices"]):
		_fail('"vertices"', "vertex names must be nonempty and distinct")
	edges = set()
	for i, edge in enumerate(obj["edges"]):
		ends = frozenset(edge)
		if len(edge) != 2 or len(ends) != 2 or not ends <= names or ends in edges:
			_fail('"edges"[%d]' % i, "an edge joins two distinct vertices, and only once")
		edges.add(ends)
	return DefiningGraph(obj["vertices"], obj["edges"])


def build_pair(obj, graph):
	_check(obj, PAIR)
	members = [
		[_at('"%s"[%d]' % (key, i), graph.mask, names) for i, names in enumerate(obj.get(key, []))]
		for key in PAIR
	]
	return PeripheralPair(graph, *members)


def build_script(obj, graph, path=""):
	"""The script, each target named in graph and each "image" a script in turn."""
	_check(obj, [STEP], path)
	for i, step in enumerate(obj):
		at = "%s[%d]" % (path, i)
		if step.get("op") == "restrict":
			_require(step, at, "target")
		if step.get("mode", "fast") not in ("fast", "saturated"):
			_fail(at + '"mode"', "must be fast or saturated")
		if "target" in step:
			_at(at + '"target"', graph.mask, step["target"])
		build_script(step.get("image", []), graph, at + '"image"')
	return obj


def build_generators(obj, graph):
	_check(obj, [str])
	return [_at("[%d]" % i, parse_generator, graph, text) for i, text in enumerate(obj)]
