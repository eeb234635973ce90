"""The benchmark tracer's wrap list still names functions of the package.

perfbench/tracing.py wraps package functions by name from outside the
package, and a name it cannot find is only recorded as missing, so a
rewrite that renames or removes a function detaches the tracer without an
error. The file is read as text, not imported or edited.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Listed in WRAPPED, but gone from the package: the first four before this
# check was added, the rest when the order index took over the invariant
# scan and the row cuts and the member-list definitions moved to the
# tests. They go when the tracer is replaced by counters inside the package.
GONE = {
	"orders.g_adjacent",
	"orders.leq_rel",
	"orders.gv_components",
	"orders.blocked_masks",
	"peripheral._invariant_scan",
	"decompose.restriction_nontrivial",
	"vcd.certify_abelian_lower_bound",
	"vcd.certify_nilpotent_lower_bound",
}


def _wrapped():
	tree = ast.parse(TRACING.read_text())
	for node in tree.body:
		if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
			return ast.literal_eval(node.value)
	raise AssertionError("no WRAPPED list in %s" % TRACING)


def test_every_wrapped_name_resolves_but_the_pinned_gone_ones():
	# resolved as the tracer resolves them: the owner module, or the class
	# in it, must hold a callable under the attribute name
	missing = set()
	for layer, owner, attr, kind in _wrapped():
		mod_name, _, cls_name = owner.partition(".")
		assert layer == mod_name and kind in ("span", "hot", "count")
		holder = importlib.import_module("raagout." + mod_name)
		if cls_name:
			holder = getattr(holder, cls_name)
		if not callable(vars(holder).get(attr)):
			missing.add("%s.%s" % (owner, attr))
	assert missing == GONE
