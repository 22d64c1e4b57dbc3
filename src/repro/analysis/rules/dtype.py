"""REP004: lattice arrays carry explicit dtypes.

The cycle model (eq. 1-8) counts integer cycles; the lattices encode
infeasible cells as ``np.iinfo(np.int64).max``.  A bare ``np.array``
or ``np.zeros`` call silently picks ``float64`` (or promotes on mixed
input), and a float lattice truncates ``INFEASIBLE`` to a *finite*
``1.8e19``-ish value that survives ``argmin`` — geometry bugs that
surface three layers away from their cause.  Inside the lattice
modules, every array constructor must therefore pin its dtype.

Since the minimized-dtype pass the pinned dtype is itself checked:
a *literal* ``np.X`` dtype must come from the sanctioned set
(:data:`SANCTIONED_DTYPES` — ``int64`` for cycle counts and
sentinels, ``int32`` as the proven-safe minimized storage/compute
dtype, ``bool_`` masks, ``float64`` utilization, ``intp`` indices).
An unsanctioned literal (``np.int16``, ``np.float32``, …)
has no closed-form overflow bound backing it; narrow dtypes are only
legitimate when they flow through a dtype *variable* produced by
:func:`repro.core.backend.minimal_dtype`, which the rule allows.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import ModuleUnit, Violation, rel_matches
from ..project import ProjectContext
from ..registry import Rule, register_rule

#: Modules whose arrays feed the integer cycle model.
DEFAULT_MODULES = (
    "repro/core/lattice.py",
    "repro/core/grouped.py",
    "repro/core/sweep.py",
    "repro/core/backend.py",
    "repro/chip/sweep.py",
)

#: numpy constructors that default to float64 / promoted dtypes.
_CONSTRUCTORS = frozenset({
    "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
    "full", "arange", "fromiter", "frombuffer",
})

#: Literal ``np.X`` dtypes a lattice-module constructor may pin.  Any
#: other width must arrive through a variable whose provenance is a
#: closed-form bound (``minimal_dtype``), never as a bare literal.
SANCTIONED_DTYPES = frozenset({
    "int64", "int32", "bool_", "float64", "intp",
})

#: Positional index of ``dtype`` for the constructors that accept it
#: positionally (mirrors the long-standing positional allowance).
_DTYPE_POSITION = {"array": 1, "asarray": 1, "zeros": 1, "ones": 1,
                   "empty": 1, "fromiter": 1, "arange": 1, "full": 2}


def _numpy_constructor(node: ast.Call) -> str:
    """``"zeros"`` for ``np.zeros(...)`` / ``numpy.zeros(...)``; ``""``
    otherwise (``*_like`` and method calls are exempt — they inherit)."""
    func = node.func
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and func.attr in _CONSTRUCTORS):
        return func.attr
    return ""


@register_rule
class DtypeDisciplineRule(Rule):
    """Array constructors in lattice modules must pass ``dtype=``."""

    id = "REP004"
    name = "dtype-discipline"
    summary = ("numpy constructors in lattice modules must pin an "
               "explicit dtype — bare promotion turns INFEASIBLE "
               "sentinels into finite floats")

    def check(self, module: ModuleUnit,
              project: ProjectContext) -> Iterator[Violation]:
        options = self.options(project)
        modules = tuple(options.get("modules", DEFAULT_MODULES))
        if not rel_matches(module.rel, modules):
            return
        sanctioned = frozenset(options.get("sanctioned-dtypes",
                                           SANCTIONED_DTYPES))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _numpy_constructor(node)
            if not name:
                continue
            dtype_node = next((kw.value for kw in node.keywords
                               if kw.arg == "dtype"), None)
            if dtype_node is None:
                # ``np.array(x, np.int64)`` — dtype positionally is
                # fine for constructors whose next positional IS dtype.
                position = _DTYPE_POSITION.get(name)
                if position is None or len(node.args) <= position:
                    yield self.violation(
                        module, node,
                        f"np.{name}(...) without an explicit dtype — "
                        f"lattice arrays must pin dtype=np.int64 (or "
                        f"the intended dtype) so INFEASIBLE sentinels "
                        f"and cycle counts never silently promote to "
                        f"float")
                    continue
                dtype_node = node.args[position]
            if (isinstance(dtype_node, ast.Attribute)
                    and isinstance(dtype_node.value, ast.Name)
                    and dtype_node.value.id in ("np", "numpy")
                    and dtype_node.attr not in sanctioned):
                yield self.violation(
                    module, dtype_node,
                    f"np.{name}(...) pins np.{dtype_node.attr}, which "
                    f"is outside the sanctioned lattice dtype set "
                    f"({', '.join(sorted(sanctioned))}) — narrow "
                    f"dtypes must flow through minimal_dtype() so a "
                    f"closed-form bound proves them overflow-safe")
