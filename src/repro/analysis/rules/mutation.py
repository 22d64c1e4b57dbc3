"""REP003: arrays handed out of cached lattice constructors are read-only.

``layer_lattice`` / ``window_lattice`` / ``NetworkLattice.for_network``
/ ``ChipLattice.for_solutions`` (and the engine methods that memoize
them) return objects whose NumPy arrays are *shared*: geometry-keyed
LRU caches hand the same instance to every caller with the same key.
An in-place edit — ``lattice.cycles += 1``, ``lattice.area[0] = 3``,
``front.sort()`` — therefore corrupts every future cache hit, the
nastiest class of bug a memoized stack can grow.

The static half of the contract lives here: within a function, values
assigned from a cached-constructor call are tracked, and in-place
operations on them (augmented assignment, subscript assignment,
mutating method calls, ``setflags(write=True)``) are flagged.  One
level of aliasing is followed (``cycles = lat.cycles; cycles += 1``).
The runtime half — every cache-resident array is ``writeable=False``,
so anything this rule cannot see still fails loudly under tests — is
enforced by ``repro.core.cache.freeze_arrays`` at construction sites.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..base import ModuleUnit, Violation
from ..project import ProjectContext
from ..registry import Rule, register_rule

#: Call names whose results are cache-resident (module functions and
#: method/classmethod names alike — matched on the final name segment).
DEFAULT_CACHED_CONSTRUCTORS = (
    "layer_lattice", "window_lattice", "network_lattice", "chip_lattice",
    "for_network", "for_solutions", "network_sweep", "get_or_compute",
)

#: ndarray methods that mutate in place.
_MUTATORS = ("sort", "resize", "fill", "put", "itemset", "partition",
             "byteswap", "setfield")


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _root(node: ast.expr) -> Tuple[ast.expr, int]:
    """Unwrap attribute/subscript chains: ``(base, hops)``."""
    hops = 0
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
        hops += 1
    return node, hops


class _FunctionChecker(ast.NodeVisitor):
    """Track cached values and their array aliases in one scope."""

    def __init__(self, rule: "CachedArrayMutationRule", module: ModuleUnit,
                 constructors: Set[str]) -> None:
        self.rule = rule
        self.module = module
        self.constructors = constructors
        self.cached_objects: Set[str] = set()
        self.cached_arrays: Set[str] = set()
        self.found: List[Violation] = []

    # -- tracking ------------------------------------------------------
    def _is_cached_call(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and _call_name(node) in self.constructors)

    def _track_assign(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if self._is_cached_call(value):
            self.cached_objects.add(target.id)
            self.cached_arrays.discard(target.id)
        elif (isinstance(value, ast.Attribute)
              and isinstance(value.value, ast.Name)
              and value.value.id in self.cached_objects):
            # One aliasing hop: ``cycles = lattice.cycles``.
            self.cached_arrays.add(target.id)
            self.cached_objects.discard(target.id)
        else:
            self.cached_objects.discard(target.id)
            self.cached_arrays.discard(target.id)

    # -- classification ------------------------------------------------
    def _tracked_base(self, node: ast.expr) -> Optional[str]:
        """What a mutation of *node* would corrupt, or ``None``.

        A write through >= 1 attribute/subscript hop from a tracked
        object, >= 0 hops from a tracked array alias, or any hops from
        a direct cached-constructor call, hits shared cache state.
        """
        base, hops = _root(node)
        if isinstance(base, ast.Name):
            if base.id in self.cached_objects and hops >= 1:
                return base.id
            if base.id in self.cached_arrays:
                return base.id
        if self._is_cached_call(base) and hops >= 1:
            return _call_name(base) + "(...)"
        return None

    def _flag(self, node: ast.AST, owner: str, what: str) -> None:
        self.found.append(self.rule.violation(
            self.module, node,
            f"{what} mutates an array of cache-resident value "
            f"{owner!r} — lattice caches share instances across "
            f"callers; copy first (`.copy()`) or build a new array"))

    # -- visitors ------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs get their own scope pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass  # nested defs get their own scope pass

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                owner = self._tracked_base(target)
                if owner is not None:
                    self._flag(node, owner, "assignment into")
            elif isinstance(target, ast.Tuple):
                for element in target.elts:
                    owner = (self._tracked_base(element)
                             if isinstance(element, (ast.Subscript,
                                                     ast.Attribute))
                             else None)
                    if owner is not None:
                        self._flag(node, owner, "assignment into")
        if len(node.targets) == 1:
            self._track_assign(node.targets[0], node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            owner = self._tracked_base(node.target)
            if owner is not None:
                self._flag(node, owner, "assignment into")
        elif node.value is not None:
            self._track_assign(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        owner = None
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            owner = self._tracked_base(target)
        elif (isinstance(target, ast.Name)
              and target.id in self.cached_arrays):
            owner = target.id
        if owner is not None:
            self._flag(node, owner, "augmented assignment (`+=`-style) on")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = self._tracked_base(func.value) if isinstance(
                func.value, (ast.Attribute, ast.Subscript, ast.Name)
            ) else None
            if isinstance(func.value, ast.Name):
                owner = (func.value.id
                         if func.value.id in self.cached_arrays else None)
            if owner is not None and func.attr in _MUTATORS:
                self._flag(node, owner, f"in-place `.{func.attr}()` on")
            if owner is not None and func.attr == "setflags":
                for kw in node.keywords:
                    if (kw.arg in ("write", "writeable")
                            and isinstance(kw.value, ast.Constant)
                            and bool(kw.value.value)):
                        self._flag(node, owner,
                                   "re-enabling writeability on")
        self.generic_visit(node)


@register_rule
class CachedArrayMutationRule(Rule):
    """No in-place ops on arrays returned by cached constructors."""

    id = "REP003"
    name = "cached-array-mutation"
    summary = ("in-place operations on values returned from cached "
               "lattice constructors corrupt every future cache hit")

    def check(self, module: ModuleUnit,
              project: ProjectContext) -> Iterator[Violation]:
        options = self.options(project)
        constructors = set(options.get("cached-constructors",
                                       DEFAULT_CACHED_CONSTRUCTORS))
        scopes: List[ast.AST] = [module.tree]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            checker = _FunctionChecker(self, module, constructors)
            # The visitor refuses to descend into nested defs — each
            # def is its own scope pass, so aliases never leak.
            for stmt in scope.body:
                checker.visit(stmt)
            yield from checker.found
