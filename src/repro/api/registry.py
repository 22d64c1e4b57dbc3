"""Pluggable scheme registry: the extension point for mapping solvers.

Every mapping scheme — the paper's Algorithm 1, its three baselines,
and any future scheme (adaptive windows, grouped-conv mappings, …) —
registers here under a stable name.  Registration is a one-decorator
affair at the solver's definition site::

    @register_scheme("my-scheme", capabilities=("search",),
                     summary="my clever window search")
    def my_solution(layer: ConvLayer, array: PIMArray) -> MappingSolution:
        ...

The :class:`~repro.api.engine.MappingEngine` resolves scheme names
through a registry, so a registered scheme is immediately usable from
``solve()``, ``map_network``, the chip planner, the CLI and the batch
API — no other module needs editing.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from ..core.types import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.array import PIMArray
    from ..core.layer import ConvLayer
    from ..search.result import MappingSolution

__all__ = [
    "Solver",
    "SchemeInfo",
    "SolverRegistry",
    "UnknownSchemeError",
    "DuplicateSchemeError",
    "register_scheme",
    "DEFAULT_REGISTRY",
]

#: A mapping solver: ``(layer, array) -> MappingSolution``.
Solver = Callable[["ConvLayer", "PIMArray"], "MappingSolution"]


class UnknownSchemeError(ConfigurationError):
    """Raised when a scheme name does not resolve in the registry.

    Subclasses :class:`ValueError` (via :class:`ConfigurationError`) so
    legacy ``except ValueError`` callers keep working.
    """


class DuplicateSchemeError(ConfigurationError):
    """Raised when a scheme name is registered twice without ``replace``."""


@dataclass(frozen=True)
class SchemeInfo:
    """One registered scheme: its solver plus discovery metadata.

    Attributes
    ----------
    name:
        Stable scheme identifier, e.g. ``"vw-sdk"``.
    solver:
        The ``(layer, array) -> MappingSolution`` callable.
    capabilities:
        Free-form tags for filtering, e.g. ``{"search", "baseline"}``.
    summary:
        One-line human description (defaults to the solver's docstring
        first line).
    """

    name: str
    solver: Solver = field(compare=False)
    capabilities: frozenset = frozenset()
    summary: str = field(default="", compare=False)


class SolverRegistry:
    """A named collection of mapping solvers, safe for concurrent reads.

    Iteration order is registration order (for the default registry:
    the order the solver modules are imported).
    """

    def __init__(self) -> None:
        self._schemes: Dict[str, SchemeInfo] = {}
        self._versions: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, solver: Solver, *,
                 capabilities: Tuple[str, ...] = (),
                 summary: str = "", replace: bool = False) -> SchemeInfo:
        """Register *solver* under *name*; returns the stored info.

        Raises :class:`DuplicateSchemeError` if *name* is taken and
        ``replace`` is false — silent shadowing of a scheme is almost
        always a bug in plugin code.
        """
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"scheme name must be a non-empty string, got {name!r}")
        if not callable(solver):
            raise ConfigurationError(
                f"solver for scheme {name!r} must be callable, "
                f"got {type(solver).__name__}")
        if not summary:
            doc = (getattr(solver, "__doc__", "") or "").strip()
            summary = doc.splitlines()[0] if doc else ""
        info = SchemeInfo(name=name, solver=solver,
                          capabilities=frozenset(capabilities),
                          summary=summary)
        with self._lock:
            if name in self._schemes and not replace:
                raise DuplicateSchemeError(
                    f"scheme {name!r} is already registered; pass "
                    f"replace=True to override it")
            if name in self._schemes:
                # Replacing a solver invalidates memoized solutions:
                # engines fold this version into their memo keys.
                self._versions[name] = self._versions.get(name, 0) + 1
            self._schemes[name] = info
        return info

    def register_scheme(self, name: str, *,
                        capabilities: Tuple[str, ...] = (),
                        summary: str = "",
                        replace: bool = False) -> Callable[[Solver], Solver]:
        """Decorator form of :meth:`register`; returns the solver as-is.

        >>> registry = SolverRegistry()
        >>> @registry.register_scheme("noop", capabilities=("test",))
        ... def noop_solution(layer, array):
        ...     '''Does nothing useful.'''
        >>> registry.get("noop").summary
        'Does nothing useful.'
        """
        def decorator(solver: Solver) -> Solver:
            self.register(name, solver, capabilities=capabilities,
                          summary=summary, replace=replace)
            return solver
        return decorator

    def unregister(self, name: str) -> None:
        """Remove a scheme (mainly for tests tearing down plugins)."""
        with self._lock:
            if self._schemes.pop(name, None) is not None:
                self._versions[name] = self._versions.get(name, 0) + 1

    def version(self, name: str) -> int:
        """How many times *name*'s registration has been replaced.

        Engines fold this into their memo keys so that replacing or
        re-registering a scheme's solver never serves stale cached
        solutions computed by the old solver.
        """
        with self._lock:
            return self._versions.get(name, 0)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def get(self, name: str) -> SchemeInfo:
        """Resolve *name*; raises :class:`UnknownSchemeError` with a
        did-you-mean suggestion when it does not exist."""
        with self._lock:
            info = self._schemes.get(name)
            known = tuple(self._schemes)
        if info is not None:
            return info
        message = (f"unknown scheme {name!r}; known: "
                   f"{', '.join(sorted(known))}")
        close = difflib.get_close_matches(str(name), known, n=1, cutoff=0.5)
        if close:
            message += f"; did you mean {close[0]!r}?"
        raise UnknownSchemeError(message)

    def solver(self, name: str) -> Solver:
        """The solver callable for *name* (raises like :meth:`get`)."""
        return self.get(name).solver

    def names(self, capability: Optional[str] = None) -> Tuple[str, ...]:
        """Registered names, optionally filtered by a capability tag."""
        with self._lock:
            infos = tuple(self._schemes.values())
        if capability is None:
            return tuple(info.name for info in infos)
        return tuple(info.name for info in infos
                     if capability in info.capabilities)

    # ------------------------------------------------------------------
    # Mapping protocol (read-only)
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:  # noqa: D105
        with self._lock:
            return name in self._schemes

    def __iter__(self) -> Iterator[str]:  # noqa: D105
        return iter(self.names())

    def __len__(self) -> int:  # noqa: D105
        with self._lock:
            return len(self._schemes)


#: The process-wide registry the default engine and the CLI resolve
#: against.  The built-in schemes register themselves here from their
#: definition modules in ``repro.search``.
DEFAULT_REGISTRY = SolverRegistry()


def register_scheme(name: str, *, capabilities: Tuple[str, ...] = (),
                    summary: str = "",
                    replace: bool = False) -> Callable[[Solver], Solver]:
    """Register a solver in the default registry (decorator).

    This is the one-liner extension point: decorate a
    ``(layer, array) -> MappingSolution`` function and the scheme is
    available everywhere — ``solve()``, ``map_network``,
    ``plan_pipeline``, the CLI and the batch engine.
    """
    return DEFAULT_REGISTRY.register_scheme(
        name, capabilities=capabilities, summary=summary, replace=replace)
