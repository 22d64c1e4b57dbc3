"""Pluggable compute backends for the lattice family.

The eq. 1-8 cycle model is a pure integer array program, evaluated in
two hot shapes: the per-layer eqs. 4-8 finishing step
(:meth:`LayerLattice.with_array`) and the batched per-(array, geometry)
network evaluation with its segment reductions
(:meth:`NetworkLattice.cycles_for`).  This module factors both behind
a :class:`Backend` so the same call sites can run either

* :class:`NumpyBackend` — the always-available reference.  Vectorized
  exactly like the historical inline code (bit-identical by
  construction), but with arithmetic in the smallest dtype a
  closed-form bound proves safe (:func:`minimal_dtype`); its
  ``(arrays, cells)`` temporaries are plain allocations, bounded per
  chunk by the caller; or
* :class:`NumbaBackend` — the same arithmetic as ``njit``-compiled
  loop kernels (:mod:`repro.core._kernels`), which never materialise
  the ``(arrays, cells)`` plane at all.  Available only when numba is
  installed (:data:`HAVE_NUMBA`); the kernels themselves import and
  run without numba, which is how the bit-identity property suite
  exercises the JIT arithmetic on numba-free machines.

Selection goes through :func:`get_backend`: ``"auto"`` (the default
everywhere) prefers numba and silently falls back to numpy, ``"numpy"``
and ``"numba"`` force a choice (``"numba"`` raises
:class:`~repro.core.types.ConfigurationError` when absent), and an
existing :class:`Backend` instance passes through — the per-request
override hook.  Backends are stateless and shared process-wide, and
keep no scratch between calls.

Every backend is bit-identical to the scalar oracle
(``core/cycles.py``): the minimized dtypes never change a value because
the bound that picked them also proves no intermediate can overflow,
and anything that *could* exceed the narrow bound is widened back to
``int64`` before it happens.  ``INFEASIBLE`` semantics survive
minimization because each narrowed computation masks with its *own*
dtype's ``iinfo(...).max`` sentinel, which exceeds every real value
under the same bound, and results returned to callers are re-expressed
against the global int64 sentinel.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ._kernels import finish_kernel, geo_cycles_kernel
from .types import ConfigurationError

__all__ = ["HAVE_NUMBA", "Backend", "NumpyBackend", "NumbaBackend",
           "get_backend", "minimal_dtype"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba  # noqa: F401
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the common container case
    HAVE_NUMBA = False


def minimal_dtype(bound: int) -> np.dtype:
    """The smallest sanctioned integer dtype that can hold *bound*
    **and** still reserves its ``iinfo(...).max`` as a sentinel above
    every real value.

    *bound* must be a closed-form upper bound (python int, so it never
    overflows while being computed) on every value *and intermediate*
    of the computation it guards.  The strict ``<`` keeps
    ``iinfo(dtype).max`` out of the value range, so masked reductions
    can use it as a local ``INFEASIBLE`` stand-in without collisions.

    >>> minimal_dtype(100) == np.dtype(np.int32)
    True
    >>> minimal_dtype(np.iinfo(np.int32).max) == np.dtype(np.int64)
    True
    """
    if bound < np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class Backend:
    """One implementation of the lattice family's two hot kernels.

    Callers pass the *compute dtype* they derived from a closed-form
    bound (see :func:`minimal_dtype`); the backend guarantees the
    returned **values** are bit-identical to the scalar model whatever
    dtype is requested.  Returned arrays are fresh and owned by the
    caller, who may freeze and cache them.
    """

    name: str = "abstract"

    def finish(self, area: np.ndarray, windows: np.ndarray,
               n_pw: np.ndarray, rows: int, cols: int,
               in_channels: int, out_channels: int,
               dtype: np.dtype) -> Tuple[np.ndarray, ...]:
        """Eqs. 4-8 over one window grid for one array geometry.

        Returns ``(feasible, ic_t, oc_t, ar, ac, n_pw, cycles)`` with
        infeasible cells zeroed — the :class:`CycleLattice` field set.
        """
        raise NotImplementedError

    def geo_cycles(self, rows: np.ndarray, cols: np.ndarray,
                   n_win: np.ndarray, im2col_rows: np.ndarray,
                   oc: np.ndarray, area_f: np.ndarray,
                   windows_f: np.ndarray, n_pw_f: np.ndarray,
                   ic_f: np.ndarray, oc_f: np.ndarray,
                   seg_starts: np.ndarray, seg_geo: np.ndarray,
                   dtype: np.dtype) -> np.ndarray:
        """Per-(array, geometry) solved cycles: ``(A, G)`` int64.

        The eq. 1 im2col incumbent per geometry improved by the best
        feasible cell of each dominance-pruned window-front segment
        (eqs. 4-8).  *dtype* bounds the per-cell arithmetic; the
        returned plane is always int64 (it is tiny next to the
        ``(A, cells)`` scratch, and downstream totals accumulate in
        int64 regardless).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # noqa: D105 - obvious
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyBackend(Backend):
    """The vectorized reference backend (always available)."""

    name = "numpy"

    def finish(self, area: np.ndarray, windows: np.ndarray,
               n_pw: np.ndarray, rows: int, cols: int,
               in_channels: int, out_channels: int,
               dtype: np.dtype) -> Tuple[np.ndarray, ...]:
        dt = np.dtype(dtype)
        area = area.astype(dt, copy=False)
        windows = windows.astype(dt, copy=False)
        n_pw = n_pw.astype(dt, copy=False)
        r = dt.type(rows)
        c = dt.type(cols)
        ic = dt.type(in_channels)
        oc = dt.type(out_channels)

        ic_per_array = r // area                            # eq. 4 (floor)
        oc_per_array = c // windows                         # eq. 6 (floor)
        feasible = (ic_per_array >= 1) & (oc_per_array >= 1)

        ic_t = np.minimum(ic_per_array, ic)                 # eq. 4 (cap)
        oc_t = np.minimum(oc_per_array, oc)                 # eq. 6 (cap)
        ar = -(-ic // np.maximum(ic_t, 1))                  # eq. 5
        ac = -(-oc // np.maximum(oc_t, 1))                  # eq. 7
        cycles = n_pw * ar * ac                             # eq. 8

        zero = dt.type(0)
        return (feasible,
                np.where(feasible, ic_t, zero),
                np.where(feasible, oc_t, zero),
                np.where(feasible, ar, zero),
                np.where(feasible, ac, zero),
                np.where(feasible, n_pw, zero),
                np.where(feasible, cycles, zero))

    def geo_cycles(self, rows: np.ndarray, cols: np.ndarray,
                   n_win: np.ndarray, im2col_rows: np.ndarray,
                   oc: np.ndarray, area_f: np.ndarray,
                   windows_f: np.ndarray, n_pw_f: np.ndarray,
                   ic_f: np.ndarray, oc_f: np.ndarray,
                   seg_starts: np.ndarray, seg_geo: np.ndarray,
                   dtype: np.dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        num_arrays = rows.shape[0]
        num_geo = n_win.shape[0]
        num_cells = area_f.shape[0]
        r = rows.astype(dt, copy=False)[:, None]
        c = cols.astype(dt, copy=False)[:, None]

        best = np.empty((num_arrays, num_geo), dtype=np.int64)
        t_ar = np.empty((num_arrays, num_geo), dtype=dt)
        t_ac = np.empty((num_arrays, num_geo), dtype=dt)
        im2col = im2col_rows.astype(dt, copy=False)[None, :]
        oc_g = oc.astype(dt, copy=False)[None, :]
        np.floor_divide(np.negative(im2col), r, out=t_ar)
        np.negative(t_ar, out=t_ar)                         # eq. 1
        np.minimum(c, oc_g, out=t_ac)
        np.floor_divide(np.negative(oc_g), t_ac, out=t_ac)
        np.negative(t_ac, out=t_ac)
        np.multiply(n_win.astype(dt, copy=False)[None, :], t_ar, out=best)
        np.multiply(best, t_ac, out=best)                   # (A, G)

        if num_cells:
            sentinel = dt.type(np.iinfo(dt).max)
            shape = (num_arrays, num_cells)
            war = np.empty(shape, dtype=dt)
            wac = np.empty(shape, dtype=dt)
            cyc = np.empty(shape, dtype=dt)
            feas = np.empty(shape, dtype=np.bool_)
            scratch = np.empty(shape, dtype=np.bool_)
            af = area_f.astype(dt, copy=False)[None, :]
            wf = windows_f.astype(dt, copy=False)[None, :]
            icf = ic_f.astype(dt, copy=False)[None, :]
            ocf = oc_f.astype(dt, copy=False)[None, :]
            np.floor_divide(r, af, out=war)                 # eq. 4 (floor)
            np.floor_divide(c, wf, out=wac)                 # eq. 6 (floor)
            np.greater_equal(war, 1, out=feas)
            np.greater_equal(wac, 1, out=scratch)
            np.logical_and(feas, scratch, out=feas)
            np.minimum(war, icf, out=war)                   # eq. 4 (cap)
            np.maximum(war, 1, out=war)
            np.floor_divide(np.negative(icf), war, out=war)
            np.negative(war, out=war)                       # eq. 5
            np.minimum(wac, ocf, out=wac)                   # eq. 6 (cap)
            np.maximum(wac, 1, out=wac)
            np.floor_divide(np.negative(ocf), wac, out=wac)
            np.negative(wac, out=wac)                       # eq. 7
            np.multiply(n_pw_f.astype(dt, copy=False)[None, :], war,
                        out=cyc)
            np.multiply(cyc, wac, out=cyc)                  # eq. 8
            np.logical_not(feas, out=scratch)
            np.copyto(cyc, sentinel, where=scratch)
            seg_best = np.minimum.reduceat(cyc, seg_starts, axis=1)
            best[:, seg_geo] = np.minimum(best[:, seg_geo], seg_best)
        return best


class NumbaBackend(Backend):
    """JIT loop kernels — no ``(arrays, cells)`` temporaries at all.

    Wraps the plain-python kernel bodies of :mod:`repro.core._kernels`
    in ``numba.njit`` at construction.  Raises
    :class:`ConfigurationError` when numba is not importable; use
    :func:`get_backend` with ``"auto"`` for graceful fallback.
    """

    name = "numba"

    def __init__(self) -> None:
        if not HAVE_NUMBA:
            raise ConfigurationError(
                "the numba backend needs the optional numba package "
                "(pip install numba); use backend='auto' to fall back "
                "to numpy automatically")
        from numba import njit  # pragma: no cover - numba-only path
        self._finish = njit(nogil=True)(finish_kernel)
        self._geo_cycles = njit(nogil=True)(geo_cycles_kernel)

    # pragma-free bodies below run only under numba in practice; the
    # interpreted twins are covered via _kernels-level tests.
    def finish(self, area: np.ndarray, windows: np.ndarray,
               n_pw: np.ndarray, rows: int, cols: int,
               in_channels: int, out_channels: int,
               dtype: np.dtype) -> Tuple[np.ndarray, ...]:
        dt = np.dtype(dtype)
        shape = area.shape
        feasible = np.empty(shape, dtype=np.bool_)
        ic_t = np.empty(shape, dtype=dt)
        oc_t = np.empty(shape, dtype=dt)
        ar = np.empty(shape, dtype=dt)
        ac = np.empty(shape, dtype=dt)
        n_pw_out = np.empty(shape, dtype=dt)
        cycles = np.empty(shape, dtype=dt)
        self._finish(area, windows, n_pw, rows, cols, in_channels,
                     out_channels, feasible, ic_t, oc_t, ar, ac, n_pw_out,
                     cycles)
        return feasible, ic_t, oc_t, ar, ac, n_pw_out, cycles

    def geo_cycles(self, rows: np.ndarray, cols: np.ndarray,
                   n_win: np.ndarray, im2col_rows: np.ndarray,
                   oc: np.ndarray, area_f: np.ndarray,
                   windows_f: np.ndarray, n_pw_f: np.ndarray,
                   ic_f: np.ndarray, oc_f: np.ndarray,
                   seg_starts: np.ndarray, seg_geo: np.ndarray,
                   dtype: np.dtype) -> np.ndarray:
        # dtype is part of the shared signature but moot here: the
        # kernel runs int64 scalars and allocates no planes.
        out = np.empty((rows.shape[0], n_win.shape[0]), dtype=np.int64)
        seg_ends = np.empty(seg_starts.shape[0], dtype=np.int64)
        if seg_starts.shape[0]:
            seg_ends[:-1] = seg_starts[1:]
            seg_ends[-1] = area_f.shape[0]
        self._geo_cycles(rows, cols, n_win, im2col_rows, oc, area_f,
                         windows_f, n_pw_f, ic_f, oc_f, seg_starts,
                         seg_ends, seg_geo, out)
        return out


#: Shared stateless instances — backends carry no mutable state, so
#: one of each serves the process.
_INSTANCES: dict = {}


def get_backend(spec: Union[str, Backend, None] = "auto") -> Backend:
    """Resolve *spec* to a shared :class:`Backend` instance.

    ``"auto"`` (and ``None``) prefer numba when importable, numpy
    otherwise; ``"numpy"`` / ``"numba"`` force the choice (``"numba"``
    raises :class:`ConfigurationError` when the package is absent); a
    :class:`Backend` instance passes through untouched.

    >>> get_backend("numpy").name
    'numpy'
    >>> get_backend(get_backend("numpy")).name
    'numpy'
    """
    if isinstance(spec, Backend):
        return spec
    name = "auto" if spec is None else str(spec)
    if name == "auto":
        name = "numba" if HAVE_NUMBA else "numpy"
    if name not in ("numpy", "numba"):
        raise ConfigurationError(
            f"unknown backend {spec!r}: expected 'auto', 'numpy', "
            f"'numba', or a Backend instance")
    if name not in _INSTANCES:
        _INSTANCES[name] = (NumpyBackend() if name == "numpy"
                            else NumbaBackend())
    return _INSTANCES[name]
