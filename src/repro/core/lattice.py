"""Vectorized window-lattice evaluation of the paper's cycle model.

Algorithm 1 scans every rectangular parallel window between the kernel
size and the IFM size, evaluating eqs. 1-8 per window.  The scalar
model (:mod:`repro.core.cycles`) stays the reference oracle; this
module evaluates the *whole candidate grid at once* as NumPy integer
arrays, so full-landscape consumers (Algorithm 1
itself, the exhaustive oracle, ablations, Pareto sweeps, DSE) read one
precomputed lattice instead of re-running tens of thousands of
interpreted evaluations.

Axes and their paper meaning
----------------------------
A :class:`CycleLattice` is a 2-D grid indexed ``[i, j]``:

* axis 0 (``i``) counts kernel windows grouped **vertically**:
  ``nw_h = i + 1`` windows, pixel extent ``PW_h = K_h + i * stride``
  (for stride 1 simply ``PW_h = K_h + i``);
* axis 1 (``j``) counts kernel windows grouped **horizontally**:
  ``nw_w = j + 1``, ``PW_w = K_w + j * stride``.

Cell ``[0, 0]`` is the kernel-sized window evaluated with
*whole-channel* tiling (eq. 4/5 accounting); Algorithm 1 instead
initialises its incumbent with the fine-grained im2col count (eq. 1),
which callers obtain from :func:`repro.core.cycles.im2col_cycles`.

Per-cell quantities and the equations they vectorize:

==================  =====================================================
array               paper equation
==================  =====================================================
``windows_inside``  ``N_w^P = nw_h * nw_w`` (windows per PW position)
``n_pw``            eq. 3: ``ceil(OFM_h/nw_h) * ceil(OFM_w/nw_w)``
``ic_t``            eq. 4: ``min(floor(rows / (PW_h*PW_w)), IC)``
``ar``              eq. 5: ``ceil(IC / IC_t)``
``oc_t``            eq. 6: ``min(floor(cols / N_w^P), OC)``
``ac``              eq. 7: ``ceil(OC / OC_t)``
``cycles``          eq. 8: ``n_pw * ar * ac``
``feasible``        mask: window hosts >= 1 input channel in the rows
                    and >= 1 output channel in the columns (every
                    window on the grid fits the padded IFM)
==================  =====================================================

Infeasible cells hold 0 in every derived array; use
:meth:`CycleLattice.masked_cycles` (infeasible -> ``INFEASIBLE``
sentinel) for argmin-style reductions.

Because NumPy's ``argmin`` returns the *first* minimum in row-major
order and the lattice's row-major order is exactly Algorithm 1's
width-major scan (``PW_h`` outer, ``PW_w`` inner), paper-exact
first-found tie-breaking is a single flat ``argmin`` — see
:mod:`repro.search.space`.

>>> from repro.core import ConvLayer, PIMArray
>>> lat = window_lattice(ConvLayer.square(14, 3, 256, 256),
...                      PIMArray.square(512))
>>> lat.shape                     # 12x12 windows: 3x3 .. 14x14
(12, 12)
>>> int(lat.cycles[0, 1])         # PW 3x4 == paper Table I ResNet L4
504
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .array import PIMArray
from .backend import Backend, get_backend, minimal_dtype
from .cache import LRUMemo, frozen_arrays
from .cycles import CycleBreakdown
from .layer import ConvLayer
from .types import MappingError
from .window import ParallelWindow

__all__ = ["CycleLattice", "LayerLattice", "layer_lattice",
           "window_lattice", "INFEASIBLE"]

#: Sentinel cycle count for infeasible cells in masked reductions; no
#: real mapping reaches it (int64 max).
INFEASIBLE: int = np.iinfo(np.int64).max


@dataclass(frozen=True)
class CycleLattice:
    """Eqs. 1-8 evaluated over the whole parallel-window grid.

    All 2-D arrays share the shape ``(len(nw_h), len(nw_w))`` and the
    smallest integer dtype a closed-form bound proves safe
    (:func:`repro.core.backend.minimal_dtype` — ``int64`` whenever the
    bound demands it); values are bit-identical either way.  The 1-D
    axis vectors stay ``int64``.  See the module docstring for the
    axis/equation map.
    """

    layer: ConvLayer
    array: PIMArray
    #: Windows grouped per axis: ``nw_h[i] = i + 1`` (axis 0),
    #: ``nw_w[j] = j + 1`` (axis 1).
    nw_h: np.ndarray
    nw_w: np.ndarray
    #: Pixel extent per axis: ``pw_h[i] = K_h + i * stride`` etc.
    pw_h: np.ndarray
    pw_w: np.ndarray
    feasible: np.ndarray
    ic_t: np.ndarray
    oc_t: np.ndarray
    ar: np.ndarray
    ac: np.ndarray
    n_pw: np.ndarray
    cycles: np.ndarray

    # ------------------------------------------------------------------
    # Shape and derived grids
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(heights, widths)``."""
        return self.cycles.shape

    @property
    def size(self) -> int:
        """Number of grid cells (feasible or not)."""
        return self.cycles.size

    @property
    def windows_inside(self) -> np.ndarray:
        """``N_w^P`` per cell (outer product of the ``nw`` axes)."""
        return self.nw_h[:, None] * self.nw_w[None, :]

    @property
    def area(self) -> np.ndarray:
        """Pixel area ``PW_h * PW_w`` per cell."""
        return self.pw_h[:, None] * self.pw_w[None, :]

    # ------------------------------------------------------------------
    # Cell accessors (bridges back to the scalar vocabulary)
    # ------------------------------------------------------------------
    def window_at(self, i: int, j: int) -> ParallelWindow:
        """The pixel-extent :class:`ParallelWindow` of cell ``[i, j]``."""
        return ParallelWindow(h=int(self.pw_h[i]), w=int(self.pw_w[j]))

    def breakdown_at(self, i: int, j: int) -> CycleBreakdown:
        """The scalar :class:`CycleBreakdown` of cell ``[i, j]``.

        Raises :class:`MappingError` on infeasible cells, mirroring the
        scalar model's behaviour.
        """
        if not bool(self.feasible[i, j]):
            raise MappingError(
                f"window {self.window_at(i, j)} is infeasible on "
                f"{self.array} for {self.layer.describe()}")
        return CycleBreakdown(
            n_pw=int(self.n_pw[i, j]),
            ar=int(self.ar[i, j]),
            ac=int(self.ac[i, j]),
            ic_t=int(self.ic_t[i, j]),
            oc_t=int(self.oc_t[i, j]),
        )

    def masked_cycles(self, mask: np.ndarray = None) -> np.ndarray:
        """Cycle grid with ineligible cells set to :data:`INFEASIBLE`.

        ``mask`` (optional, bool) further restricts eligibility beyond
        the feasibility mask — the subspace hook used by
        :class:`repro.search.space.CandidateSpace`.  Always int64: the
        sentinel does not fit the minimized cycle dtypes, so the grid
        is widened before masking — ``INFEASIBLE`` semantics are
        dtype-independent.
        """
        eligible = self.feasible if mask is None else (self.feasible & mask)
        return np.where(eligible, self.cycles.astype(np.int64, copy=False),
                        INFEASIBLE)

    # ------------------------------------------------------------------
    # Vectorized utilization (paper eq. 9, whole-channel tiling)
    # ------------------------------------------------------------------
    def mean_utilization_pct(self) -> np.ndarray:
        """Eq. 9 mean used-cell percentage per cell (float64).

        Closed form of the tile-grid average: each of the ``AR * AC``
        tiles uses ``K_h*K_w * ic_tile * N_w^P * oc_tile`` cells and the
        tile sizes sum to ``IC`` / ``OC``, so the grid mean collapses to
        ``K_area * N_w^P * IC * OC / (AR * AC * cells)``.  Infeasible
        cells hold ``nan``.
        """
        layer, array = self.layer, self.array
        num = (100.0 * layer.kernel_area * self.windows_inside
               * layer.in_channels * layer.out_channels)
        den = np.maximum(self.ar * self.ac, 1) * float(array.cells)
        return np.where(self.feasible, num / den, np.nan)

    def peak_utilization_pct(self) -> np.ndarray:
        """Best single-tile used-cell percentage per cell (float64).

        The largest tile pairs the full ``IC_t`` with the full ``OC_t``:
        ``K_area * IC_t * N_w^P * OC_t / cells``.  Infeasible cells hold
        ``nan``.
        """
        num = (100.0 * self.layer.kernel_area * self.windows_inside
               * self.ic_t * self.oc_t)
        return np.where(self.feasible, num / float(self.array.cells),
                        np.nan)


@dataclass(frozen=True)
class LayerLattice:
    """The array-independent half of a :class:`CycleLattice`.

    Everything eqs. 1-8 need that does *not* depend on the array
    geometry — the window/pixel axes, per-cell areas, windows-per-PW
    and the eq. 3 position counts — evaluated once per layer geometry.
    Every cell fits the padded IFM (``nw <= OFM`` gives ``K + (nw-1)*s
    <= IFM``), so feasibility is array-dependent only.
    :meth:`with_array` applies the remaining array-dependent equations
    (4-8: two integer-divide maps plus caps and ceil-divides), so a
    sweep over array shapes shares every grid but those.

    Grids are cached per layer *geometry* (channels, stride and padding
    included; ``name``/``repeats`` excluded) and shared between
    instances as read-only arrays; ``layer`` is the requesting layer,
    so solutions materialised from the finished lattice carry the right
    metadata.
    """

    layer: ConvLayer
    #: Windows grouped per axis: ``nw_h[i] = i + 1`` (axis 0),
    #: ``nw_w[j] = j + 1`` (axis 1); pixel extents ``pw = K + i*stride``.
    nw_h: np.ndarray
    nw_w: np.ndarray
    pw_h: np.ndarray
    pw_w: np.ndarray
    #: Pixel area ``PW_h * PW_w`` per cell.
    area: np.ndarray
    #: ``N_w^P = nw_h * nw_w`` per cell.
    windows: np.ndarray
    #: Eq. 3 parallel-window position count per cell.
    n_pw: np.ndarray

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(heights, widths)``."""
        return self.area.shape

    def finish_dtype(self, array: PIMArray) -> np.dtype:
        """The smallest dtype proven safe for eqs. 4-8 on *array*.

        The bound covers every operand and intermediate: cycles
        (eq. 8) are at most ``max(n_pw) * IC * OC`` (``AR <= IC`` and
        ``AC <= OC``), the integer-divide intermediates at most the
        array dims, and the grid operands at most their own maxima.
        Crossing the int32 range — e.g. a 224x224 layer with 512x512
        channels — widens the whole computation back to int64.
        """
        layer = self.layer
        bound = max(
            int(self.n_pw.max()) * layer.in_channels * layer.out_channels,
            int(self.area.max()), int(self.windows.max()),
            array.rows, array.cols)
        return minimal_dtype(bound)

    def with_array(self, array: PIMArray,
                   backend: Union[str, Backend, None] = None
                   ) -> CycleLattice:
        """Finish the lattice for *array*: eqs. 4-8 plus feasibility.

        Bit-identical to evaluating the full grid from scratch — the
        shared grids carry everything else.  *backend* selects the
        compute backend (default: the process ``"auto"`` resolution);
        every backend produces identical values, in the
        :meth:`finish_dtype` minimized dtype.
        """
        layer = self.layer
        be = get_backend("auto" if backend is None else backend)
        feasible, ic_t, oc_t, ar, ac, n_pw, cycles = be.finish(
            self.area, self.windows, self.n_pw, array.rows, array.cols,
            layer.in_channels, layer.out_channels, self.finish_dtype(array))
        return CycleLattice(
            layer=layer, array=array, nw_h=self.nw_h, nw_w=self.nw_w,
            pw_h=self.pw_h, pw_w=self.pw_w, feasible=feasible,
            ic_t=ic_t, oc_t=oc_t, ar=ar, ac=ac, n_pw=n_pw, cycles=cycles,
        )


def _geometry_key(layer: ConvLayer) -> Tuple[int, ...]:
    """The grid-determining fields (``name``/``repeats`` excluded)."""
    return (layer.ifm_h, layer.ifm_w, layer.kernel_h, layer.kernel_w,
            layer.in_channels, layer.out_channels, layer.stride,
            layer.padding)


def _minimized(grid: np.ndarray) -> np.ndarray:
    """*grid* downcast to the smallest dtype its actual maximum allows.

    Values are unchanged (the downcast is exact by construction) and
    grids that genuinely need int64 keep it — this is the memory-lean
    storage half of the dtype-minimization story; compute dtypes are
    re-derived per call from closed-form bounds.
    """
    return grid.astype(minimal_dtype(int(grid.max())), copy=False)


def _compute_layer_grids(layer: ConvLayer) -> Tuple[np.ndarray, ...]:
    """Evaluate the array-independent grids for *layer*.

    Works for any stride: windows are counted in window-index space
    (``nw`` consecutive kernel windows span ``K + (nw-1)*stride``
    pixels), which reduces exactly to the paper's pixel-space grid at
    stride 1.  The 2-D grids are stored dtype-minimized; the 1-D axis
    vectors stay int64 (they feed int64 tie-break reductions
    downstream and cost nothing).
    """
    nw_h = np.arange(1, layer.ofm_h + 1, dtype=np.int64)
    nw_w = np.arange(1, layer.ofm_w + 1, dtype=np.int64)
    pw_h = layer.kernel_h + (nw_h - 1) * layer.stride
    pw_w = layer.kernel_w + (nw_w - 1) * layer.stride

    area = pw_h[:, None] * pw_w[None, :]
    windows = nw_h[:, None] * nw_w[None, :]
    n_pw = ((-(-layer.ofm_h // nw_h))[:, None]
            * (-(-layer.ofm_w // nw_w))[None, :])           # eq. 3

    grids = (nw_h, nw_w, pw_h, pw_w, _minimized(area),
             _minimized(windows), _minimized(n_pw))
    frozen_arrays(grids)  # shared across cached lattices
    return grids


#: Geometry-keyed grid memo: sweeps over array shapes (and repeated
#: solves of the same layer) share one grid evaluation per geometry.
#: The key drops the channel counts — nothing
#: :func:`_compute_layer_grids` produces depends on them, so layers
#: differing only in IC/OC share one grid set.
_GRID_MEMO: LRUMemo = LRUMemo(maxsize=64)


def layer_lattice(layer: ConvLayer) -> LayerLattice:
    """The (cached) array-independent lattice half for *layer*.

    Grids are memoized by layer geometry in a small LRU, so repeated
    calls — every probe of a DSE bisection, every array of a sweep —
    cost two dictionary operations, not a grid evaluation.
    """
    key = (layer.ifm_h, layer.ifm_w, layer.kernel_h, layer.kernel_w,
           layer.stride, layer.padding)
    grids = _GRID_MEMO.get_or_compute(
        key, lambda: _compute_layer_grids(layer))
    return LayerLattice(layer, *grids)


def window_lattice(layer: ConvLayer, array: PIMArray) -> CycleLattice:
    """The lattice over every parallel-window shape of *layer*.

    Cell ``[i, j]`` matches the scalar
    :func:`repro.core.cycles.variable_window_cycles` for the window
    ``ParallelWindow.spanning(layer, i + 1, j + 1)`` — ``(K_h + i*s) x
    (K_w + j*s)`` pixels at stride ``s`` — property-tested element for
    element at strides 1-3.

    >>> from repro.core import ConvLayer, PIMArray
    >>> lat = window_lattice(ConvLayer.square(7, 3, 512, 512),
    ...                      PIMArray.square(512))
    >>> str(lat.window_at(0, 1)), int(lat.cycles[0, 1])
    ('4x3', 390)
    """
    return layer_lattice(layer).with_array(array)
