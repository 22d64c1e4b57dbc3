"""Batched network lattices: many layers x many arrays in one shot.

The DSE entry points (:mod:`repro.dse.requirements` bisections,
:mod:`repro.dse.pareto` sweeps) ask one question over and over: *total
network cycles on array A* for dozens of candidate arrays.  Solving
that per probe re-runs the per-layer search each time even though the
whole window grid (:class:`~repro.core.lattice.LayerLattice`) is
array-independent.

A :class:`NetworkLattice` stacks the distinct layer geometries of a
network into one ragged flat evaluation:

* every geometry contributes its window grid *pruned to the cells that
  can ever be cycle-minimal* as a contiguous *segment* of
  flat ``area`` / ``windows`` / ``n_pw`` vectors (the kernel-sized
  cell is masked out, mirroring Algorithm 1's candidate space).
  Pruning is exact and array-independent: eq. 8 cycles are
  non-decreasing in each of ``(n_pw, PW area, N_w^P)`` for *every*
  ``(rows, cols, IC, OC)`` — larger area can only shrink ``IC_t``
  (eq. 4), more windows can only shrink ``OC_t`` (eq. 6), and
  feasibility only ever grows toward smaller cells — so any cell
  dominated in that 3-tuple is never the grid minimum on any array,
  and only the 3-D Pareto front (typically a few hundred of tens of
  thousands of cells) needs per-probe arithmetic;
* the array-dependent finishing step (eqs. 4-8) is then applied to the
  whole ``(arrays, cells)`` plane at once and reduced to a per-layer
  best with one ``minimum.reduceat``;
* the eq. 1 im2col incumbent (fine-grained row splitting) is evaluated
  closed-form per geometry, so the per-layer answer is exactly what
  ``solve(layer, array, scheme)`` reports — strided layers included,
  whose windows are counted on the stride grid like everywhere else.

The result answers :meth:`network_cycles` for a single array in a few
NumPy operations and :meth:`cycles_for` for *many* arrays in one
vectorized call (chunked to bound memory), which is what turns a
``smallest_square_array`` bisection or a Pareto sweep from
``probes x layers`` solver runs into one shared evaluation.

Only the analytically-batchable schemes are supported
(:data:`NetworkLattice.SUPPORTED`); callers fall back to the memoized
engine path for the rest.

>>> from repro.core import ConvLayer, PIMArray
>>> layers = [ConvLayer.square(14, 3, 256, 256)]
>>> lat = NetworkLattice.for_network(layers, "vw-sdk")
>>> lat.network_cycles(PIMArray.square(512))   # == solve(...).cycles
504
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from .array import PIMArray
from .backend import Backend, get_backend, minimal_dtype
from .cache import LRUMemo, freeze_arrays
from .layer import ConvLayer
from .lattice import _geometry_key, _minimized, layer_lattice
from .skyline import skyline
from .types import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - layering guard, types only
    from ..runtime.deadline import Deadline

__all__ = ["NetworkLattice", "network_lattice"]

#: Upper bound on ``arrays x cells`` evaluated per chunk of a batched
#: sweep (int64 temporaries; keeps peak memory in the tens of MB).
_CHUNK_CELLS = 1 << 21


def _as_int_vector(values: Iterable[int]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.int64)


#: Front-index memo keyed by the channel-free grid geometry — the
#: dominance argument holds for every (IC, OC), so layers differing
#: only in channels share one front.
_FRONT_MEMO: LRUMemo = LRUMemo(maxsize=64)


def _compute_window_front(layer: ConvLayer) -> np.ndarray:
    grids = layer_lattice(layer)
    # Every cell but the kernel-sized one (im2col covers it); every
    # window on the grid fits the padded IFM.
    candidates = np.arange(1, grids.n_pw.size, dtype=np.int64)
    # The 3-D dominance prune: a cell dominated in all of
    # (n_pw, area, windows) — equality allowed, at least one strict —
    # can never be the eq. 8 minimum on any array, so only front cells
    # survive into the batched sweep.
    candidates = candidates[skyline(np.column_stack(
        (grids.n_pw.ravel()[candidates], grids.area.ravel()[candidates],
         grids.windows.ravel()[candidates])))]
    freeze_arrays(candidates)
    return candidates


def _window_front(layer: ConvLayer) -> np.ndarray:
    """Cached flat indices of *layer*'s candidate-window Pareto front.

    Indices point into the row-major flattened window grid; the
    kernel-sized cell ``[0, 0]`` is excluded up front (Algorithm 1's
    candidate space).
    """
    key = (layer.ifm_h, layer.ifm_w, layer.kernel_h, layer.kernel_w,
           layer.stride, layer.padding)
    return _FRONT_MEMO.get_or_compute(
        key, lambda: _compute_window_front(layer))


@dataclass(frozen=True)
class NetworkLattice:
    """A network's distinct layer lattices, stacked for batched sweeps.

    Build with :meth:`for_network`; evaluate with
    :meth:`network_cycles` (one array), :meth:`layer_cycles` (per-layer
    vector) or :meth:`cycles_for` (many arrays, one vectorized call).
    """

    #: The network's layers, in order (duplicates kept).
    layers: Tuple[ConvLayer, ...]
    scheme: str
    #: Geometry index of each network layer: ``(L,)`` into the G
    #: distinct geometries.
    layer_geo: np.ndarray
    #: Occurrences of each distinct geometry in ``layers``: ``(G,)``.
    counts: np.ndarray
    #: Per-geometry im2col closed form (eq. 1): window count,
    #: ``K_h*K_w*IC`` row demand, and channel counts: each ``(G,)``.
    n_win: np.ndarray
    im2col_rows: np.ndarray
    ic: np.ndarray
    oc: np.ndarray
    #: Ragged window fronts (dominance-pruned grids), concatenated:
    #: per-cell area / windows-inside / eq. 3 count and the owning
    #: geometry's IC / OC: each ``(S,)``.  Every stored cell fits the
    #: padded IFM; array feasibility (eqs. 4/6 ``>= 1``) is the only
    #: per-probe mask left.  Empty when the scheme bypasses the window
    #: search.
    area_f: np.ndarray
    windows_f: np.ndarray
    n_pw_f: np.ndarray
    ic_f: np.ndarray
    oc_f: np.ndarray
    #: Segment starts into the flat vectors (``minimum.reduceat``
    #: boundaries) and each segment's geometry index: ``(M,)``.
    seg_starts: np.ndarray
    seg_geo: np.ndarray

    #: Schemes with a batchable analytical form.  ``vw-sdk`` is the
    #: window search (im2col incumbent + full window grid); ``im2col``
    #: is the eq. 1 closed form alone.
    SUPPORTED = ("vw-sdk", "im2col")

    def __post_init__(self) -> None:
        # Lattices are cache residents (the engine's sweep memo hands
        # one instance to every caller with the same geometry key), so
        # every vector is frozen at construction: an in-place edit
        # raises at the mutation site instead of corrupting the cache.
        freeze_arrays(self.layer_geo, self.counts, self.n_win,
                      self.im2col_rows, self.ic, self.oc, self.area_f,
                      self.windows_f, self.n_pw_f, self.ic_f, self.oc_f,
                      self.seg_starts, self.seg_geo)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def geometry_key(layers: Iterable[ConvLayer]) -> Tuple[Tuple[int, ...], ...]:
        """Per-layer geometry keys, in order — the sweep-cache identity.

        Two networks with equal keys share one :class:`NetworkLattice`:
        names and repeat counts never change cycle totals.

        >>> a = [ConvLayer.square(14, 3, 256, 256, name="conv4_1")]
        >>> b = [ConvLayer.square(14, 3, 256, 256, name="conv4_2")]
        >>> NetworkLattice.geometry_key(a) == NetworkLattice.geometry_key(b)
        True
        """
        return tuple(_geometry_key(layer) for layer in layers)

    @classmethod
    def for_network(cls, network: Iterable[ConvLayer],
                    scheme: str = "vw-sdk") -> "NetworkLattice":
        """Stack *network*'s distinct layer geometries for *scheme*.

        *network* is any iterable of :class:`ConvLayer` (a
        :class:`repro.networks.Network` included).  Raises
        :class:`ConfigurationError` for schemes outside
        :data:`SUPPORTED` — callers should fall back to the engine.

        >>> layers = [ConvLayer.square(14, 3, 256, 256)] * 2
        >>> NetworkLattice.for_network(layers).num_layers
        2
        >>> NetworkLattice.for_network(layers).num_geometries
        1
        """
        if scheme not in cls.SUPPORTED:
            raise ConfigurationError(
                f"NetworkLattice supports {cls.SUPPORTED}, got {scheme!r}; "
                f"use the MappingEngine batch path instead")
        layers = tuple(network)
        if not layers:
            raise ConfigurationError("NetworkLattice needs >= 1 layer")

        distinct: Dict[Tuple[int, ...], int] = {}
        layer_geo: List[int] = []
        rep: List[ConvLayer] = []
        for layer in layers:
            key = _geometry_key(layer)
            index = distinct.setdefault(key, len(distinct))
            if index == len(rep):
                rep.append(layer)
            layer_geo.append(index)
        geo_idx = _as_int_vector(layer_geo)
        counts = np.bincount(geo_idx, minlength=len(rep)).astype(np.int64)

        # Ragged, dominance-pruned window fronts for the searchable
        # geometries.
        area_parts: List[np.ndarray] = []
        windows_parts: List[np.ndarray] = []
        n_pw_parts: List[np.ndarray] = []
        ic_parts: List[np.ndarray] = []
        oc_parts: List[np.ndarray] = []
        seg_starts: List[int] = []
        seg_geo: List[int] = []
        offset = 0
        for index, layer in enumerate(rep):
            if scheme != "vw-sdk":
                continue  # im2col is the eq. 1 closed form alone
            front = _window_front(layer)
            if not front.size:
                continue  # kernel-only grid: im2col is the whole space
            grids = layer_lattice(layer)
            area_parts.append(grids.area.ravel()[front])
            windows_parts.append(grids.windows.ravel()[front])
            n_pw_parts.append(grids.n_pw.ravel()[front])
            ic_parts.append(np.full(front.size, layer.in_channels,
                                    dtype=np.int64))
            oc_parts.append(np.full(front.size, layer.out_channels,
                                    dtype=np.int64))
            seg_starts.append(offset)
            seg_geo.append(index)
            offset += front.size

        def cat(parts: List[np.ndarray]) -> np.ndarray:
            # Mixed storage dtypes promote on concatenation; the flat
            # vectors are then re-minimized by their actual maxima
            # (values unchanged — the memory-lean storage form).
            if not parts:
                return np.empty(0, dtype=np.int64)
            return _minimized(np.concatenate(
                [part.astype(np.int64, copy=False) for part in parts]))

        return cls(
            layers=layers, scheme=scheme, layer_geo=geo_idx, counts=counts,
            n_win=_as_int_vector(l.num_windows for l in rep),
            im2col_rows=_as_int_vector(l.im2col_rows for l in rep),
            ic=_as_int_vector(l.in_channels for l in rep),
            oc=_as_int_vector(l.out_channels for l in rep),
            area_f=cat(area_parts),
            windows_f=cat(windows_parts),
            n_pw_f=cat(n_pw_parts),
            ic_f=cat(ic_parts),
            oc_f=cat(oc_parts),
            seg_starts=_as_int_vector(seg_starts),
            seg_geo=_as_int_vector(seg_geo),
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Network layers (duplicates included)."""
        return len(self.layers)

    @property
    def num_geometries(self) -> int:
        """Distinct layer geometries stacked."""
        return len(self.counts)

    @property
    def num_cells(self) -> int:
        """Pruned front cells shared by every array probe."""
        return int(self.area_f.size)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def sweep_dtype(self, rows: np.ndarray, cols: np.ndarray) -> np.dtype:
        """The smallest dtype proven safe for a sweep over these arrays.

        The bound covers every operand and intermediate of the batched
        evaluation: the eq. 1 incumbent is at most
        ``max(n_win) * max(im2col_rows) * max(oc)`` (``AR`` cannot
        exceed the row demand, ``AC`` cannot exceed ``OC``), a window
        cell at most ``max(n_pw) * max(IC) * max(OC)`` over the flat
        front, and the divide intermediates at most the array dims or
        the stored vectors themselves.  A network or probe grid that
        crosses the int32 range widens the whole sweep back to int64 —
        values are bit-identical either way.
        """
        bound = max(int(self.n_win.max()) * int(self.im2col_rows.max())
                    * int(self.oc.max()),
                    int(rows.max()), int(cols.max()))
        if self.area_f.size:
            bound = max(bound,
                        int(self.n_pw_f.max()) * int(self.ic_f.max())
                        * int(self.oc_f.max()),
                        int(self.area_f.max()), int(self.windows_f.max()))
        return minimal_dtype(bound)

    def _geo_cycles(self, rows: np.ndarray, cols: np.ndarray,
                    backend: Union[str, Backend, None] = None
                    ) -> np.ndarray:
        """Per-(array, geometry) solved cycle counts: ``(A, G)`` int64.

        Matches ``solve(layer, array, scheme).cycles`` cell for cell:
        the eq. 1 im2col count, improved by the best feasible window of
        the grid when the scheme searches (strict-vs-non-strict
        improvement cannot change a minimum).  Evaluation runs on the
        selected backend in the :meth:`sweep_dtype` minimized dtype.
        """
        be = get_backend("auto" if backend is None else backend)
        return be.geo_cycles(
            rows, cols, self.n_win, self.im2col_rows, self.oc,
            self.area_f, self.windows_f, self.n_pw_f, self.ic_f,
            self.oc_f, self.seg_starts, self.seg_geo,
            self.sweep_dtype(rows, cols))

    def _rows_cols(self, arrays: Sequence[PIMArray]
                   ) -> Tuple[np.ndarray, np.ndarray]:
        rows = _as_int_vector(a.rows for a in arrays)
        cols = _as_int_vector(a.cols for a in arrays)
        return rows, cols

    def layer_cycles(self, array: PIMArray,
                     backend: Union[str, Backend, None] = None) -> np.ndarray:
        """Solved cycles per network layer on *array*: ``(L,)`` int64.

        >>> layers = [ConvLayer.square(14, 3, 256, 256)] * 2
        >>> lat = NetworkLattice.for_network(layers)
        >>> lat.layer_cycles(PIMArray.square(512)).tolist()
        [504, 504]
        """
        geo = self._geo_cycles(*self._rows_cols([array]), backend)[0]
        return geo[self.layer_geo]

    def network_cycles(self, array: PIMArray,
                       backend: Union[str, Backend, None] = None) -> int:
        """Total network cycles on *array* (distinct layers summed once
        per occurrence, like ``dse.network_cycles``).

        >>> lat = NetworkLattice.for_network(
        ...     [ConvLayer.square(14, 3, 256, 256)])
        >>> lat.network_cycles(PIMArray.square(512))
        504
        """
        geo = self._geo_cycles(*self._rows_cols([array]), backend)[0]
        return int(geo @ self.counts)

    def cycles_for(self, arrays: Sequence[PIMArray],
                   backend: Union[str, Backend, None] = None,
                   deadline: Optional["Deadline"] = None) -> np.ndarray:
        """Total network cycles for *many* arrays: ``(A,)`` int64.

        One vectorized evaluation over the shared flat grids, chunked
        so no more than ~2M ``array x cell`` entries are live at once;
        each chunk allocates its own scratch and drops it on return.

        The chunk boundary is also the sweep's cooperative
        cancellation checkpoint: with a
        :class:`~repro.runtime.deadline.Deadline`, an expired budget
        raises ``DeadlineExceededError`` whose ``partial`` carries
        ``{"completed", "total", "cycles"}`` — the totals of the
        arrays already evaluated, so callers degrade to a truncated
        sweep instead of nothing.

        >>> lat = NetworkLattice.for_network(
        ...     [ConvLayer.square(14, 3, 256, 256)])
        >>> lat.cycles_for([PIMArray.square(256),
        ...                 PIMArray.square(512)]).tolist()
        [1296, 504]
        """
        arrays = list(arrays)
        if not arrays:
            return np.empty(0, dtype=np.int64)
        be = get_backend("auto" if backend is None else backend)
        rows, cols = self._rows_cols(arrays)
        chunk = max(1, _CHUNK_CELLS // max(self.num_cells, 1))
        totals = np.empty(len(arrays), dtype=np.int64)
        for start in range(0, len(arrays), chunk):
            if deadline is not None:
                deadline.check(
                    partial={"completed": start, "total": len(arrays),
                             "cycles": totals[:start].copy()},
                    where="NetworkLattice.cycles_for")
            stop = start + chunk
            geo = self._geo_cycles(rows[start:stop], cols[start:stop],
                                   be)
            totals[start:stop] = geo @ self.counts
        return totals


def network_lattice(network: Iterable[ConvLayer],
                    scheme: str = "vw-sdk") -> NetworkLattice:
    """Convenience alias for :meth:`NetworkLattice.for_network`.

    >>> lat = network_lattice([ConvLayer.square(14, 3, 256, 256)])
    >>> lat.network_cycles(PIMArray.square(512))
    504
    """
    return NetworkLattice.for_network(network, scheme)
