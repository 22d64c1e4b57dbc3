"""Search strategies over a precomputed cycle lattice.

:class:`CandidateSpace` pairs a :class:`~repro.core.lattice.CycleLattice`
with an eligibility mask and offers the reductions every search in the
repo needs:

* :meth:`CandidateSpace.argmin` with the ``"scan"`` order — paper-exact
  width-major first-found tie-breaking (Algorithm 1's loop visits
  ``PW_h`` outer / ``PW_w`` inner and only replaces the incumbent on a
  strict improvement; a flat row-major ``argmin`` over the lattice
  returns exactly that first minimum);
* the ``"area"`` order — the exhaustive oracle's independent
  tie-breaking key ``(cycles, window area, window height)``;
* :meth:`CandidateSpace.top_k` — the k best cells in oracle order, for
  landscape tables and DSE shortlists;
* masked subspaces (:meth:`square_only`, :meth:`full_channels_only`,
  :meth:`restrict`) — the ablation searches expressed as masks over one
  shared lattice instead of separate scalar loops.

>>> from repro.core import ConvLayer, PIMArray
>>> space = CandidateSpace.for_layer(ConvLayer.square(14, 3, 256, 256),
...                                  PIMArray.square(512))
>>> ij = space.argmin()
>>> str(space.lattice.window_at(*ij))
'4x3'
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..core.array import PIMArray
from ..core.lattice import CycleLattice, window_lattice
from ..core.layer import ConvLayer
from ..core.types import ConfigurationError
from .result import MappingSolution

__all__ = ["CandidateSpace", "SEARCH_ORDERS", "lattice_solution"]

#: Supported tie-breaking orders: ``"scan"`` is Algorithm 1's
#: width-major first-found rule, ``"area"`` the oracle's
#: ``(cycles, area, height)`` key.
SEARCH_ORDERS: Tuple[str, ...] = ("scan", "area")

Cell = Tuple[int, int]


def lattice_solution(lattice: CycleLattice, i: int, j: int,
                     scheme: str = "vw-sdk",
                     candidates_searched: int = 0) -> MappingSolution:
    """Materialise lattice cell ``[i, j]`` as a :class:`MappingSolution`.

    The bridge from the vectorized lattice back to the scalar result
    vocabulary the rest of the library (tables, utilization, executors)
    consumes.
    """
    return MappingSolution(
        scheme=scheme,
        layer=lattice.layer,
        array=lattice.array,
        window=lattice.window_at(i, j),
        breakdown=lattice.breakdown_at(i, j),
        duplication=int(lattice.windows_inside[i, j]),
        candidates_searched=candidates_searched,
    )


@dataclass(frozen=True)
class CandidateSpace:
    """A masked view of a cycle lattice with search reductions.

    ``mask`` marks the *eligible* cells; it is always intersected with
    the lattice's feasibility mask, so restricting never resurrects an
    infeasible window.
    """

    lattice: CycleLattice
    mask: np.ndarray

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_layer(cls, layer: ConvLayer, array: PIMArray,
                  include_kernel_cell: bool = False) -> "CandidateSpace":
        """Algorithm 1's candidate space: *layer*'s window lattice.

        The kernel-sized cell ``[0, 0]`` is excluded by default —
        Algorithm 1 covers it through its im2col incumbent instead.
        """
        lattice = window_lattice(layer, array)
        mask = lattice.feasible.copy()
        if not include_kernel_cell:
            mask[0, 0] = False
        return cls(lattice=lattice, mask=mask)

    # ------------------------------------------------------------------
    # Subspaces
    # ------------------------------------------------------------------
    def restrict(self, mask: np.ndarray) -> "CandidateSpace":
        """A subspace keeping only cells where *mask* is true."""
        if mask.shape != self.mask.shape:
            raise ConfigurationError(
                f"subspace mask shape {mask.shape} does not match the "
                f"lattice grid {self.mask.shape}")
        return dc_replace(self, mask=self.mask & mask)

    def square_only(self) -> "CandidateSpace":
        """Only square windows strictly larger than the kernel's long
        side — the rectangular-windows ablation's candidate set."""
        lat = self.lattice
        start = max(lat.layer.kernel_h, lat.layer.kernel_w) + 1
        square = (lat.pw_h[:, None] == lat.pw_w[None, :])
        return self.restrict(square & (lat.pw_h[:, None] >= start))

    def full_channels_only(self) -> "CandidateSpace":
        """Only windows hosting every input channel in one row tile
        (``IC_t >= IC``) — the channel-tiling ablation's candidate set."""
        lat = self.lattice
        return self.restrict(lat.ic_t >= lat.layer.in_channels)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of eligible cells."""
        return int(self.mask.sum())

    def argmin(self, order: str = "scan") -> Optional[Cell]:
        """The cycle-minimal eligible cell, or ``None`` if none exist.

        ``order`` picks the tie-breaking rule among equal-cycle cells:
        ``"scan"`` returns the first cell in Algorithm 1's width-major
        scan order; ``"area"`` the cell minimising
        ``(cycles, area, height)`` like the exhaustive oracle.
        """
        if order not in SEARCH_ORDERS:
            raise ConfigurationError(
                f"unknown search order {order!r}; expected one of "
                f"{SEARCH_ORDERS}")
        if not self.mask.any():
            return None
        masked = self.lattice.masked_cycles(self.mask)
        if order == "scan":
            flat = int(np.argmin(masked))
            return tuple(int(x) for x in
                         np.unravel_index(flat, masked.shape))
        # "area": lexicographic (cycles, area, pw_h); ties beyond that
        # are impossible (equal area and height fix the width).
        tie = masked == masked.min()
        area = np.where(tie, self.lattice.area, np.iinfo(np.int64).max)
        tie &= area == area.min()
        height = np.where(tie, self.lattice.pw_h[:, None],
                          np.iinfo(np.int64).max)
        tie &= height == height.min()
        flat = int(np.argmax(tie))
        return tuple(int(x) for x in np.unravel_index(flat, tie.shape))

    def first_improvement(self, baseline_cycles: int) -> Optional[Cell]:
        """Scan-order argmin if it *strictly* beats *baseline_cycles*.

        This is Algorithm 1's incumbent-update rule against the im2col
        initialisation: ``None`` means the baseline stands.
        """
        best = self.argmin(order="scan")
        if best is None:
            return None
        if int(self.lattice.cycles[best]) < baseline_cycles:
            return best
        return None

    def top_k(self, k: int) -> List[Cell]:
        """The ``k`` best eligible cells in oracle order.

        Sorted by ``(cycles, area, height)`` ascending; fewer than ``k``
        cells are returned when the space is smaller.
        """
        if k <= 0:
            raise ConfigurationError(f"top_k needs k >= 1, got {k}")
        flat_mask = self.mask.ravel()
        eligible = np.flatnonzero(flat_mask)
        if eligible.size == 0:
            return []
        cycles = self.lattice.cycles.ravel()[eligible]
        area = self.lattice.area.ravel()[eligible]
        height = np.broadcast_to(self.lattice.pw_h[:, None],
                                 self.mask.shape).ravel()[eligible]
        order = np.lexsort((height, area, cycles))[:k]
        ii, jj = np.unravel_index(eligible[order], self.mask.shape)
        return list(zip(ii.tolist(), jj.tolist()))

    def iter_cells(self, order: str = "area") -> Iterator[Cell]:
        """Every eligible cell, in ``"area"`` or ``"scan"`` order.

        ``"area"`` sorts by ``(area, height, width)`` — the enumeration
        order of the exhaustive oracle; ``"scan"`` is plain row-major.
        """
        if order not in SEARCH_ORDERS:
            raise ConfigurationError(
                f"unknown search order {order!r}; expected one of "
                f"{SEARCH_ORDERS}")
        shape = self.mask.shape
        eligible = np.flatnonzero(self.mask.ravel())
        if order == "area":
            area = self.lattice.area.ravel()[eligible]
            height = np.broadcast_to(self.lattice.pw_h[:, None],
                                     shape).ravel()[eligible]
            width = np.broadcast_to(self.lattice.pw_w[None, :],
                                    shape).ravel()[eligible]
            eligible = eligible[np.lexsort((width, height, area))]
        ii, jj = np.unravel_index(eligible, shape)
        yield from zip(ii.tolist(), jj.tolist())
