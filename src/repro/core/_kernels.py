"""Loop-form kernels for the numba backend (and its pure-python twin).

Every function here is written in the restricted style ``numba.njit``
compiles in ``nopython`` mode: flat loops over preallocated arrays, no
Python objects, no allocation beyond scalars.  The functions are kept
importable and runnable *without* numba on purpose — the
:class:`~repro.core.backend.NumbaBackend` wraps them in ``njit`` when
numba is installed, and the bit-identity test suite runs the very same
bodies interpreted when it is not, so the JIT path's arithmetic is
property-tested against the numpy reference and the scalar oracle even
on numba-free machines.

All arithmetic is performed on int64 scalars regardless of the (often
minimized, see :func:`repro.core.backend.minimal_dtype`) storage dtype
of the input vectors: loop kernels allocate nothing per cell, so the
memory-lean story here is "no ``(arrays, cells)`` temporaries at all"
rather than narrow temporaries, and int64 scalars make overflow
impossible wherever the numpy path's guarded bounds allow int32.

Equation references follow the paper (see ``docs/paper-map.md``):
eq. 1 is the im2col cycle count, eqs. 4-8 the variable-window tiling
and cycle model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["geo_cycles_kernel", "finish_kernel"]


def geo_cycles_kernel(rows: np.ndarray, cols: np.ndarray,
                      n_win: np.ndarray, im2col_rows: np.ndarray,
                      oc: np.ndarray,
                      area_f: np.ndarray, windows_f: np.ndarray,
                      n_pw_f: np.ndarray, ic_f: np.ndarray,
                      oc_f: np.ndarray,
                      seg_starts: np.ndarray, seg_ends: np.ndarray,
                      seg_geo: np.ndarray, out: np.ndarray) -> None:
    """Per-(array, geometry) solved cycles into *out* (``(A, G)`` int64).

    The loop form of :meth:`repro.core.sweep.NetworkLattice` evaluation:
    the eq. 1 im2col incumbent per geometry, improved by the best
    feasible cell of that geometry's dominance-pruned window front
    (eqs. 4-8).  ``seg_starts``/``seg_ends`` bound each front segment in
    the flat vectors; ``seg_geo`` names the owning geometry.
    """
    num_arrays = rows.shape[0]
    num_geo = n_win.shape[0]
    num_segs = seg_starts.shape[0]
    for a in range(num_arrays):
        r = np.int64(rows[a])
        c = np.int64(cols[a])
        for g in range(num_geo):
            ar = -((-np.int64(im2col_rows[g])) // r)        # eq. 1
            oc_g = np.int64(oc[g])
            oc_cap = c if c < oc_g else oc_g
            ac = -((-oc_g) // oc_cap)
            out[a, g] = np.int64(n_win[g]) * ar * ac
        for s in range(num_segs):
            g = seg_geo[s]
            best = out[a, g]
            for i in range(seg_starts[s], seg_ends[s]):
                ic_per = r // np.int64(area_f[i])           # eq. 4 (floor)
                oc_per = c // np.int64(windows_f[i])        # eq. 6 (floor)
                if ic_per >= 1 and oc_per >= 1:
                    ic_g = np.int64(ic_f[i])
                    oc_g = np.int64(oc_f[i])
                    ic_t = ic_per if ic_per < ic_g else ic_g   # eq. 4 (cap)
                    oc_t = oc_per if oc_per < oc_g else oc_g   # eq. 6 (cap)
                    war = -((-ic_g) // ic_t)                # eq. 5
                    wac = -((-oc_g) // oc_t)                # eq. 7
                    cycles = np.int64(n_pw_f[i]) * war * wac   # eq. 8
                    if cycles < best:
                        best = cycles
            out[a, g] = best


def finish_kernel(area: np.ndarray, windows: np.ndarray,
                  n_pw: np.ndarray, rows: int, cols: int,
                  in_channels: int, out_channels: int,
                  feasible: np.ndarray, ic_t: np.ndarray,
                  oc_t: np.ndarray, ar: np.ndarray, ac: np.ndarray,
                  n_pw_out: np.ndarray, cycles: np.ndarray) -> None:
    """Eqs. 4-8 finishing step over one window grid, into preallocated
    outputs (the loop form of :meth:`LayerLattice.with_array`).

    Infeasible cells hold 0 in every derived array, mirroring the
    numpy reference bit for bit.
    """
    height, width = area.shape
    r = np.int64(rows)
    c = np.int64(cols)
    ic = np.int64(in_channels)
    oc = np.int64(out_channels)
    for i in range(height):
        for j in range(width):
            ic_per = r // np.int64(area[i, j])              # eq. 4 (floor)
            oc_per = c // np.int64(windows[i, j])           # eq. 6 (floor)
            ok = ic_per >= 1 and oc_per >= 1
            feasible[i, j] = ok
            if ok:
                ict = ic_per if ic_per < ic else ic         # eq. 4 (cap)
                oct_ = oc_per if oc_per < oc else oc        # eq. 6 (cap)
                war = -((-ic) // ict)                       # eq. 5
                wac = -((-oc) // oct_)                      # eq. 7
                pw = np.int64(n_pw[i, j])
                ic_t[i, j] = ict
                oc_t[i, j] = oct_
                ar[i, j] = war
                ac[i, j] = wac
                n_pw_out[i, j] = pw
                cycles[i, j] = pw * war * wac               # eq. 8
            else:
                ic_t[i, j] = 0
                oc_t[i, j] = 0
                ar[i, j] = 0
                ac[i, j] = 0
                n_pw_out[i, j] = 0
                cycles[i, j] = 0
