"""Parallel-window geometry.

A *parallel window* (``PW`` in the paper) is a rectangular patch of the
input feature map that is driven onto the crossbar rows in one computing
cycle.  Every kernel window inside the patch is convolved simultaneously
by a shifted copy of the kernel.  Kernel windows sit on the layer's
stride grid, so a ``PW_h x PW_w`` window around a ``K_h x K_w`` kernel
at stride ``s`` holds

``nw = ((PW_h - K_h)/s + 1) * ((PW_w - K_w)/s + 1)``

of them, one output element per output channel each, per cycle — the
paper's ``(PW - K + 1)`` count at ``s == 1``.  Put the other way round,
a group of ``nw`` windows spans ``K + (nw - 1)*s`` pixels; windows off
that grid are not parallel windows of the layer.  ``PW == K``
degenerates to im2col (one window, ``nw == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from .layer import ConvLayer
from .types import ConfigurationError, MappingError, require_positive_int

__all__ = ["ParallelWindow", "iter_candidate_windows",
           "num_candidate_windows"]


@dataclass(frozen=True, order=True)
class ParallelWindow:
    """A ``h x w`` parallel window.

    The paper prints window shapes width-first (Table I lists the VGG-13
    layer-1 optimum as ``10x3``, found with ``PW_w = 10, PW_h = 3``), so
    :meth:`__str__` renders ``WxH`` to match the paper's tables, while
    the attributes keep explicit names to avoid ambiguity.
    """

    h: int
    w: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", require_positive_int("h", self.h))
        object.__setattr__(self, "w", require_positive_int("w", self.w))

    @classmethod
    def square(cls, size: int) -> "ParallelWindow":
        """A square ``size x size`` window."""
        return cls(h=size, w=size)

    @classmethod
    def of_kernel(cls, layer: ConvLayer) -> "ParallelWindow":
        """The kernel-sized window (the im2col degenerate case)."""
        return cls(h=layer.kernel_h, w=layer.kernel_w)

    @classmethod
    def spanning(cls, layer: ConvLayer, nw_h: int,
                 nw_w: int) -> "ParallelWindow":
        """The window holding ``nw_h x nw_w`` of *layer*'s kernel windows.

        Each axis spans ``K + (nw - 1) * stride`` pixels — the inverse
        of :meth:`windows_along`.

        >>> layer = ConvLayer.square(14, 3, 8, 8, stride=2)
        >>> str(ParallelWindow.spanning(layer, 2, 3))
        '7x5'
        """
        nw_h = require_positive_int("nw_h", nw_h)
        nw_w = require_positive_int("nw_w", nw_w)
        return cls(h=layer.kernel_h + (nw_h - 1) * layer.stride,
                   w=layer.kernel_w + (nw_w - 1) * layer.stride)

    @classmethod
    def parse(cls, spec: str) -> "ParallelWindow":
        """Parse a paper-style ``WxH`` string (width first).

        >>> ParallelWindow.parse("10x3")
        ParallelWindow(h=3, w=10)
        """
        text = spec.strip().lower()
        w_text, _, h_text = text.partition("x")
        if not h_text:
            raise ConfigurationError(f"window spec must look like '4x3', got {spec!r}")
        try:
            h, w = int(h_text), int(w_text)
        except ValueError:
            raise ConfigurationError(
                f"window spec must look like '4x3', got {spec!r}") from None
        return cls(h=h, w=w)

    # ------------------------------------------------------------------
    @property
    def area(self) -> int:
        """Number of IFM elements per channel inside the window."""
        return self.h * self.w

    @property
    def is_square(self) -> bool:
        """Whether the window is square."""
        return self.h == self.w

    def windows_along(self, layer: ConvLayer) -> Tuple[int, int]:
        """Kernel windows inside the window per axis: ``(nw_h, nw_w)``.

        ``(PW - K) / stride + 1`` per axis.  Raises
        :class:`ConfigurationError` if the window is smaller than the
        kernel in either dimension, and :class:`MappingError` if it is
        off the layer's stride grid (``PW - K`` not a multiple of the
        stride), where no whole number of kernel windows fills it.

        >>> ParallelWindow(h=5, w=7).windows_along(
        ...     ConvLayer.square(14, 3, 8, 8, stride=2))
        (2, 3)
        """
        extra_h = self.h - layer.kernel_h
        extra_w = self.w - layer.kernel_w
        if extra_h < 0 or extra_w < 0:
            raise ConfigurationError(
                f"parallel window {self} smaller than kernel "
                f"{layer.kernel_h}x{layer.kernel_w}"
            )
        stride = layer.stride
        if extra_h % stride or extra_w % stride:
            raise MappingError(
                f"window {self} is off the stride-{stride} grid of a "
                f"{layer.kernel_h}x{layer.kernel_w} kernel: each side "
                f"must be the kernel's plus a multiple of {stride}"
            )
        return extra_h // stride + 1, extra_w // stride + 1

    def windows_inside(self, layer: ConvLayer) -> int:
        """Total kernel windows inside the parallel window (``N_w^P``)."""
        nw_h, nw_w = self.windows_along(layer)
        return nw_h * nw_w

    def fits_ifm(self, layer: ConvLayer) -> bool:
        """Whether the window fits inside the layer's (padded) IFM."""
        return self.h <= layer.padded_ifm_h and self.w <= layer.padded_ifm_w

    def covers_kernel(self, layer: ConvLayer) -> bool:
        """Whether the window is at least kernel-sized in both dims."""
        return self.h >= layer.kernel_h and self.w >= layer.kernel_w

    def transposed(self) -> "ParallelWindow":
        """The window with height and width swapped."""
        return ParallelWindow(h=self.w, w=self.h)

    def __str__(self) -> str:  # noqa: D105 - paper-style "WxH"
        return f"{self.w}x{self.h}"


def num_candidate_windows(layer: ConvLayer) -> int:
    """How many windows Algorithm 1's scan visits for *layer*.

    The full stride grid from the kernel to the padded IFM — one window
    per OFM element, ``OFM_h x OFM_w`` — minus the kernel-sized cell:
    the length of :func:`iter_candidate_windows` without iterating it.

    >>> num_candidate_windows(ConvLayer.square(14, 3, 8, 8))
    143
    >>> num_candidate_windows(ConvLayer.square(14, 3, 8, 8, stride=2))
    35
    """
    return layer.ofm_h * layer.ofm_w - 1


def iter_candidate_windows(layer: ConvLayer) -> Iterator[ParallelWindow]:
    """Iterate windows exactly in Algorithm 1's scan order.

    The paper's loop increments ``PW_w`` first (inner) and ``PW_h``
    second (outer), starting from the kernel size and stopping at the IFM
    size, in steps of the stride.  The kernel-sized window itself is
    skipped: Algorithm 1 initialises the incumbent with the im2col cycle
    count instead, and the first candidate evaluated is
    ``(K_w + s, K_h)``.

    Scan order matters for tie-breaking: Algorithm 1 only replaces the
    incumbent on a *strict* improvement, so the first window reaching the
    optimal cycle count is reported (e.g. ``10x3`` rather than the tying
    ``4x6`` for VGG-13 layer 1).
    """
    stride = layer.stride
    for h in range(layer.kernel_h, layer.padded_ifm_h + 1, stride):
        for w in range(layer.kernel_w, layer.padded_ifm_w + 1, stride):
            if h == layer.kernel_h and w == layer.kernel_w:
                continue
            yield ParallelWindow(h=h, w=w)
