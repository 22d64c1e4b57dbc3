"""Model zoo.

:func:`vgg13` and :func:`resnet18` reproduce the paper's Table I layer
lists *verbatim* (stride-1 folded view, distinct shapes only).  The
remaining constructors extend the zoo the way a downstream user would
expect: other VGG variants, AlexNet, and the *full* ResNet-18 with
strides/padding and block repeat counts for end-to-end studies.

Table I conventions baked in here:

* The listed ``Image (I x I)`` is the IFM of the folded stride-1 layer.
* VGG-13 padding keeps feature sizes at 224/112/56/28/14 across stages;
  the paper lists those stage sizes directly.
* ResNet-18's five rows are its five distinct conv shapes: the stride-2
  7x7 stem folded to 112x112, then one row per stage (56, 28, 14, 7).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..core.layer import ConvLayer
from .layerset import Network

__all__ = [
    "vgg13",
    "resnet18",
    "vgg11",
    "vgg16",
    "vgg19",
    "alexnet",
    "resnet18_full",
    "NETWORKS",
    "get_network",
]


def _vgg(name: str, stage_convs: Sequence[int]) -> Network:
    """Build a paper-convention VGG: stages of 3x3 convs at 224..14."""
    stage_sizes = (224, 112, 56, 28, 14)
    stage_channels = (64, 128, 256, 512, 512)
    layers: List[ConvLayer] = []
    in_ch = 3
    index = 1
    for stage, conv_count in enumerate(stage_convs):
        out_ch = stage_channels[stage]
        for _ in range(conv_count):
            layers.append(ConvLayer.square(
                stage_sizes[stage], 3, in_ch, out_ch,
                name=f"conv{index}"))
            in_ch = out_ch
            index += 1
    return Network(name=name, layers=tuple(layers))


def vgg13() -> Network:
    """VGG-13 exactly as evaluated in the paper (Table I, ten rows).

    >>> [l.shape_str for l in vgg13()][:3]
    ['3x3x3x64', '3x3x64x64', '3x3x64x128']
    """
    return _vgg("VGG-13", (2, 2, 2, 2, 2))


def vgg11() -> Network:
    """VGG-11 (one conv in the first two stages)."""
    return _vgg("VGG-11", (1, 1, 2, 2, 2))


def vgg16() -> Network:
    """VGG-16 (three convs in the last three stages)."""
    return _vgg("VGG-16", (2, 2, 3, 3, 3))


def vgg19() -> Network:
    """VGG-19 (four convs in the last three stages)."""
    return _vgg("VGG-19", (2, 2, 4, 4, 4))


def resnet18() -> Network:
    """ResNet-18 exactly as evaluated in the paper (Table I, five rows)."""
    rows: Tuple[Tuple[int, int, int, int], ...] = (
        # (ifm, kernel, in_channels, out_channels)
        (112, 7, 3, 64),
        (56, 3, 64, 64),
        (28, 3, 128, 128),
        (14, 3, 256, 256),
        (7, 3, 512, 512),
    )
    layers = tuple(
        ConvLayer.square(ifm, k, ic, oc, name=f"conv{i}")
        for i, (ifm, k, ic, oc) in enumerate(rows, start=1))
    return Network(name="Resnet-18", layers=layers)


def resnet18_full() -> Network:
    """Full ResNet-18 with real strides, padding and repeat counts.

    Planned as written: windows are counted on each layer's stride
    grid.  ``Network.folded()`` gives the paper-style stride-1 view
    (``resnet18()`` is the paper's own listing).  Downsample
    (1x1 projection) convs are included — the paper omits them, which
    is visible when comparing totals.
    """
    layers = [
        ConvLayer.square(224, 7, 3, 64, stride=2, padding=3, name="conv1"),
        ConvLayer.square(56, 3, 64, 64, padding=1, repeats=4, name="conv2_x"),
        ConvLayer.square(56, 3, 64, 128, stride=2, padding=1,
                         name="conv3_1"),
        ConvLayer.square(56, 1, 64, 128, stride=2, name="conv3_down"),
        ConvLayer.square(28, 3, 128, 128, padding=1, repeats=3,
                         name="conv3_x"),
        ConvLayer.square(28, 3, 128, 256, stride=2, padding=1,
                         name="conv4_1"),
        ConvLayer.square(28, 1, 128, 256, stride=2, name="conv4_down"),
        ConvLayer.square(14, 3, 256, 256, padding=1, repeats=3,
                         name="conv4_x"),
        ConvLayer.square(14, 3, 256, 512, stride=2, padding=1,
                         name="conv5_1"),
        ConvLayer.square(14, 1, 256, 512, stride=2, name="conv5_down"),
        ConvLayer.square(7, 3, 512, 512, padding=1, repeats=3,
                         name="conv5_x"),
    ]
    return Network(name="Resnet-18-full", layers=tuple(layers))


def alexnet() -> Network:
    """AlexNet conv layers (folded stride-1 view, single-tower sizes)."""
    layers = (
        ConvLayer.square(55 + 10, 11, 3, 96, name="conv1"),
        ConvLayer.square(27 + 4, 5, 96, 256, name="conv2"),
        ConvLayer.square(13 + 2, 3, 256, 384, name="conv3"),
        ConvLayer.square(13 + 2, 3, 384, 384, name="conv4"),
        ConvLayer.square(13 + 2, 3, 384, 256, name="conv5"),
    )
    return Network(name="AlexNet", layers=layers)


NETWORKS: Dict[str, Callable[[], Network]] = {
    "vgg11": vgg11,
    "vgg13": vgg13,
    "vgg16": vgg16,
    "vgg19": vgg19,
    "alexnet": alexnet,
    "resnet18": resnet18,
    "resnet18-full": resnet18_full,
}


def get_network(name: str) -> Network:
    """Look a zoo network up by (case-insensitive) name."""
    key = name.strip().lower()
    try:
        return NETWORKS[key]()
    except KeyError:
        known = ", ".join(sorted(NETWORKS))
        raise ValueError(f"unknown network {name!r}; known: {known}") from None
