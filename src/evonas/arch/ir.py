"""Layer-level intermediate representation and analytic cost counting.

The IR is an ordered layer list over an implicit "current tensor": Conv, Pool
and Dense transform it, while three zero-cost markers express the non-linear
wiring that block and graph encodings need once flattened into a list:

* ``Ref(src)``    -- re-point the current tensor at the output of layer ``src``
                     (``src == -1`` is the network input),
* ``Skip(src)``   -- element-wise sum of layer ``src``'s output into the
                     current tensor (identity skip),
* ``Concat(src)`` -- channel-wise concatenation of layer ``src``'s output with
                     the current tensor.

Spatial conventions: convolutions are same-padded (``ceil(h / stride)``),
pooling windows floor-divide (``h // stride``). FLOPs are counted as
multiply-accumulates, not 2x MACs.

Costs are counted once per IR, by the consistency pass that re-derives every
shape: the first read of an IR's shapes, parameters, FLOPs or structure runs
it, and the result is kept on the immutable IR. The same pass also counts the
convolutions and their output channels, the depth and width the surrogate
backend reads, so no caller walks the layer list a second time. Layers are
immutable values, and the decoder shares one object per distinct value across
IRs. A convolution keeps its own constants (channels, stride, weight and
parameter counts) on first use, so the pass over an IR reads each shared
layer's constants rather than recomputing them, and it resolves the three
wiring markers' sources in one branch. The variable-blocks decoder appends a
whole residual or dense unit per builder call: a stride-1, same-padded unit
keeps its input's spatial size, so its skip and its concat always fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import DecodeError, InvariantViolation
from .genotype import POOL_TAGS, BlockKind, CellGraphPayload, FixedBinaryPayload, Genotype, Scheme

DEFAULT_STAGE_CHANNELS = 64
DEFAULT_CELL_CHANNELS = 32


@dataclass(frozen=True)
class Conv:
    kernel: int
    c_in: int
    c_out: int
    stride: int = 1
    bias: bool = True

    @functools.cached_property
    def _consts(self) -> tuple[int, int, int, int, int]:
        """(c_in, c_out, stride, weights, own params), read by the consistency pass."""
        weights = self.kernel * self.kernel * self.c_in * self.c_out
        own = weights + self.c_out if self.bias else weights
        return self.c_in, self.c_out, self.stride, weights, own


@dataclass(frozen=True)
class Pool:
    kind: str  # "max" | "mean"
    kernel: int
    stride: int


@dataclass(frozen=True)
class Dense:
    n_in: int
    n_out: int
    bias: bool = True


@dataclass(frozen=True)
class Ref:
    src: int


@dataclass(frozen=True)
class Skip:
    src: int


@dataclass(frozen=True)
class Concat:
    src: int


LayerSpec = Conv | Pool | Dense | Ref | Skip | Concat

Shape = tuple[int, ...]  # (c, h, w) before flattening, (n,) after a Dense


class _Walk(NamedTuple):
    """What the consistency pass derives from an IR: every layer's output shape, its costs,
    and the number of convolutions with the sum of their output channels."""

    shapes: tuple[Shape, ...]
    params: int
    macs: int
    convs: int
    conv_channels: int


@dataclass(frozen=True)
class ArchIR:
    """Shape-consistent network description; immutable once built."""

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

    @functools.cached_property
    def _walk(self) -> _Walk:
        # lazy, so that a malformed hand-built IR raises where it is first read
        return _consistency_walk(self)


def _consistency_walk(ir: ArchIR) -> _Walk:
    """Re-derive every shape from the input and count params and MACs on the way.

    Raises InvariantViolation on any mismatch, non-positive dimension, or
    dangling reference.
    """
    c, h, w = ir.input_shape
    if c <= 0 or h <= 0 or w <= 0:
        raise InvariantViolation(f"non-positive input shape {ir.input_shape}")
    network_input: Shape = (c, h, w)
    shapes: list[Shape] = []
    cur = network_input
    params = macs = convs = conv_channels = 0
    for idx, layer in enumerate(ir.layers):
        kind = type(layer)
        if kind is Conv:
            c_in, c_out, stride, weights, own = layer._consts
            if len(cur) != 3 or cur[0] != c_in:
                raise InvariantViolation(f"conv at {idx} expects {c_in} channels, has {cur}")
            oh, ow = -(-cur[1] // stride), -(-cur[2] // stride)
            cur = (c_out, oh, ow)
            if c_out <= 0 or oh <= 0 or ow <= 0:
                raise InvariantViolation(f"layer {idx} produced non-positive shape {cur}")
            params += own
            macs += weights * oh * ow
            convs += 1
            conv_channels += c_out
        elif kind is Ref or kind is Skip or kind is Concat:
            src = layer.src
            if src == -1:
                other = network_input
            elif 0 <= src < idx:
                other = shapes[src]
            else:
                raise InvariantViolation(f"layer {idx} references out-of-range layer {src}")
            if kind is Ref:
                cur = other
            elif kind is Skip:
                if other != cur:
                    raise InvariantViolation(f"skip at {idx} sums shapes {other} and {cur}")
            elif len(cur) != 3 or len(other) != 3 or other[1:] != cur[1:]:
                raise InvariantViolation(f"concat at {idx} joins shapes {other} and {cur}")
            else:
                cur = (cur[0] + other[0], cur[1], cur[2])
        elif kind is Pool:
            if len(cur) != 3:
                raise InvariantViolation(f"pool at {idx} after flattening")
            oh, ow = cur[1] // layer.stride, cur[2] // layer.stride
            if oh < 1 or ow < 1:
                raise InvariantViolation(f"pool at {idx} collapses {cur[1]}x{cur[2]} below 1x1")
            cur = (cur[0], oh, ow)
        elif kind is Dense:
            flat = math.prod(cur)
            if layer.n_in != flat:
                raise InvariantViolation(f"dense at {idx} expects {layer.n_in} inputs, has {flat}")
            if layer.n_out <= 0:
                raise InvariantViolation(f"layer {idx} produced non-positive shape {(layer.n_out,)}")
            cur = (layer.n_out,)
            weights = layer.n_in * layer.n_out
            params += weights + layer.n_out if layer.bias else weights
            macs += weights
        else:
            raise InvariantViolation(f"unknown layer kind {layer!r}")
        # only Conv and Dense bring new dimensions; the other kinds reuse or
        # shrink checked ones, so only those two check for non-positive shapes
        shapes.append(cur)
    return _Walk(tuple(shapes), params, macs, convs, conv_channels)


def check_shapes(ir: ArchIR) -> list[Shape]:
    """Propagate shapes through the layer list, returning each layer's output shape.

    This is the independent consistency pass: it re-derives every shape from
    the input and raises InvariantViolation on any mismatch, negative
    dimension, or dangling reference. It runs once per IR; the costs below
    read what it counted.
    """
    return list(ir._walk.shapes)


def param_count(ir: ArchIR) -> int:
    """Trainable parameter count: k*k*c_in*c_out (+bias) per conv, n_in*n_out (+bias) per dense."""
    return ir._walk.params


def flop_count(ir: ArchIR) -> int:
    """Multiply-accumulate count; pooling and wiring markers contribute zero."""
    return ir._walk.macs


def structure(ir: ArchIR) -> tuple[int, int, int]:
    """(convolutions, sum of their output channels, parameter count), as the one pass counted them."""
    walk = ir._walk
    return walk.convs, walk.conv_channels, walk.params


# Interned layer constructors: equal layer values share one immutable object,
# built the first time the value occurs. Their keys are kernel sizes, channel
# counts, strides and layer indices, so the tables stay small.
_conv = functools.cache(Conv)
_pool = functools.cache(Pool)
_dense = functools.cache(Dense)
_ref = functools.cache(Ref)
_skip = functools.cache(Skip)
_concat = functools.cache(Concat)


class _Builder:
    """Tracks the current tensor while appending layers; raises DecodeError on collapse.

    ``shapes[0]`` is the input's shape and ``shapes[i + 1]`` layer ``i``'s
    output shape, so ``shapes[src + 1]`` resolves every source, the input's
    -1 included, and the current tensor is always ``shapes[-1]``.
    """

    def __init__(self, input_shape: tuple[int, int, int]):
        self.input_shape = input_shape
        self.layers: list[LayerSpec] = []
        self.shapes: list[Shape] = [input_shape]

    @property
    def cur_idx(self) -> int:
        """Index of the layer producing the current tensor; -1 = input."""
        return len(self.layers) - 1

    def ref(self, src: int) -> None:
        if src != len(self.layers) - 1:
            self.layers.append(_ref(src))
            self.shapes.append(self.shapes[src + 1])

    def conv(self, kernel: int, c_out: int, stride: int = 1) -> int:
        c, h, w = self.shapes[-1]
        self.layers.append(_conv(kernel, c, c_out, stride))
        self.shapes.append((c_out, -(-h // stride), -(-w // stride)))
        return len(self.layers) - 1

    def pool(self, kind: str, kernel: int, stride: int) -> int:
        c, h, w = self.shapes[-1]
        oh, ow = h // stride, w // stride
        if oh < 1 or ow < 1:
            raise DecodeError(f"pooling collapses spatial size {h}x{w} below 1x1")
        self.layers.append(_pool(kind, kernel, stride))
        self.shapes.append((c, oh, ow))
        return len(self.layers) - 1

    def skip(self, src: int) -> int:
        other, cur = self.shapes[src + 1], self.shapes[-1]
        if other != cur:
            raise DecodeError(f"skip joins incompatible shapes {other} vs {cur}")
        self.layers.append(_skip(src))
        self.shapes.append(cur)
        return len(self.layers) - 1

    def res_unit(self, c_out: int) -> None:
        """Two stride-1 3x3 convolutions and the sum of their outputs.

        Same padding at stride 1 keeps the spatial size, so both outputs have
        shape ``(c_out, h, w)`` and the skip always fits.
        """
        c, h, w = self.shapes[-1]
        first = len(self.layers)
        out = (c_out, h, w)
        self.layers += (_conv(3, c, c_out, 1), _conv(3, c_out, c_out, 1), _skip(first))
        self.shapes += (out, out, out)

    def dense_unit(self, c_out: int) -> None:
        """A stride-1 3x3 convolution concatenated with the unit's input, whose spatial size it keeps."""
        c, h, w = self.shapes[-1]
        unit_input = len(self.layers) - 1
        self.layers += (_conv(3, c, c_out, 1), _concat(unit_input))
        self.shapes += ((c_out, h, w), (c_out + c, h, w))

    def merge_sum(self, sources: list[int]) -> None:
        """Point the current tensor at the element-wise sum of the given outputs."""
        self.ref(sources[0])
        for src in sources[1:]:
            self.skip(src)

    def head(self, classes: int) -> None:
        self.layers.append(_dense(math.prod(self.shapes[-1]), classes))
        self.shapes.append((classes,))

    def build(self) -> ArchIR:
        return ArchIR(self.input_shape, tuple(self.layers))


@functools.cache
def _node_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The node pairs (i, j), i < j, of a k-node stage, in the order of its bits."""
    return tuple((i, j) for i in range(k) for j in range(i + 1, k))


def _decode_fixed_binary(
    payload: FixedBinaryPayload,
    b: _Builder,
    stage_channels: tuple[int, ...] | None,
) -> None:
    channels = stage_channels or (DEFAULT_STAGE_CHANNELS,)
    for s, (k, bits) in enumerate(zip(payload.stage_sizes, payload.stage_bits())):
        ch = channels[s] if s < len(channels) else channels[-1]
        # edge (i, j) present iff the bit for pair (i, j), i < j, is set; each
        # node's feeders come out in ascending order
        feeders: list[list[int]] = [[] for _ in range(k)]
        consumed = [False] * k
        for (i, j), bit in zip(_node_pairs(k), bits):
            if bit == "1":
                feeders[j].append(i)
                consumed[i] = True
        stage_input = b.cur_idx
        node_out: list[int] = []
        for j in range(k):
            b.merge_sum([node_out[i] for i in feeders[j]] or [stage_input])
            node_out.append(b.conv(3, ch))
        b.merge_sum([node_out[i] for i in range(k) if not consumed[i]])
        if s < len(payload.stage_sizes) - 1:
            b.pool("max", 2, 2)


def _decode_blocks(genes, b: _Builder) -> None:
    for gene in genes:
        if gene.kind is BlockKind.POOL:
            b.pool(POOL_TAGS[gene.pool_type], 2, 2)
        else:  # residual or dense units, one builder call each
            unit = b.res_unit if gene.kind is BlockKind.RES_UNIT else b.dense_unit
            for _ in range(gene.amount):
                unit(gene.out_channels)


def _decode_cell_graph(payload: CellGraphPayload, b: _Builder, cell_channels: int) -> None:
    b.conv(3, cell_channels)  # stem: every node then sees cell_channels
    stem = b.cur_idx
    feeders: list[list[int]] = [[] for _ in payload.ops]
    for src, dst in payload.edges:  # sorted, so each node's feeders ascend
        feeders[dst].append(src)
    node_out: list[int] = []
    for j, op in enumerate(payload.ops):
        b.merge_sum([node_out[i] for i in feeders[j]] or [stem])
        if op == "conv3":
            node_out.append(b.conv(3, cell_channels))
        elif op == "conv5":
            node_out.append(b.conv(5, cell_channels))
        elif op == "maxpool":
            node_out.append(b.pool("max", 3, 1))
        else:  # identity: the node's output is its merged input
            node_out.append(b.cur_idx)
    # the output node: edges run forward, so the one node without consumers is the last
    b.ref(node_out[-1])


def decode(
    g: Genotype,
    input_shape: tuple[int, int, int],
    head_classes: int,
    *,
    stage_channels: tuple[int, ...] | None = None,
    cell_channels: int = DEFAULT_CELL_CHANNELS,
) -> ArchIR:
    """Expand a genotype into a shape-consistent IR ending in Dense(., head_classes).

    Raises DecodeError when the architecture collapses the spatial size below
    1x1; channel configuration for the fixed-binary and cell-graph schemes is
    supplied by the encoding space (defaults shown above).
    """
    if head_classes <= 0:
        raise InvariantViolation("head_classes must be positive")
    if any(d <= 0 for d in input_shape):
        raise InvariantViolation(f"non-positive input shape {input_shape}")
    b = _Builder(input_shape)
    if g.scheme is Scheme.FIXED_BINARY:
        _decode_fixed_binary(g.payload, b, stage_channels)  # type: ignore[arg-type]
    elif g.scheme is Scheme.VARIABLE_BLOCKS:
        _decode_blocks(g.blocks, b)
    else:
        _decode_cell_graph(g.payload, b, cell_channels)  # type: ignore[arg-type]
    b.head(head_classes)
    return b.build()
