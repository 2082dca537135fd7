"""Genotype encodings and their canonical text form.

Three encoding schemes are supported: a fixed-length binary string whose bits
wire up nodes inside convolution stages, a variable-length list of block genes
(residual / dense / pooling units), and a small cell DAG of op-typed nodes.

Every genotype has a canonical serialization -- a deterministic, scheme-tagged
text form that is injective per scheme. The SHA-224 digest of those bytes is
the genotype's identifier, used as the key of the fitness cache and in all
population logs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from ..errors import InvariantViolation

IDENTIFIER_HEX_LEN = 56  # SHA-224 digest, lowercase hex

#: Node operations understood by the cell-graph scheme.
CELL_OPS = ("conv3", "conv5", "maxpool", "identity")


class Scheme(str, Enum):
    """Encoding scheme tag; doubles as the leading field of the canonical form."""

    FIXED_BINARY = "FB"
    VARIABLE_BLOCKS = "VB"
    CELL_GRAPH = "CG"


class BlockKind(str, Enum):
    RES_UNIT = "R"
    DENSE_UNIT = "D"
    POOL = "P"


class PoolType(str, Enum):
    MAX = "max"
    MEAN = "mean"


@dataclass(frozen=True)
class BlockGene:
    """One gene of the variable-length block encoding.

    ``out_channels`` is ignored for pooling genes, and pooling genes always
    have ``amount == 1`` (repeated pooling is expressed as multiple genes,
    which keeps the canonical form injective).
    """

    kind: BlockKind
    out_channels: int = 0
    pool_type: PoolType | None = None
    amount: int = 1

    def __post_init__(self) -> None:
        if self.kind is BlockKind.POOL:
            if self.pool_type is None:
                raise InvariantViolation("pool gene requires a pool_type")
            if self.amount != 1:
                raise InvariantViolation("pool gene amount must be 1")
        else:
            if self.pool_type is not None:
                raise InvariantViolation(f"{self.kind.name} gene does not take a pool_type")
            if self.out_channels <= 0:
                raise InvariantViolation("unit gene requires positive out_channels")
            if self.amount <= 0:
                raise InvariantViolation("gene amount must be positive")


@dataclass(frozen=True)
class FixedBinaryPayload:
    """Bit vector partitioned into stages of ``k`` nodes each.

    Stage ``s`` with ``k`` nodes owns ``k*(k-1)/2`` bits enumerating the node
    pairs ``(i, j), i < j`` in row-major order of the upper triangle.
    """

    stage_sizes: tuple[int, ...]
    bits: str

    def __post_init__(self) -> None:
        if not self.stage_sizes:
            raise InvariantViolation("fixed-binary payload requires at least one stage")
        if any(k < 2 for k in self.stage_sizes):
            raise InvariantViolation("each stage needs at least 2 nodes")
        expected = sum(k * (k - 1) // 2 for k in self.stage_sizes)
        if len(self.bits) != expected:
            raise InvariantViolation(
                f"bit vector length {len(self.bits)} != expected {expected} "
                f"for stages {self.stage_sizes}"
            )
        if set(self.bits) - {"0", "1"}:
            raise InvariantViolation("bit vector must contain only 0/1")

    def stage_bits(self) -> tuple[str, ...]:
        """Slice the flat bit vector into per-stage substrings."""
        out, pos = [], 0
        for k in self.stage_sizes:
            n = k * (k - 1) // 2
            out.append(self.bits[pos : pos + n])
            pos += n
        return tuple(out)


@dataclass(frozen=True)
class CellGraphPayload:
    """A small DAG: ``ops[i]`` labels node ``i``, edges run low index -> high index.

    Edges must be sorted and unique, and exactly one node may lack consumers
    (the cell output).
    """

    ops: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise InvariantViolation("cell graph requires at least one node")
        unknown = set(self.ops) - set(CELL_OPS)
        if unknown:
            raise InvariantViolation(f"unknown cell ops: {sorted(unknown)}")
        n = len(self.ops)
        seen: set[tuple[int, int]] = set()
        for src, dst in self.edges:
            if not (0 <= src < dst < n):
                raise InvariantViolation(f"edge ({src},{dst}) is not a forward edge in [0,{n})")
            if (src, dst) in seen:
                raise InvariantViolation(f"duplicate edge ({src},{dst})")
            seen.add((src, dst))
        if self.edges != tuple(sorted(self.edges)):
            raise InvariantViolation("edges must be in canonical sorted order")
        sources = {src for src, _ in self.edges}
        sinks = [i for i in range(n) if i not in sources]
        if len(sinks) != 1:
            raise InvariantViolation(f"cell graph must have exactly one output node, found {sinks}")

    @property
    def output_node(self) -> int:
        sources = {src for src, _ in self.edges}
        return next(i for i in range(len(self.ops)) if i not in sources)

    def predecessors(self, node: int) -> list[int]:
        return [s for s, d in self.edges if d == node]


Payload = FixedBinaryPayload | tuple[BlockGene, ...] | CellGraphPayload


@dataclass(frozen=True)
class Genotype:
    """An encoding-tagged architecture representation.

    Construct through the scheme-specific factories, which validate the
    structural invariants of the payload. Space-level constraints (length
    bounds, channel menus, pooling budgets) are checked by the encoding
    spaces, not here.
    """

    scheme: Scheme
    payload: Payload

    def __post_init__(self) -> None:
        expected = {
            Scheme.FIXED_BINARY: FixedBinaryPayload,
            Scheme.VARIABLE_BLOCKS: tuple,
            Scheme.CELL_GRAPH: CellGraphPayload,
        }[self.scheme]
        if not isinstance(self.payload, expected):
            raise InvariantViolation(f"{self.scheme.value} payload has wrong type")
        if self.scheme is Scheme.VARIABLE_BLOCKS:
            if not self.payload or not all(isinstance(g, BlockGene) for g in self.payload):
                raise InvariantViolation("variable-blocks payload must be a non-empty BlockGene tuple")

    @staticmethod
    def fixed_binary(stage_sizes: tuple[int, ...], bits: str) -> "Genotype":
        return Genotype(Scheme.FIXED_BINARY, FixedBinaryPayload(tuple(stage_sizes), bits))

    @staticmethod
    def variable_blocks(genes: list[BlockGene] | tuple[BlockGene, ...]) -> "Genotype":
        return Genotype(Scheme.VARIABLE_BLOCKS, tuple(genes))

    @staticmethod
    def cell_graph(ops: tuple[str, ...], edges: tuple[tuple[int, int], ...]) -> "Genotype":
        return Genotype(Scheme.CELL_GRAPH, CellGraphPayload(tuple(ops), tuple(sorted(edges))))

    @property
    def blocks(self) -> tuple[BlockGene, ...]:
        if self.scheme is not Scheme.VARIABLE_BLOCKS:
            raise InvariantViolation("not a variable-blocks genotype")
        return self.payload  # type: ignore[return-value]


def canonical_text(g: Genotype) -> str:
    """Deterministic text form of a genotype, injective within its scheme.

    Format (fields joined by ':', scheme tag first):

    * ``FB:<k1,k2,...>:<stage bits joined by ','>``
    * ``VB:<gene>|<gene>|...`` with genes ``R:<ch>:<amount>``, ``D:<ch>:<amount>``
      or ``P:<max|mean>``
    * ``CG:<op,op,...>:<src-dst,src-dst,...>``
    """
    if g.scheme is Scheme.FIXED_BINARY:
        p: FixedBinaryPayload = g.payload  # type: ignore[assignment]
        sizes = ",".join(str(k) for k in p.stage_sizes)
        return f"FB:{sizes}:{','.join(p.stage_bits())}"
    if g.scheme is Scheme.VARIABLE_BLOCKS:
        parts = []
        for gene in g.blocks:
            if gene.kind is BlockKind.POOL:
                parts.append(f"P:{gene.pool_type.value}")  # type: ignore[union-attr]
            else:
                parts.append(f"{gene.kind.value}:{gene.out_channels}:{gene.amount}")
        return "VB:" + "|".join(parts)
    p2: CellGraphPayload = g.payload  # type: ignore[assignment]
    edges = ",".join(f"{s}-{d}" for s, d in p2.edges)
    return f"CG:{','.join(p2.ops)}:{edges}"


def canonical_serialize(g: Genotype) -> bytes:
    """UTF-8 bytes of the canonical text form."""
    return canonical_text(g).encode("utf-8")


def identifier(g: Genotype) -> str:
    """SHA-224 hex digest (56 lowercase hex chars) of the canonical serialization."""
    return hashlib.sha224(canonical_serialize(g)).hexdigest()


def parse_canonical(text: str) -> Genotype:
    """Inverse of :func:`canonical_text`; raises InvariantViolation on bad input."""
    try:
        tag, rest = text.split(":", 1)
    except ValueError:
        raise InvariantViolation(f"malformed canonical genotype: {text!r}") from None
    if tag == Scheme.FIXED_BINARY.value:
        try:
            sizes_part, bits_part = rest.split(":")
            sizes = tuple(int(s) for s in sizes_part.split(","))
        except ValueError:
            raise InvariantViolation(f"malformed fixed-binary genotype: {text!r}") from None
        return Genotype.fixed_binary(sizes, bits_part.replace(",", ""))
    if tag == Scheme.VARIABLE_BLOCKS.value:
        genes: list[BlockGene] = []
        for part in rest.split("|"):
            fields = part.split(":")
            try:
                if fields[0] == BlockKind.POOL.value:
                    if len(fields) != 2:
                        raise ValueError
                    genes.append(BlockGene(BlockKind.POOL, pool_type=PoolType(fields[1])))
                else:
                    kind = BlockKind(fields[0])
                    if kind is BlockKind.POOL or len(fields) != 3:
                        raise ValueError
                    genes.append(BlockGene(kind, out_channels=int(fields[1]), amount=int(fields[2])))
            except ValueError:
                raise InvariantViolation(f"malformed block gene: {part!r}") from None
        return Genotype.variable_blocks(genes)
    if tag == Scheme.CELL_GRAPH.value:
        try:
            ops_part, edges_part = rest.split(":")
            ops = tuple(ops_part.split(","))
            edges: tuple[tuple[int, int], ...] = ()
            if edges_part:
                edges = tuple(
                    (int(e.split("-")[0]), int(e.split("-")[1])) for e in edges_part.split(",")
                )
        except (ValueError, IndexError):
            raise InvariantViolation(f"malformed cell graph genotype: {text!r}") from None
        return Genotype.cell_graph(ops, edges)
    raise InvariantViolation(f"unknown scheme tag {tag!r}")
