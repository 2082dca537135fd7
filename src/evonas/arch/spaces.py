"""Configured encoding spaces: sampling, space-level validation, and variation.

A space owns everything that depends on configuration rather than on the
genotype alone -- length bounds, channel menus, pooling budgets, and the
channel widths needed to decode the fixed-binary and cell-graph schemes.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ConfigError, InvariantViolation, MutationStuckError
from . import ir
from .genotype import CELL_OPS, BlockGene, BlockKind, Genotype, PoolType, Scheme

_MAX_RETRIES = 64

#: Settings keys, besides the dataset, that change how a genotype decodes:
#: the keys ``EncodingSpace.decode_settings`` may write.
DECODE_KEYS = ("stage_channels", "cell_channels")


def decode_under(
    g: Genotype, input_shape: tuple[int, int, int], head_classes: int, settings: Mapping[str, str]
) -> ir.ArchIR:
    """Decode ``g`` under the ``DECODE_KEYS`` of ``settings``, read back as
    ``decode_settings`` writes them; an absent key takes the decoder default."""
    stage_channels = settings.get("stage_channels")
    return ir.decode(
        g,
        input_shape,
        head_classes,
        stage_channels=tuple(int(c) for c in stage_channels.split(",")) if stage_channels else None,
        cell_channels=int(settings.get("cell_channels", ir.DEFAULT_CELL_CHANNELS)),
    )


class EncodingSpace(ABC):
    """Sampling and variation over one encoding scheme."""

    scheme: Scheme

    @abstractmethod
    def sample(self, rng: random.Random) -> Genotype: ...

    @abstractmethod
    def validate(self, g: Genotype) -> None:
        """Raise InvariantViolation if ``g`` falls outside this space."""

    @abstractmethod
    def mutate(self, g: Genotype, p_m: float, rng: random.Random) -> Genotype:
        """Return a valid mutant (possibly equal to ``g`` when p_m is low)."""

    @abstractmethod
    def crossover_pair(
        self, a: Genotype, b: Genotype, rng: random.Random
    ) -> tuple[Genotype, Genotype]:
        """Unconditionally recombine two same-scheme genotypes into valid offspring."""

    def decode_settings(self) -> dict[str, str]:
        """Decode parameters that must travel with jobs (worker-side decode)."""
        return {}

    def decode(self, g: Genotype, input_shape: tuple[int, int, int], head_classes: int) -> ir.ArchIR:
        return decode_under(g, input_shape, head_classes, self.decode_settings())

    def _check_scheme(self, g: Genotype) -> None:
        if g.scheme is not self.scheme:
            raise InvariantViolation(f"genotype scheme {g.scheme} not handled by {type(self).__name__}")


@dataclass
class FixedBinarySpace(EncodingSpace):
    """Fixed-length bit strings over configured stages of conv nodes."""

    stage_sizes: tuple[int, ...] = (4, 5)
    stage_channels: tuple[int, ...] = (32, 64)

    def __post_init__(self) -> None:
        self.scheme = Scheme.FIXED_BINARY
        if not self.stage_sizes or any(k < 2 for k in self.stage_sizes):
            raise ConfigError("stage sizes must all be >= 2")
        if not self.stage_channels or any(c <= 0 for c in self.stage_channels):
            raise ConfigError("stage channels must be positive")

    @property
    def n_bits(self) -> int:
        return sum(k * (k - 1) // 2 for k in self.stage_sizes)

    def sample(self, rng: random.Random) -> Genotype:
        bits = "".join(rng.choice("01") for _ in range(self.n_bits))
        return Genotype.fixed_binary(self.stage_sizes, bits)

    def validate(self, g: Genotype) -> None:
        self._check_scheme(g)
        if g.payload.stage_sizes != self.stage_sizes:  # type: ignore[union-attr]
            raise InvariantViolation("stage sizes differ from the configured space")

    def mutate(self, g: Genotype, p_m: float, rng: random.Random) -> Genotype:
        # independent per-bit flips
        self.validate(g)
        bits = "".join(
            ("1" if c == "0" else "0") if rng.random() < p_m else c
            for c in g.payload.bits  # type: ignore[union-attr]
        )
        return Genotype.fixed_binary(self.stage_sizes, bits)

    def crossover_pair(self, a, b, rng):
        self.validate(a)
        self.validate(b)
        if self.n_bits < 2:
            return a, b
        cut = rng.randint(1, self.n_bits - 1)
        ab, bb = a.payload.bits, b.payload.bits  # type: ignore[union-attr]
        return (
            Genotype.fixed_binary(self.stage_sizes, ab[:cut] + bb[cut:]),
            Genotype.fixed_binary(self.stage_sizes, bb[:cut] + ab[cut:]),
        )

    def decode_settings(self) -> dict[str, str]:
        return {"stage_channels": ",".join(str(c) for c in self.stage_channels)}


@dataclass
class VariableBlocksSpace(EncodingSpace):
    """Variable-length block lists bounded in length and pooling depth.

    ``max_pools`` defaults to the number of 2x halvings the configured input
    resolution survives, so sampled genotypes always decode.
    """

    min_len: int = 3
    max_len: int = 8
    channel_choices: tuple[int, ...] = (32, 64, 128)
    amount_choices: tuple[int, ...] = (1, 2)
    input_hw: int = 32
    max_pools: int = field(default=-1)
    pool_prob: float = 0.25

    def __post_init__(self) -> None:
        self.scheme = Scheme.VARIABLE_BLOCKS
        if not (1 <= self.min_len <= self.max_len):
            raise ConfigError(f"bad length bounds [{self.min_len}, {self.max_len}]")
        if not self.channel_choices or any(c <= 0 for c in self.channel_choices):
            raise ConfigError("channel choices must be positive")
        if self.max_pools < 0:
            self.max_pools = max(0, self.input_hw.bit_length() - 1)  # floor(log2(hw))

    def _random_gene(self, rng: random.Random, allow_pool: bool) -> BlockGene:
        if allow_pool and rng.random() < self.pool_prob:
            return BlockGene(BlockKind.POOL, pool_type=rng.choice((PoolType.MAX, PoolType.MEAN)))
        kind = rng.choice((BlockKind.RES_UNIT, BlockKind.DENSE_UNIT))
        return BlockGene(
            kind,
            out_channels=rng.choice(self.channel_choices),
            amount=rng.choice(self.amount_choices),
        )

    def sample(self, rng: random.Random) -> Genotype:
        for _ in range(_MAX_RETRIES):
            n = rng.randint(self.min_len, self.max_len)
            genes = [self._random_gene(rng, allow_pool=True) for _ in range(n)]
            g = Genotype.variable_blocks(genes)
            try:
                self.validate(g)
                return g
            except InvariantViolation:
                continue
        raise ConfigError("could not sample a valid block list; space constraints infeasible")

    def validate(self, g: Genotype) -> None:
        self._check_scheme(g)
        genes = g.blocks
        if not self.min_len <= len(genes) <= self.max_len:
            raise InvariantViolation(
                f"length {len(genes)} outside [{self.min_len}, {self.max_len}]"
            )
        pools = sum(1 for gene in genes if gene.kind is BlockKind.POOL)
        if pools == len(genes):
            raise InvariantViolation("block list needs at least one non-pooling block")
        if pools > self.max_pools:
            raise InvariantViolation(f"{pools} pooling blocks exceed budget {self.max_pools}")
        for gene in genes:
            if gene.kind is not BlockKind.POOL:
                if gene.out_channels not in self.channel_choices:
                    raise InvariantViolation(f"channels {gene.out_channels} not in the menu")
                if gene.amount not in self.amount_choices:
                    raise InvariantViolation(f"amount {gene.amount} not in the menu")

    def mutate(self, g: Genotype, p_m: float, rng: random.Random) -> Genotype:
        self.validate(g)
        if rng.random() >= p_m:
            return g
        for _ in range(_MAX_RETRIES):
            genes = list(g.blocks)
            op = rng.choice(("add", "remove", "alter"))
            if op == "add" and len(genes) < self.max_len:
                genes.insert(rng.randint(0, len(genes)), self._random_gene(rng, allow_pool=True))
            elif op == "remove" and len(genes) > self.min_len:
                genes.pop(rng.randrange(len(genes)))
            else:
                i = rng.randrange(len(genes))
                old = genes[i]
                if old.kind is BlockKind.POOL:
                    flip = PoolType.MEAN if old.pool_type is PoolType.MAX else PoolType.MAX
                    genes[i] = BlockGene(BlockKind.POOL, pool_type=flip)
                else:
                    genes[i] = BlockGene(
                        old.kind,
                        out_channels=rng.choice(self.channel_choices),
                        amount=rng.choice(self.amount_choices),
                    )
            try:
                mutant = Genotype.variable_blocks(genes)
                self.validate(mutant)
                return mutant
            except InvariantViolation:
                continue
        raise MutationStuckError("no valid mutant found within the retry budget")

    def crossover_pair(self, a, b, rng):
        self.validate(a)
        self.validate(b)
        ga, gb = a.blocks, b.blocks
        if len(ga) < 2 or len(gb) < 2:
            return a, b
        # one-point with independent cut positions, tails swapped; invalid
        # offspring (length bounds, pooling budget) are rejected and re-cut
        for _ in range(_MAX_RETRIES):
            ca = rng.randint(1, len(ga) - 1)
            cb = rng.randint(1, len(gb) - 1)
            try:
                o1 = Genotype.variable_blocks(ga[:ca] + gb[cb:])
                o2 = Genotype.variable_blocks(gb[:cb] + ga[ca:])
                self.validate(o1)
                self.validate(o2)
                return o1, o2
            except InvariantViolation:
                continue
        return a, b


@dataclass
class CellGraphSpace(EncodingSpace):
    """Small op-typed DAGs with a fixed node count and a single output node."""

    n_nodes: int = 5
    cell_channels: int = 32
    ops: tuple[str, ...] = CELL_OPS

    def __post_init__(self) -> None:
        self.scheme = Scheme.CELL_GRAPH
        if self.n_nodes < 1:
            raise ConfigError("cell graph needs at least one node")
        if self.cell_channels <= 0:
            raise ConfigError("cell channels must be positive")
        unknown = set(self.ops) - set(CELL_OPS)
        if unknown:
            raise ConfigError(f"unknown cell ops {sorted(unknown)}")

    def _normalize(self, ops: list[str], edges: set[tuple[int, int]]) -> Genotype:
        # route every consumer-less non-final node into the last node so the
        # graph has exactly one output
        n = len(ops)
        sources = {src for src, _ in edges}
        for i in range(n - 1):
            if i not in sources:
                edges.add((i, n - 1))
        return Genotype.cell_graph(tuple(ops), tuple(sorted(edges)))

    def sample(self, rng: random.Random) -> Genotype:
        ops = [rng.choice(self.ops) for _ in range(self.n_nodes)]
        edges: set[tuple[int, int]] = set()
        for j in range(1, self.n_nodes):
            for src in rng.sample(range(j), k=min(j, rng.randint(1, 2))):
                edges.add((src, j))
        return self._normalize(ops, edges)

    def validate(self, g: Genotype) -> None:
        self._check_scheme(g)
        payload = g.payload
        if len(payload.ops) != self.n_nodes:  # type: ignore[union-attr]
            raise InvariantViolation(f"expected {self.n_nodes} nodes")
        unknown = set(payload.ops) - set(self.ops)  # type: ignore[union-attr]
        if unknown:
            raise InvariantViolation(f"ops {sorted(unknown)} not in this space")

    def mutate(self, g: Genotype, p_m: float, rng: random.Random) -> Genotype:
        self.validate(g)
        if rng.random() >= p_m:
            return g
        payload = g.payload
        for _ in range(_MAX_RETRIES):
            ops = list(payload.ops)  # type: ignore[union-attr]
            edges = set(payload.edges)  # type: ignore[union-attr]
            if rng.random() < 0.5 or not edges:  # relabel one node op
                i = rng.randrange(len(ops))
                choices = [op for op in self.ops if op != ops[i]]
                if not choices:
                    continue
                ops[i] = rng.choice(choices)
            else:  # rewire one edge to a different source
                src, dst = rng.choice(sorted(edges))
                candidates = [s for s in range(dst) if s != src and (s, dst) not in edges]
                if not candidates:
                    continue
                edges.remove((src, dst))
                edges.add((rng.choice(candidates), dst))
            try:
                mutant = self._normalize(ops, edges)
                self.validate(mutant)
                if mutant != g:
                    return mutant
            except InvariantViolation:
                continue
        raise MutationStuckError("no valid cell-graph mutant found within the retry budget")

    def crossover_pair(self, a, b, rng):
        # the cell scheme evolves by mutation alone; recombination is a no-op
        self.validate(a)
        self.validate(b)
        return a, b

    def decode_settings(self) -> dict[str, str]:
        return {"cell_channels": str(self.cell_channels)}
