import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonas.arch import (
    BlockGene,
    BlockKind,
    Genotype,
    PoolType,
    canonical_serialize,
    canonical_text,
    identifier,
    parse_canonical,
)
from evonas.arch.spaces import CellGraphSpace, FixedBinarySpace, VariableBlocksSpace
from evonas.errors import InvariantViolation

from sha224_reference import sha224_hex


def gene_res(ch=64, amount=1):
    return BlockGene(BlockKind.RES_UNIT, out_channels=ch, amount=amount)


def gene_pool(kind=PoolType.MAX):
    return BlockGene(BlockKind.POOL, pool_type=kind)


def test_fixed_binary_serialization_pinned():
    g = Genotype.fixed_binary((3,), "011")
    assert canonical_serialize(g) == b"FB:3:011"


def test_variable_blocks_serialization_pinned():
    g = Genotype.variable_blocks([gene_res(64, 1), gene_pool(PoolType.MAX)])
    assert canonical_serialize(g) == b"VB:R:64:1|P:max"


def test_serialization_is_deterministic():
    a = Genotype.fixed_binary((4,), "110100")
    b = Genotype.fixed_binary((4,), "110100")
    assert canonical_serialize(a) == canonical_serialize(b)
    assert identifier(a) == identifier(b)


def test_identifier_is_sha224_of_canonical_bytes():
    g = Genotype.fixed_binary((3,), "011")
    assert identifier(g) == sha224_hex(b"FB:3:011")
    assert len(identifier(g)) == 56


def test_one_bit_difference_changes_identifier():
    a = Genotype.fixed_binary((3,), "011")
    b = Genotype.fixed_binary((3,), "010")
    assert identifier(a) == sha224_hex(canonical_serialize(a))
    assert identifier(b) == sha224_hex(canonical_serialize(b))
    assert identifier(a) != identifier(b)


def test_fixed_binary_length_invariant():
    with pytest.raises(InvariantViolation):
        Genotype.fixed_binary((3,), "0110")  # 3 nodes need exactly 3 bits
    with pytest.raises(InvariantViolation):
        Genotype.fixed_binary((3,), "01x")


def test_pool_gene_invariants():
    with pytest.raises(InvariantViolation):
        BlockGene(BlockKind.POOL)  # pool_type required
    with pytest.raises(InvariantViolation):
        BlockGene(BlockKind.POOL, pool_type=PoolType.MAX, amount=2)
    with pytest.raises(InvariantViolation):
        BlockGene(BlockKind.RES_UNIT, out_channels=0)


def test_cell_graph_requires_single_output():
    # two sinks: node1 and node2 both lack consumers
    with pytest.raises(InvariantViolation):
        Genotype.cell_graph(("conv3", "conv3", "conv3"), ((0, 1), (0, 2)))
    g = Genotype.cell_graph(("conv3", "conv3", "conv3"), ((0, 1), (0, 2), (1, 2)))
    assert g.payload.output_node == 2


def test_cell_graph_rejects_cycles_and_duplicates():
    with pytest.raises(InvariantViolation):
        Genotype.cell_graph(("conv3", "conv3"), ((1, 0),))
    with pytest.raises(InvariantViolation):
        Genotype.cell_graph(("conv3", "conv3"), ((0, 1), (0, 1)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Genotype.fixed_binary((4, 5), "1101001011010110"),
        lambda: Genotype.variable_blocks([gene_res(32, 2), gene_pool(), gene_res(128, 1)]),
        lambda: Genotype.cell_graph(("conv3", "maxpool", "identity"), ((0, 1), (0, 2), (1, 2))),
    ],
)
def test_parse_canonical_round_trip(build):
    g = build()
    text = canonical_text(g)
    assert parse_canonical(text) == g
    assert canonical_text(parse_canonical(text)) == text


def test_parse_canonical_rejects_garbage():
    for bad in ("", "XX:1:0", "FB:3", "VB:Q:1:1", "VB:X:32:1", "VB:P:avg", "VB:P:max:1", "VB:R:32",
                "CG:conv3", "FB:three:011"):
        with pytest.raises(InvariantViolation):
            parse_canonical(bad)


@given(
    st.sampled_from(
        [
            FixedBinarySpace(stage_sizes=(4, 5), stage_channels=(8, 16)),
            VariableBlocksSpace(min_len=1, max_len=6, channel_choices=(8, 16, 32)),
            CellGraphSpace(n_nodes=4, cell_channels=8),
        ]
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_canonical_text_is_stable_and_round_trips(space, seed):
    g = space.sample(random.Random(seed))
    text = canonical_text(g)
    assert canonical_text(g) is text  # serialized once, then read
    assert canonical_text(Genotype(g.scheme, g.payload)) == text  # an equal, fresh genotype agrees
    parsed = parse_canonical(text)
    assert parsed == g and canonical_text(parsed) == text


def _sample_any(rng: random.Random) -> Genotype:
    space = rng.choice(
        [
            FixedBinarySpace(stage_sizes=(4, 5), stage_channels=(8, 16)),
            VariableBlocksSpace(min_len=1, max_len=6, channel_choices=(8, 16, 32)),
            CellGraphSpace(n_nodes=4, cell_channels=8),
        ]
    )
    return space.sample(rng)


def test_identifier_injectivity_on_sampled_corpus():
    rng = random.Random(99)
    texts: dict[str, str] = {}
    distinct = set()
    while len(distinct) < 10_000:
        g = _sample_any(rng)
        text = canonical_text(g)
        if text in distinct:
            continue
        distinct.add(text)
        ident = identifier(g)
        assert texts.setdefault(ident, text) == text, "identifier collision"
    assert len(texts) == 10_000


@given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=0, max_value=2**16 - 1))
@settings(max_examples=200)
def test_canonical_serialize_injective_fixed_binary(x, y):
    gx = Genotype.fixed_binary((4, 5), format(x, "016b"))
    gy = Genotype.fixed_binary((4, 5), format(y, "016b"))
    assert (canonical_serialize(gx) == canonical_serialize(gy)) == (x == y)


_gene_strategy = st.one_of(
    st.builds(
        BlockGene,
        kind=st.sampled_from((BlockKind.RES_UNIT, BlockKind.DENSE_UNIT)),
        out_channels=st.sampled_from((16, 32, 64)),
        amount=st.integers(min_value=1, max_value=3),
    ),
    st.builds(
        BlockGene,
        kind=st.just(BlockKind.POOL),
        pool_type=st.sampled_from((PoolType.MAX, PoolType.MEAN)),
    ),
)


@given(st.lists(_gene_strategy, min_size=1, max_size=6), st.lists(_gene_strategy, min_size=1, max_size=6))
@settings(max_examples=200)
def test_canonical_serialize_injective_variable_blocks(genes_a, genes_b):
    ga = Genotype.variable_blocks(genes_a)
    gb = Genotype.variable_blocks(genes_b)
    assert (canonical_serialize(ga) == canonical_serialize(gb)) == (tuple(genes_a) == tuple(genes_b))
