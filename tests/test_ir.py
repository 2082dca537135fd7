import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonas.arch import (
    ArchIR,
    BlockGene,
    BlockKind,
    Concat,
    Conv,
    Dense,
    Genotype,
    Pool,
    PoolType,
    Ref,
    Skip,
    canonical_text,
    check_shapes,
    decode,
    flop_count,
    param_count,
    parse_canonical,
)
from evonas.arch.spaces import CellGraphSpace, FixedBinarySpace, VariableBlocksSpace
from evonas.errors import DecodeError, InvariantViolation


def res(ch, amount=1):
    return BlockGene(BlockKind.RES_UNIT, out_channels=ch, amount=amount)


def dense_unit(ch, amount=1):
    return BlockGene(BlockKind.DENSE_UNIT, out_channels=ch, amount=amount)


def pool(kind=PoolType.MAX):
    return BlockGene(BlockKind.POOL, pool_type=kind)


# ---------------------------------------------------------------- counting

def test_param_count_conv_spot_value():
    ir = ArchIR((3, 32, 32), (Conv(3, 3, 64),))
    assert param_count(ir) == 1792  # 3*3*3*64 + 64


def test_param_count_dense_spot_value():
    ir = ArchIR((128, 1, 1), (Dense(128, 10),))
    assert param_count(ir) == 1290  # 128*10 + 10


def test_param_count_empty_is_zero():
    assert param_count(ArchIR((3, 32, 32), ())) == 0


def test_flop_count_conv_spot_value():
    ir = ArchIR((3, 32, 32), (Conv(3, 3, 64),))
    assert flop_count(ir) == 1_769_472  # 9*3*64*32*32 on the 32x32 output


def test_flop_count_dense_and_pool():
    ir = ArchIR((128, 1, 1), (Dense(128, 10),))
    assert flop_count(ir) == 1280
    ir = ArchIR((3, 32, 32), (Pool("max", 2, 2),))
    assert flop_count(ir) == 0
    assert param_count(ir) == 0


def _oracle_costs(ir: ArchIR) -> tuple[int, int]:
    """Independent per-layer tabulation with its own shape propagation."""
    c, h, w = ir.input_shape
    outputs: list[tuple] = []
    cur: tuple = (c, h, w)
    params = 0
    flops = 0
    for layer in ir.layers:
        if isinstance(layer, Conv):
            oh = (cur[1] + layer.stride - 1) // layer.stride
            ow = (cur[2] + layer.stride - 1) // layer.stride
            params += layer.kernel**2 * layer.c_in * layer.c_out + (layer.c_out if layer.bias else 0)
            flops += layer.kernel**2 * layer.c_in * layer.c_out * oh * ow
            cur = (layer.c_out, oh, ow)
        elif isinstance(layer, Pool):
            cur = (cur[0], cur[1] // layer.stride, cur[2] // layer.stride)
        elif isinstance(layer, Dense):
            params += layer.n_in * layer.n_out + (layer.n_out if layer.bias else 0)
            flops += layer.n_in * layer.n_out
            cur = (layer.n_out,)
        elif isinstance(layer, Ref):
            cur = (c, h, w) if layer.src == -1 else outputs[layer.src]
        elif isinstance(layer, Concat):
            other = (c, h, w) if layer.src == -1 else outputs[layer.src]
            cur = (cur[0] + other[0], cur[1], cur[2])
        # Skip: shape unchanged, zero cost
        outputs.append(cur)
    return params, flops


def _random_genotype(rng: random.Random):
    space = rng.choice(
        [
            FixedBinarySpace(stage_sizes=(3, 4), stage_channels=(8, 16)),
            VariableBlocksSpace(min_len=1, max_len=5, channel_choices=(4, 8, 16)),
            CellGraphSpace(n_nodes=4, cell_channels=8),
        ]
    )
    return space.sample(rng), space


def test_counting_matches_tabulation_oracle_on_random_architectures():
    rng = random.Random(4242)
    for _ in range(1000):
        g, space = _random_genotype(rng)
        ir = space.decode(g, (3, 32, 32), 10)
        assert param_count(ir) == _oracle_costs(ir)[0]
        assert flop_count(ir) == _oracle_costs(ir)[1]


SPACES = (
    FixedBinarySpace(stage_sizes=(3, 4), stage_channels=(8, 16)),
    VariableBlocksSpace(min_len=1, max_len=8, channel_choices=(4, 8, 16)),
    CellGraphSpace(n_nodes=5, cell_channels=8),
)


def _decoded(space, rng):
    """A sampled genotype of ``space`` and its IR, or None when it collapses."""
    g = space.sample(rng)
    try:
        return g, space.decode(g, (3, 32, 32), 10)
    except DecodeError:
        return None


@given(st.sampled_from(SPACES), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_costs_and_shapes_survive_rebuilding_from_fresh_layers(space, seed):
    decoded = _decoded(space, random.Random(seed))
    if decoded is None:
        return
    g, ir = decoded
    fresh = ArchIR(ir.input_shape, tuple(dataclasses.replace(layer) for layer in ir.layers))
    assert all(a is not b for a, b in zip(fresh.layers, ir.layers))
    assert fresh == ir
    assert (param_count(ir), flop_count(ir)) == _oracle_costs(fresh) == (param_count(fresh), flop_count(fresh))
    assert check_shapes(ir) == check_shapes(fresh)
    # decoding an equal genotype afresh shares the interned layer objects
    again = space.decode(parse_canonical(canonical_text(g)), (3, 32, 32), 10)
    assert again is not ir
    assert again == ir and all(a is b for a, b in zip(again.layers, ir.layers))


# ---------------------------------------------------------------- decoding

def test_decode_res_unit_expansion():
    ir = decode(Genotype.variable_blocks([res(64)]), (3, 32, 32), 10)
    kinds = [type(l).__name__ for l in ir.layers]
    assert kinds == ["Conv", "Conv", "Skip", "Dense"]
    conv1, conv2, skip, head = ir.layers
    assert (conv1.c_in, conv1.c_out) == (3, 64)
    assert (conv2.c_in, conv2.c_out) == (64, 64)
    assert skip.src == 0  # sums the two conv outputs
    assert (head.n_in, head.n_out) == (64 * 32 * 32, 10)
    assert check_shapes(ir)[-1] == (10,)


def test_decode_dense_unit_concatenates_channels():
    ir = decode(Genotype.variable_blocks([dense_unit(32)]), (3, 32, 32), 10)
    kinds = [type(l).__name__ for l in ir.layers]
    assert kinds == ["Conv", "Concat", "Dense"]
    shapes = check_shapes(ir)
    assert shapes[1] == (35, 32, 32)  # 3 input + 32 grown channels


def test_decode_six_pools_collapse_32px_input():
    g = Genotype.variable_blocks([pool()] * 6)
    with pytest.raises(DecodeError):
        decode(g, (3, 32, 32), 10)
    # five pools on 32x32 still stand: 32 / 2^5 == 1
    ok = Genotype.variable_blocks([res(8)] + [pool()] * 5)
    assert check_shapes(decode(ok, (3, 32, 32), 10))


def test_decode_fixed_binary_zero_bits_is_parallel_sum():
    ir = decode(Genotype.fixed_binary((3,), "000"), (3, 32, 32), 10, stage_channels=(16,))
    convs = [l for l in ir.layers if isinstance(l, Conv)]
    assert len(convs) == 3
    assert all((c.c_in, c.c_out) == (3, 16) for c in convs)  # all read the stage input
    assert sum(1 for l in ir.layers if isinstance(l, Skip)) == 2  # outputs summed
    assert check_shapes(ir)


def test_decode_fixed_binary_chain_wires_nodes():
    # bits (0,1)=1, (0,2)=0, (1,2)=1: a chain 0 -> 1 -> 2
    ir = decode(Genotype.fixed_binary((3,), "101"), (3, 32, 32), 10, stage_channels=(16,))
    convs = [l for l in ir.layers if isinstance(l, Conv)]
    assert [(c.c_in, c.c_out) for c in convs] == [(3, 16), (16, 16), (16, 16)]
    assert not any(isinstance(l, Skip) for l in ir.layers)  # single path, single sink


def test_decode_fixed_binary_multi_stage_pools_between_stages():
    g = Genotype.fixed_binary((3, 3), "000000")
    ir = decode(g, (3, 32, 32), 10, stage_channels=(8, 16))
    pools = [l for l in ir.layers if isinstance(l, Pool)]
    assert len(pools) == 1  # between the two stages only
    assert check_shapes(ir)[-1] == (10,)


def test_decode_cell_graph_stem_and_output():
    g = Genotype.cell_graph(("conv3", "maxpool", "identity"), ((0, 1), (0, 2), (1, 2)))
    ir = decode(g, (3, 32, 32), 10, cell_channels=8)
    assert isinstance(ir.layers[0], Conv) and ir.layers[0].c_in == 3 and ir.layers[0].c_out == 8
    assert check_shapes(ir)[-1] == (10,)


def test_decode_rejects_bad_head_and_shape():
    g = Genotype.variable_blocks([res(8)])
    with pytest.raises(InvariantViolation):
        decode(g, (3, 32, 32), 0)
    with pytest.raises(InvariantViolation):
        decode(g, (0, 32, 32), 10)


def test_check_shapes_flags_inconsistency():
    bad = ArchIR((3, 32, 32), (Conv(3, 4, 8),))  # declares 4 input channels, input has 3
    with pytest.raises(InvariantViolation):
        check_shapes(bad)
    bad = ArchIR((3, 32, 32), (Conv(3, 3, 8), Skip(-1)))  # sums (8,..) with (3,..)
    with pytest.raises(InvariantViolation):
        check_shapes(bad)
    bad = ArchIR((3, 32, 32), (Dense(100, 10),))
    with pytest.raises(InvariantViolation):
        check_shapes(bad)
    # the costs are read from the same pass, so they refuse the same IRs
    for bad in (ArchIR((3, 32, 32), (Conv(3, 4, 8),)), ArchIR((3, 32, 32), (Ref(0),))):
        with pytest.raises(InvariantViolation):
            param_count(bad)
        with pytest.raises(InvariantViolation):
            flop_count(bad)


FLAT = 3 * 32 * 32

#: One hand-built IR per refusal of the consistency pass, with the message it raises.
INCONSISTENT = {
    "non_positive_input": ((0, 32, 32), (Dense(0, 10),), "non-positive input shape (0, 32, 32)"),
    "conv_channel_mismatch": ((3, 32, 32), (Conv(3, 4, 8),), "conv at 0 expects 4 channels, has (3, 32, 32)"),
    "conv_after_dense": ((3, 32, 32), (Dense(FLAT, 10), Conv(3, 10, 8)), "conv at 1 expects 10 channels, has (10,)"),
    "conv_c_out_zero": ((3, 32, 32), (Conv(3, 3, 0),), "layer 0 produced non-positive shape (0, 32, 32)"),
    "pool_after_dense": ((3, 32, 32), (Dense(FLAT, 10), Pool("max", 2, 2)), "pool at 1 after flattening"),
    "pool_collapse": ((3, 2, 3), (Pool("max", 2, 2), Pool("max", 2, 2)), "pool at 1 collapses 1x1 below 1x1"),
    "dense_input_mismatch": ((3, 32, 32), (Dense(100, 10),), f"dense at 0 expects 100 inputs, has {FLAT}"),
    "dense_n_out_zero": ((3, 32, 32), (Dense(FLAT, 0),), "layer 0 produced non-positive shape (0,)"),
    **{
        f"{marker.__name__.lower()}_{where}": (
            (3, 32, 32), (Conv(3, 3, 3), marker(src)), f"layer 1 references out-of-range layer {src}"
        )
        for marker in (Ref, Skip, Concat)
        for where, src in (("forward", 1), ("below_input", -2))
    },
    "skip_shape_mismatch": ((3, 32, 32), (Conv(3, 3, 8), Skip(-1)), "skip at 1 sums shapes (3, 32, 32) and (8, 32, 32)"),
    "concat_spatial_mismatch": (
        (3, 32, 32), (Pool("max", 2, 2), Concat(-1)), "concat at 1 joins shapes (3, 32, 32) and (3, 16, 16)"
    ),
    "concat_after_dense": ((3, 32, 32), (Dense(FLAT, 10), Concat(-1)), "concat at 1 joins shapes (3, 32, 32) and (10,)"),
    "unknown_kind": ((3, 32, 32), (Conv(3, 3, 8), "relu"), "unknown layer kind 'relu'"),
}


@pytest.mark.parametrize("input_shape, layers, message", INCONSISTENT.values(), ids=INCONSISTENT)
def test_every_refusal_of_the_consistency_pass_reaches_every_reader(input_shape, layers, message):
    """Each check of the one pass refuses its IR with its message, through the shapes and both
    costs, on every read: a refused IR keeps nothing."""
    ir = ArchIR(input_shape, layers)
    for read in (check_shapes, param_count, flop_count, check_shapes):
        with pytest.raises(InvariantViolation) as refused:
            read(ir)
        assert str(refused.value) == message


@given(st.integers(min_value=0, max_value=2**16 - 1))
@settings(max_examples=150, deadline=None)
def test_fixed_binary_decode_round_trip_never_inconsistent(bits):
    g = Genotype.fixed_binary((4, 5), format(bits, "016b"))
    ir = decode(g, (3, 32, 32), 10, stage_channels=(8, 16))
    shapes = check_shapes(ir)  # independent pass must accept every decode
    assert shapes[-1] == (10,)


@given(st.lists(st.sampled_from(["res", "dense", "pool"]), min_size=1, max_size=8), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_variable_blocks_decode_succeeds_or_raises_decode_error(kinds, channel_pick):
    ch = (8, 16, 32, 64)[channel_pick]
    genes = []
    for kind in kinds:
        if kind == "res":
            genes.append(res(ch))
        elif kind == "dense":
            genes.append(dense_unit(ch))
        else:
            genes.append(pool())
    g = Genotype.variable_blocks(genes)
    try:
        ir = decode(g, (3, 32, 32), 10)
    except DecodeError:
        return  # collapse is the one permitted failure
    assert check_shapes(ir)[-1] == (10,)
