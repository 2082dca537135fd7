import math
import random
import re
import sys
import textwrap
import threading

import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

import evonas.arch.ir as ir_module
import evonas.arch.spaces as spaces_module
from evonas.arch import (
    BlockGene,
    BlockKind,
    Genotype,
    Scheme,
    canonical_text,
    check_shapes,
    identifier,
    parse_canonical,
)
from evonas.arch.spaces import DECODE_KEYS, CellGraphSpace, FixedBinarySpace, VariableBlocksSpace
from evonas.backends import (
    CommandBackend,
    LookupBackend,
    SurrogateBackend,
    architecture_asymptote,
    build_backend,
    decode_from_settings,
)
from evonas.datasets import dataset_spec
from evonas.errors import ConfigError, DecodeError, JobFailed, LookupMiss
from evonas.evaluator import job_spec
from evonas.jobs import JobSpec


def vb_genotype(channels=16):
    return Genotype.variable_blocks([BlockGene(BlockKind.RES_UNIT, out_channels=channels)])


def job_for(genotype, epochs=50, seed=0, settings=None):
    base = {"dataset": "cifar10"}
    base.update(settings or {})
    return JobSpec(
        name="indi_gen00_no00",
        identifier=identifier(genotype),
        payload=canonical_text(genotype),
        backend="surrogate",
        settings=base,
        seed=seed,
        epochs=epochs,
    )


# -------------------------------------------------------------- surrogate

def test_zero_epochs_gives_zero_fitness_when_noiseless():
    backend = SurrogateBackend()
    value, _ = backend.evaluate(job_for(vb_genotype(), epochs=0, settings={"sigma": "0.0"}))
    assert value == 0.0


def test_large_epoch_budget_approaches_asymptote():
    from evonas.arch import decode

    g = vb_genotype()
    backend = SurrogateBackend()
    a = architecture_asymptote(identifier(g), decode(g, (3, 32, 32), 10))
    value, _ = backend.evaluate(job_for(g, epochs=10_000, settings={"sigma": "0.0"}))
    assert value == pytest.approx(100.0 * a, abs=0.005)


def test_pinned_asymptote_closed_form_values():
    # 100 * 0.9 * (1 - exp(-50/20)) = 82.61..; at 600 epochs the curve saturates at 90.00
    backend = SurrogateBackend(fixed_asymptote=0.9)
    settings = {"tau": "20.0", "sigma": "0.0"}
    search, _ = backend.evaluate(job_for(vb_genotype(), epochs=50, settings=settings))
    retrain, _ = backend.evaluate(job_for(vb_genotype(), epochs=600, settings=settings))
    assert search == pytest.approx(round(100 * 0.9 * (1 - math.exp(-2.5)), 2))
    assert search == 82.61
    assert retrain == 90.00


def test_fitness_monotone_in_epoch_budget():
    backend = SurrogateBackend()
    g = vb_genotype()
    values = [backend.evaluate(job_for(g, epochs=e, settings={"sigma": "0.0"}))[0] for e in (1, 5, 20, 50, 200, 600)]
    assert values == sorted(values)
    # the retrain phase can only improve on the search phase
    assert values[-1] >= values[3]


def test_surrogate_deterministic_under_identical_inputs():
    backend = SurrogateBackend()
    noisy = {"sigma": "0.05"}
    a = backend.evaluate(job_for(vb_genotype(), seed=9, settings=noisy))
    b = backend.evaluate(job_for(vb_genotype(), seed=9, settings=noisy))
    assert a == b
    c = backend.evaluate(job_for(vb_genotype(), seed=10, settings=noisy))
    assert a[0] != c[0]  # per-job seed moves the noise


def test_duration_grows_with_epochs_and_flops():
    backend = SurrogateBackend()
    small = backend.evaluate(job_for(vb_genotype(8), epochs=10))[1]
    large = backend.evaluate(job_for(vb_genotype(64), epochs=10))[1]
    longer = backend.evaluate(job_for(vb_genotype(8), epochs=100))[1]
    assert large > small
    assert longer > small


SPACES = [FixedBinarySpace(stage_channels=(24, 48)), VariableBlocksSpace(), CellGraphSpace(cell_channels=20)]


@pytest.mark.parametrize("space", SPACES, ids=type)
def test_settings_decode_agrees_with_the_space_decode(space):
    """Decoding from a run's settings, as workers, the evaluator and reports do, gives
    the IR that ``space.decode`` gives."""
    settings = {"dataset": "cifar10", **space.decode_settings()}
    shape, classes = dataset_spec("cifar10")
    rng = random.Random(5)
    for _ in range(10):
        g = space.sample(rng)
        fresh = parse_canonical(canonical_text(g))  # an equal genotype that has kept no IR
        assert decode_from_settings(g, settings) == space.decode(fresh, shape, classes)



def reference_concat(b, src: int) -> None:
    oc, oh, ow = b.shapes[src + 1]
    c, h, w = b.shapes[-1]
    if (oh, ow) != (h, w):
        raise DecodeError("concat joins tensors with different spatial sizes")
    b.layers.append(ir_module.Concat(src))
    b.shapes.append((c + oc, h, w))


def reference_decode_blocks(genes, b) -> None:
    """The variable-blocks decoder appending one layer per call, each checking its shapes."""
    for gene in genes:
        if gene.kind is BlockKind.POOL:
            b.pool(gene.pool_type.value, 2, 2)
        elif gene.kind is BlockKind.RES_UNIT:
            for _ in range(gene.amount):
                first = b.conv(3, gene.out_channels)
                b.conv(3, gene.out_channels)
                b.skip(first)
        else:
            for _ in range(gene.amount):
                unit_input = b.cur_idx
                b.conv(3, gene.out_channels)
                reference_concat(b, unit_input)


def reference_asymptote(ident, ir) -> float:
    """``architecture_asymptote`` computed in a second pass over the layers."""
    convs = [layer for layer in ir.layers if isinstance(layer, ir_module.Conv)]
    depth = len(convs)
    width = sum(c.c_out for c in convs) / depth if convs else 1.0
    params = ir_module.param_count(ir)
    hash_frac = int(ident[:12], 16) / float(16**12)
    a = (
        0.30
        + 0.40 * (1.0 - math.exp(-depth / 6.0))
        + 0.15 * (1.0 - math.exp(-width / 64.0))
        - 0.25 * (1.0 - math.exp(-params / 2.0e7))
        + 0.10 * (hash_frac - 0.5)
    )
    return min(max(a, 0.02), 0.98)


@pytest.mark.parametrize("space", [FixedBinarySpace(), VariableBlocksSpace(), CellGraphSpace()], ids=type)
def test_decode_and_surrogate_match_their_layer_by_layer_references(space):
    """500 sampled and mutated genotypes: the variable-blocks decoder's whole units
    give the layers and shapes of one builder call per layer, and the surrogate's
    structure, read from the consistency pass, gives the fitness and duration of
    a second pass over the layers."""
    settings = {"dataset": "cifar10", "total_epoch": "50", **space.decode_settings()}
    shape, classes = dataset_spec("cifar10")
    rng = random.Random(20)
    g = space.sample(rng)
    for i in range(500):
        g = space.sample(rng) if i % 2 else space.mutate(g, 0.3, rng)
        arch = decode_from_settings(g, settings)
        if g.scheme is Scheme.VARIABLE_BLOCKS:
            b = ir_module._Builder(shape)
            reference_decode_blocks(g.blocks, b)
            b.head(classes)
            reference = b.build()
            assert arch.layers == reference.layers
            assert check_shapes(arch) == check_shapes(reference)
        ident = identifier(g)
        assert architecture_asymptote(ident, arch) == reference_asymptote(ident, arch)
        job = job_spec(f"job{i}", ident, g, settings, master_seed=3)
        expected = SurrogateBackend(fixed_asymptote=reference_asymptote(ident, arch)).evaluate(job)
        assert SurrogateBackend().evaluate(job) == expected


@pytest.mark.parametrize("space", SPACES, ids=type)
def test_every_decode_setting_is_a_decode_key(space):
    """``evonas retrain`` carries only the ``DECODE_KEYS`` over from the run's settings."""
    assert set(space.decode_settings()) <= set(DECODE_KEYS)


@pytest.mark.parametrize("space", SPACES, ids=type)
def test_a_genotype_keeps_its_ir_only_for_the_same_object_and_decode_inputs(space, monkeypatch):
    """The kept IR is keyed by every decode input and lives on one genotype object:
    other inputs, or an equal genotype parsed again as a resumed run would, decode anew."""
    decodes = []
    decode = ir_module.decode

    def counting_decode(*args, **kwargs):
        decodes.append(args[0])
        return decode(*args, **kwargs)

    monkeypatch.setattr(ir_module, "decode", counting_decode)
    settings = {"dataset": "cifar10", **space.decode_settings()}
    g = space.sample(random.Random(3))
    kept = decode_from_settings(g, settings)
    assert decode_from_settings(g, settings) is kept and len(decodes) == 1
    for change in ({"stage_channels": "8,16"}, {"cell_channels": "12"}, {"dataset": "mnist"}, {"dataset": "cifar100"}):
        other = {**settings, **change}
        decode_from_settings(g, settings)  # g keeps its IR under the run's settings again
        before = len(decodes)
        assert decode_from_settings(g, other) == decode_from_settings(parse_canonical(canonical_text(g)), other)
        assert len(decodes) == before + 2, change
    equal = parse_canonical(canonical_text(g))
    assert decode_from_settings(equal, settings) == kept
    assert decodes[-1] is equal
    # a decode key added later is part of the key without further change
    monkeypatch.setattr(spaces_module, "DECODE_KEYS", (*DECODE_KEYS, "depth_multiplier"))
    decode_from_settings(g, settings)
    before = len(decodes)
    decode_from_settings(g, {**settings, "depth_multiplier": "2"})
    assert len(decodes) == before + 1


def test_threads_decoding_shared_genotypes_under_two_datasets_each_read_their_own_ir():
    """Concurrent decodes of one genotype object under two class counts each get their own head."""
    genotypes = [space.sample(random.Random(i)) for i in range(12) for space in SPACES]
    runs = [{"dataset": name, **space.decode_settings()} for name in ("cifar10", "cifar100") for space in SPACES]
    wrong = []

    def work(settings):
        classes = dataset_spec(settings["dataset"])[1]
        for _ in range(20):
            for g in genotypes:
                try:
                    head = decode_from_settings(g, settings).layers[-1]
                except DecodeError:
                    continue
                if head.n_out != classes:
                    wrong.append((settings["dataset"], head.n_out))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(runs[i % len(runs)],)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.fixture(scope="module")
def miss_table(tmp_path_factory):
    """A lookup table that holds no identifier a sampled genotype has."""
    path = tmp_path_factory.mktemp("lookup") / "bench.csv"
    path.write_text(f"identifier,fitness\n{'f' * 56},50.0\n", encoding="utf-8")
    return path


WIRE_KEYS = {"type", "name", "identifier", "payload", "backend", "settings", "seed", "epochs"}


@given(st.sampled_from(SPACES), st.integers(0, 2**32 - 1), st.booleans())
@hypothesis_settings(max_examples=60, deadline=None)
def test_a_job_gives_the_same_fitness_and_duration_after_crossing_the_wire(miss_table, space, seed, predecoded):
    g = space.sample(random.Random(seed))
    run_settings = {"dataset": "cifar10", "total_epoch": "8", "sigma": "0.5", **space.decode_settings()}
    if predecoded:  # as the evaluator does for the params objective
        try:
            decode_from_settings(g, run_settings)
        except DecodeError:
            pass
    job = job_spec("indi_gen00_no00", identifier(g), g, run_settings, seed)
    message = job.to_message()
    assert set(message) == WIRE_KEYS
    wired = JobSpec.from_message(message, message["settings"])
    assert wired == job and wired.built_from is None and job.built_from is g
    for backend in (SurrogateBackend(), LookupBackend(str(miss_table), fallback="surrogate")):
        outcomes = []
        for each in (job, wired):
            try:
                outcomes.append(backend.evaluate(each))
            except DecodeError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------- lookup

def make_table(tmp_path, rows):
    path = tmp_path / "bench.csv"
    lines = ["identifier,fitness,params"]
    lines += [f"{ident},{fit},{params}" for ident, fit, params in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_lookup_exact_match(tmp_path):
    g = vb_genotype()
    path = make_table(tmp_path, [(identifier(g), 94.02, 123)])
    backend = LookupBackend(str(path))
    value, duration = backend.evaluate(job_for(g))
    assert value == 94.02
    assert duration == 0.0


def test_lookup_miss_raises(tmp_path):
    path = make_table(tmp_path, [("f" * 56, 50.0, 1)])
    backend = LookupBackend(str(path))
    with pytest.raises(LookupMiss):
        backend.evaluate(job_for(vb_genotype()))


def test_lookup_miss_falls_back_to_surrogate(tmp_path):
    path = make_table(tmp_path, [("f" * 56, 50.0, 1)])
    backend = LookupBackend(str(path), fallback="surrogate")
    expected = SurrogateBackend().evaluate(job_for(vb_genotype()))
    assert backend.evaluate(job_for(vb_genotype())) == expected


def test_lookup_hit_miss_counts_match_reference_scan(tmp_path):
    import random

    rng = random.Random(13)
    known = [("".join(rng.choice("0123456789abcdef") for _ in range(56)), round(rng.uniform(1, 99), 2), 1) for _ in range(1000)]
    path = make_table(tmp_path, known)
    backend = LookupBackend(str(path))
    table = {ident: fit for ident, fit, _ in known}
    hits = misses = 0
    for _ in range(10_000):
        if rng.random() < 0.5:
            ident = known[rng.randrange(len(known))][0]
        else:
            ident = "".join(rng.choice("0123456789abcdef") for _ in range(56))
        job = JobSpec(name="x", identifier=ident, payload="", backend="lookup", settings={}, epochs=1)
        # reference: a linear scan of the raw csv rows
        expected = next((fit for k, fit, _ in known if k == ident), None)
        try:
            value, _ = backend.evaluate(job)
            hits += 1
            assert expected is not None and value == pytest.approx(expected)
        except LookupMiss:
            misses += 1
            assert expected is None
    assert hits + misses == 10_000
    assert hits > 0 and misses > 0


def test_lookup_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,acc\nabc,1.0\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        LookupBackend(str(path)).evaluate(job_for(vb_genotype()))


@pytest.mark.parametrize("fitness", ["abc", "", "nan", "inf", "-0.5", "100.5"])
def test_lookup_refuses_a_row_whose_fitness_is_not_a_percent(tmp_path, fitness):
    path = make_table(tmp_path, [("f" * 56, 50.0, 1), ("e" * 56, fitness, 1)])
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: fitness '{fitness}' is not a number"):
        LookupBackend(str(path)).evaluate(job_for(vb_genotype()))


# ---------------------------------------------------------------- command

def script_backend(tmp_path, body):
    script = tmp_path / "trainer.py"
    script.write_text(textwrap.dedent(body), encoding="utf-8")
    return CommandBackend(
        template=f"{sys.executable} {script} {{payload_path}} {{settings_path}} {{slot_id}} {{seed}}"
    )


def test_command_parses_fitness_line(tmp_path):
    backend = script_backend(tmp_path, "print('FITNESS=90.50')")
    value, duration = backend.evaluate(job_for(vb_genotype()))
    assert value == 90.50
    assert duration >= 0.0


@pytest.mark.parametrize("printed", ["nan", "inf", "-inf"])
def test_command_fails_the_job_on_a_non_finite_fitness(tmp_path, printed):
    backend = script_backend(tmp_path, f"print('FITNESS={printed}')")
    with pytest.raises(JobFailed, match="non-finite fitness"):
        backend.evaluate(job_for(vb_genotype()))


@pytest.mark.parametrize("printed", ["150", "-3", "100.01"])
def test_command_fails_the_job_on_a_fitness_outside_0_to_100(tmp_path, printed):
    """A percent out of range is refused, not clamped to 100.00 or 0.00."""
    backend = script_backend(tmp_path, f"print('FITNESS={printed}')")
    with pytest.raises(JobFailed, match=r"fitness outside \[0, 100\]"):
        backend.evaluate(job_for(vb_genotype()))


@pytest.mark.parametrize("printed", ["0", "100"])
def test_command_accepts_the_bounds_of_the_percent_range(tmp_path, printed):
    backend = script_backend(tmp_path, f"print('FITNESS={printed}')")
    assert backend.evaluate(job_for(vb_genotype()))[0] == float(printed)


def test_command_nonzero_exit_fails(tmp_path):
    backend = script_backend(tmp_path, "import sys; print('boom'); sys.exit(1)")
    with pytest.raises(JobFailed) as err:
        backend.evaluate(job_for(vb_genotype()))
    assert "boom" in err.value.log_tail


def test_a_chatty_trainer_keeps_only_its_log_tail_in_memory(tmp_path):
    """A trainer that prints 100,000 lines of 200 characters (about 20 MB) and fails: the
    backend holds its last 20 lines, not all of them, and the failure carries those."""
    import tracemalloc

    backend = script_backend(
        tmp_path,
        """
        import sys
        for i in range(100_000):
            print(f"{i:06d} " + "x" * 193)
        sys.exit(2)
        """,
    )
    tracemalloc.start()
    try:
        with pytest.raises(JobFailed, match="status 2") as err:
            backend.evaluate(job_for(vb_genotype()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.log_tail.splitlines() == [f"{i:06d} " + "x" * 193 for i in range(99_980, 100_000)]
    assert peak < 8 * 2**20


def test_a_job_that_stops_reading_its_trainer_leaves_no_reader_thread(tmp_path):
    """A job whose log sink fails stops reading while the trainer still prints: the
    job kills its trainer and leaves no thread behind that still reads it."""
    import time

    backend = script_backend(
        tmp_path,
        """
        for i in range(100_000):
            print(f"epoch {i}")
        print("FITNESS=50.00")
        """,
    )
    before = threading.active_count()

    def broken_sink(line):
        raise OSError("log sink closed")

    with pytest.raises(OSError, match="log sink closed"):
        backend.evaluate(job_for(vb_genotype()), emit_log=broken_sink)
    deadline = time.monotonic() + 5.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == before


def test_a_command_job_reads_its_trainer_on_the_calling_thread(tmp_path):
    """While the trainer's lines stream, no thread runs beyond those that ran before."""
    backend = script_backend(tmp_path, "print('epoch 1'); print('epoch 2'); print('FITNESS=40.00')")
    before = threading.active_count()
    counts = []
    value, _ = backend.evaluate(job_for(vb_genotype()), emit_log=lambda line: counts.append(threading.active_count()))
    assert value == 40.0
    assert counts == [before, before]


def test_a_trainer_that_prints_undecodable_bytes_still_reports_its_fitness(tmp_path):
    """A byte that is not UTF-8 becomes U+FFFD in its log line, and the FITNESS line
    after it is read at once, not after the deadline."""
    import time

    backend = script_backend(
        tmp_path,
        """
        import sys
        sys.stdout.buffer.write(b"epoch 1 caf\\xe9\\n")
        sys.stdout.buffer.write(b"FITNESS=50.00\\n")
        """,
    )
    backend.timeout_s = 5.0
    lines = []
    started = time.monotonic()
    value, _ = backend.evaluate(job_for(vb_genotype()), emit_log=lines.append)
    assert time.monotonic() - started < 2.5
    assert value == 50.0
    assert lines == ["epoch 1 caf\ufffd"]


def test_carriage_returns_end_a_trainer_line(tmp_path):
    """``\\r\\n`` and a lone ``\\r`` end a line as ``\\n`` does, as in text mode."""
    backend = script_backend(
        tmp_path,
        """
        import sys
        sys.stdout.buffer.write(b"a\\r\\nb\\rc\\nFITNESS=12.50")
        """,
    )
    lines = []
    value, _ = backend.evaluate(job_for(vb_genotype()), emit_log=lines.append)
    assert value == 12.5
    assert lines == ["a", "b", "c"]


def test_a_failing_on_spawn_leaves_no_trainer_running(tmp_path):
    """The host's registration of the trainer fails: the error reaches the caller,
    and the trainer it launched is killed and reaped."""
    import os

    backend = script_backend(tmp_path, "import time; time.sleep(3); print('FITNESS=50.00')")
    pids = []

    def on_spawn(pid):
        pids.append(pid)
        raise OSError("cannot register the trainer")

    backend.on_spawn = on_spawn
    with pytest.raises(OSError, match="cannot register"):
        backend.evaluate(job_for(vb_genotype()))
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


def test_command_missing_fitness_line_fails(tmp_path):
    backend = script_backend(tmp_path, "print('no result today')")
    with pytest.raises(JobFailed):
        backend.evaluate(job_for(vb_genotype()))


@pytest.mark.parametrize(
    "body",
    [
        # silent until after the deadline, then a valid result
        "import time; time.sleep(3); print('FITNESS=50.00')",
        # one line, then hung
        "import time; print('epoch 1', flush=True); time.sleep(10); print('FITNESS=50.00')",
    ],
    ids=["silent", "hung"],
)
def test_command_timeout_is_a_wall_clock_deadline(tmp_path, body):
    import time

    backend = script_backend(tmp_path, body)
    backend.timeout_s = 1.0
    started = time.monotonic()
    with pytest.raises(JobFailed, match="timed out"):
        backend.evaluate(job_for(vb_genotype()))
    assert time.monotonic() - started < 2.0


def test_command_streams_epoch_lines_as_logs(tmp_path):
    backend = script_backend(
        tmp_path,
        """
        for epoch in range(50):
            print(f"epoch {epoch} acc {epoch / 2:.2f}")
        print("FITNESS=61.25")
        """,
    )
    lines = []
    value, _ = backend.evaluate(job_for(vb_genotype()), emit_log=lines.append)
    assert value == 61.25
    assert len(lines) == 50
    assert lines[0] == "epoch 0 acc 0.00"


def test_command_receives_payload_and_settings_files(tmp_path):
    backend = script_backend(
        tmp_path,
        """
        import json, sys
        payload = open(sys.argv[1]).read()
        settings = json.load(open(sys.argv[2]))
        assert payload.startswith("VB:"), payload
        assert settings["epochs"] == "50"
        print("FITNESS=10.00")
        """,
    )
    value, _ = backend.evaluate(job_for(vb_genotype(), epochs=50))
    assert value == 10.00


def test_build_backend_factory():
    assert build_backend("surrogate", {}).kind == "surrogate"
    with pytest.raises(ConfigError):
        build_backend("lookup", {})
    with pytest.raises(ConfigError):
        build_backend("command", {})
    with pytest.raises(ConfigError):
        build_backend("warp_drive", {})
