"""Workload IR: block validation, cursor semantics, instrumentation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.base import (
    KIND_FLUSH,
    KIND_LOAD,
    KIND_STORE,
    BlockCursor,
    BlockInserter,
    ListProgram,
    MemOp,
    OpKind,
    RateBlock,
    SyscallBlock,
    Trace,
    TraceBlock,
    scale_rate_block,
    user_probe,
    USER_PROBE,
)


class TestBlockValidation:
    def test_rate_block_negative_instructions(self):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=-1)

    def test_rate_block_zero_cpi(self):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=1, cpi=0)

    def test_rate_block_negative_rate(self):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=1, rates={"LOADS": -0.1})

    def test_rate_block_rejects_implicit_events(self):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=1, rates={"INST_RETIRED": 1.0})

    @pytest.mark.parametrize("name", ["CORE_CYCLES", "REF_CYCLES"])
    def test_rate_block_rejects_implicit_cycle_events(self, name):
        """The core delivers all three fixed events itself, so a rated
        duplicate would be counted twice."""
        with pytest.raises(WorkloadError):
            RateBlock(instructions=1, rates={name: 1.0})

    def test_trace_block_negative_ipo(self):
        with pytest.raises(WorkloadError):
            TraceBlock(ops=[], instructions_per_op=-1)

    def test_trace_block_zero_event_scale(self):
        with pytest.raises(WorkloadError):
            TraceBlock(ops=[], event_scale=0)

    def test_scale_rate_block(self):
        block = RateBlock(instructions=100, rates={"LOADS": 0.5})
        scaled = scale_rate_block(block, 2.0)
        assert scaled.instructions == 200
        assert block.instructions == 100  # original untouched

    def test_scale_negative_factor(self):
        with pytest.raises(WorkloadError):
            scale_rate_block(RateBlock(instructions=1), -1)

    def test_user_probe_uses_sentinel_name(self):
        block = user_probe(lambda k, t: None)
        assert block.name == USER_PROBE


class TestTrace:
    OPS = [MemOp(0x40, OpKind.LOAD), MemOp(0x80, OpKind.STORE),
           MemOp(0x40, OpKind.FLUSH), MemOp(0xC0, OpKind.LOAD)]

    def test_memop_round_trip(self):
        trace = Trace.from_ops(self.OPS)
        assert trace.addresses.dtype == np.int64
        assert trace.kinds.dtype == np.int8
        assert trace.addresses.tolist() == [0x40, 0x80, 0x40, 0xC0]
        assert trace.kinds.tolist() == [KIND_LOAD, KIND_STORE, KIND_FLUSH,
                                        KIND_LOAD]
        assert list(trace) == self.OPS
        assert trace[2] == MemOp(0x40, OpKind.FLUSH)

    def test_trace_block_converts_op_list_once(self):
        block = TraceBlock(ops=self.OPS)
        assert isinstance(block.ops, Trace)
        assert list(block.ops) == self.OPS
        assert TraceBlock(ops=block.ops).ops is block.ops

    def test_kinds_default_to_loads(self):
        trace = Trace(np.arange(3) * 64)
        assert list(trace) == [MemOp(0), MemOp(64), MemOp(128)]

    def test_slice_is_a_view(self):
        trace = Trace(np.arange(10) * 64, np.full(10, KIND_STORE))
        view = trace[2:7]
        assert isinstance(view, Trace)
        assert len(view) == 5
        assert view.addresses.base is not None
        assert np.shares_memory(view.addresses, trace.addresses)
        assert np.shares_memory(view.kinds, trace.kinds)
        assert view.addresses.tolist() == [128, 192, 256, 320, 384]
        assert list(trace[::4]) == [MemOp(0, OpKind.STORE),
                                    MemOp(256, OpKind.STORE),
                                    MemOp(512, OpKind.STORE)]

    def test_columns_are_read_only_copies(self):
        source = np.arange(4) * 64
        trace = Trace(source)
        source[0] = 999
        assert trace.addresses[0] == 0
        with pytest.raises(ValueError):
            trace.addresses[0] = 1
        with pytest.raises(ValueError):
            trace[1:].kinds[0] = KIND_FLUSH

    @pytest.mark.parametrize("addresses", [
        [-1], [0, 2 ** 63], [2 ** 64],
        np.array([2 ** 63], dtype=np.uint64),
    ])
    def test_out_of_range_address_raises(self, addresses):
        with pytest.raises(WorkloadError):
            Trace(addresses)

    def test_out_of_range_memop_raises(self):
        with pytest.raises(WorkloadError):
            TraceBlock(ops=[MemOp(0), MemOp(2 ** 63)])
        with pytest.raises(WorkloadError):
            TraceBlock(ops=[MemOp(-64)])

    def test_largest_address_accepted(self):
        trace = Trace([2 ** 63 - 1])
        assert trace[0].address == 2 ** 63 - 1

    @pytest.mark.parametrize("kinds", [[3], [-1], [300]])
    def test_unknown_kind_code_raises(self, kinds):
        with pytest.raises(WorkloadError):
            Trace([0], kinds)

    def test_unknown_op_kind_raises(self):
        with pytest.raises(WorkloadError):
            Trace.from_ops([(0, "load")])

    def test_mismatched_columns_raise(self):
        with pytest.raises(WorkloadError):
            Trace([0, 64], [KIND_LOAD])

    def test_derive_memoises_per_key(self):
        trace = Trace([0, 64])
        calls = []

        def build(addresses, kinds, key):
            calls.append(key)
            return int(addresses.sum()) + key

        assert trace.derive(1, build) == 65
        assert trace.derive(1, build) == 65
        assert trace.derive(2, build) == 66
        assert calls == [1, 2]
        assert trace[:1].derive(1, build) == 1  # a view derives afresh


class TestListProgram:
    def test_blocks_are_fresh_copies(self):
        program = ListProgram("p", [RateBlock(instructions=100)])
        first = next(program.blocks())
        second = next(program.blocks())
        assert first is not second
        first.instructions = 0
        assert second.instructions == 100

    def test_metadata_copied(self):
        program = ListProgram("p", [], metadata={"x": 1.0})
        metadata = program.metadata
        metadata["x"] = 2.0
        assert program.metadata["x"] == 1.0


class TestBlockCursor:
    def test_peek_and_advance(self):
        program = ListProgram("p", [
            RateBlock(instructions=10, label="a"),
            RateBlock(instructions=20, label="b"),
        ])
        cursor = BlockCursor(program)
        assert cursor.peek().label == "a"
        cursor.advance()
        assert cursor.peek().label == "b"
        cursor.advance()
        assert cursor.peek() is None
        assert cursor.finished

    def test_consume_instructions_partial(self):
        cursor = BlockCursor(ListProgram("p", [RateBlock(instructions=10)]))
        cursor.consume_instructions(4)
        assert cursor.peek().instructions == pytest.approx(6)
        cursor.consume_instructions(6)
        assert cursor.peek() is None

    def test_consume_too_many_raises(self):
        cursor = BlockCursor(ListProgram("p", [RateBlock(instructions=10)]))
        with pytest.raises(WorkloadError):
            cursor.consume_instructions(11)

    def test_consume_ops(self):
        ops = [MemOp(0), MemOp(64), MemOp(128)]
        cursor = BlockCursor(ListProgram("p", [TraceBlock(ops=ops)]))
        cursor.consume_ops(2)
        assert cursor.op_index == 2
        assert cursor.remaining_ops() == 1
        cursor.consume_ops(1)
        assert cursor.peek() is None

    def test_consume_ops_overrun_raises(self):
        cursor = BlockCursor(ListProgram("p", [TraceBlock(ops=[MemOp(0)])]))
        with pytest.raises(WorkloadError):
            cursor.consume_ops(2)

    def test_wrong_block_kind_raises(self):
        cursor = BlockCursor(ListProgram("p", [TraceBlock(ops=[MemOp(0)])]))
        with pytest.raises(WorkloadError):
            cursor.consume_instructions(1)


def _instruction_count(blocks):
    total = 0.0
    for block in blocks:
        if isinstance(block, RateBlock):
            total += block.instructions
        elif isinstance(block, TraceBlock):
            total += len(block.ops) * (block.instructions_per_op + 1)
    return total


class TestInstrumentation:
    def test_points_inserted_at_interval(self):
        base = ListProgram("p", [RateBlock(instructions=1000)])
        markers = []
        inserter = BlockInserter(
            factory=lambda: [SyscallBlock("read", label="point")],
            every_instructions=250,
        )
        blocks = list(base.instrumented(inserter).blocks())
        points = [b for b in blocks if isinstance(b, SyscallBlock)]
        assert len(points) == 4  # 1000 / 250

    def test_original_instructions_preserved(self):
        base = ListProgram("p", [
            RateBlock(instructions=700),
            RateBlock(instructions=300),
        ])
        inserter = BlockInserter(
            factory=lambda: [SyscallBlock("read")],
            every_instructions=220,
        )
        blocks = list(base.instrumented(inserter).blocks())
        rate_total = sum(b.instructions for b in blocks
                         if isinstance(b, RateBlock))
        assert rate_total == pytest.approx(1000)

    def test_prologue_and_epilogue(self):
        base = ListProgram("p", [RateBlock(instructions=100)])
        inserter = BlockInserter(
            factory=lambda: [],
            every_instructions=1e9,
            prologue=lambda: [SyscallBlock("start", label="pro")],
            epilogue=lambda: [SyscallBlock("stop", label="epi")],
        )
        blocks = list(base.instrumented(inserter).blocks())
        assert isinstance(blocks[0], SyscallBlock) and blocks[0].label == "pro"
        assert isinstance(blocks[-1], SyscallBlock) and blocks[-1].label == "epi"

    def test_trace_blocks_split_for_insertion(self):
        ops = [MemOp(i * 64) for i in range(100)]
        base = ListProgram("p", [TraceBlock(ops=ops, instructions_per_op=9)])
        inserter = BlockInserter(
            factory=lambda: [SyscallBlock("read")],
            every_instructions=250,  # 25 ops per interval
        )
        blocks = list(base.instrumented(inserter).blocks())
        trace_ops = sum(len(b.ops) for b in blocks
                        if isinstance(b, TraceBlock))
        points = sum(1 for b in blocks if isinstance(b, SyscallBlock))
        assert trace_ops == 100
        assert points == 4

    def test_invalid_interval_rejected(self):
        with pytest.raises(WorkloadError):
            BlockInserter(factory=lambda: [], every_instructions=0)

    def test_instrumented_metadata_proxied(self):
        base = ListProgram("p", [RateBlock(instructions=10)],
                           metadata={"instructions": 10.0})
        inserter = BlockInserter(factory=lambda: [], every_instructions=5)
        assert base.instrumented(inserter).metadata == {"instructions": 10.0}
