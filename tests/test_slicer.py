import pytest
from hypothesis import given, settings, strategies as st

from vrcsim import core
from vrcsim.slicer import (
    AnnotationFormatError, AnnotationTable, FailureReason, Slice, SliceFailure,
    SliceInstr, annotate, build_slice, const_op, emit_annotations, hist_op,
    live_op, load_annotations, replay_slice,
)
from vrcsim.workloads import PATTERNS, SyntheticWorkloadSpec, TraceBuilder, gen_synthetic
from test_fingerprints import hand_slices_trace

UNTRACED = 0x9000_0000


def test_single_producer_live_bindings(tb):
    tb.alu(0x10, 1, "ADD", srcs=(2, 3))
    tb.store(0x14, 0x100, 0, srcs=(1,))
    tb.load(0x18, 4, 0x100)
    s = build_slice(tb.build(), 2)
    assert isinstance(s, Slice)
    assert len(s.instrs) == 1
    assert s.instrs[0].operands == (live_op(2), live_op(3))
    assert s.producer_store_seq == 1 and s.immutable
    assert replay_slice(s) == 0


def test_no_producer_when_value_from_untraced_memory(tb):
    tb.load(0x10, 1, UNTRACED, value=99)
    tb.store(0x14, 0x100, 99, srcs=(1,))
    tb.load(0x18, 2, 0x100)
    result = build_slice(tb.build(), 2)
    assert isinstance(result, SliceFailure)
    assert result.reason is FailureReason.NO_PRODUCER


def test_too_long_chain_fails_at_default_limit(tb):
    tb.alu(0x10, 1, "MOV", imm=1)
    value = 1
    for i in range(150):
        tb.alu(0x100 + 4 * i, 1, "ADD", srcs=(1,), imm=1)
        value += 1
    tb.store(0x800, 0x100, value, srcs=(1,))
    tb.load(0x804, 2, 0x100)
    result = build_slice(tb.build(), len(tb.instrs) - 1)
    assert isinstance(result, SliceFailure)
    assert result.reason is FailureReason.TOO_LONG
    # a 150-op producer chain fits a higher cap (151 with the seeding MOV)
    ok = build_slice(tb.build(), len(tb.instrs) - 1, max_len=151)
    assert isinstance(ok, Slice)
    assert replay_slice(ok) == value


def test_intermediate_load_replaced_by_store_producer(tb):
    tb.alu(0x10, 1, "MOV", imm=5)
    tb.store(0x14, 0x200, 5, srcs=(1,))
    tb.load(0x18, 2, 0x200)                     # intermediate load
    tb.alu(0x1C, 3, "ADD", srcs=(2,), imm=7)
    tb.store(0x20, 0x300, 12, srcs=(3,))
    tb.load(0x24, 4, 0x300)
    s = build_slice(tb.build(), 5)
    assert isinstance(s, Slice)
    assert s.instrs[0] == SliceInstr(0, "MOV", (const_op(5),))  # through the load
    assert replay_slice(s) == 12


def test_partial_overlap_is_unresolvable(tb):
    tb.alu(0x10, 1, "MOV", imm=0x1234)
    tb.store(0x14, 0x100, 0x1234, size=8, srcs=(1,))
    tb.load(0x18, 2, 0x100, size=4, value=0x1234)  # narrower than the store
    tb.alu(0x1C, 3, "ADD", srcs=(2,), imm=1)
    tb.store(0x20, 0x300, 0x1235, srcs=(3,))
    tb.load(0x24, 4, 0x300)
    result = build_slice(tb.build(), 5)
    assert isinstance(result, SliceFailure)
    assert result.reason is FailureReason.UNRESOLVABLE_INPUT


def test_replay_const_add():
    s = Slice(slice_id=0,
              instrs=(SliceInstr(0, "ADD", (const_op(2), const_op(3))),),
              producer_store_addr=0, producer_store_size=8, producer_store_seq=0,
              producer_store_pc=0, root_value=5, hist_requirements=(),
              live_bindings=())
    assert replay_slice(s) == 5


def test_replay_unbound_operand_raises():
    s = Slice(slice_id=0,
              instrs=(SliceInstr(0, "ADD", (hist_op((0x10, 0)), const_op(1))),),
              producer_store_addr=0, producer_store_size=8, producer_store_seq=0,
              producer_store_pc=0, root_value=1, hist_requirements=(),
              live_bindings=())
    with pytest.raises(KeyError):
        replay_slice(s)


def test_loop_style_hist_leaves(tb):
    # accumulator chain whose leaf inputs are reloaded (and thus overwritten)
    # before the consuming load: the sum is recomputed from checkpointed values
    tb.load(0x10, 8, UNTRACED, value=3)          # i
    tb.load(0x14, 9, UNTRACED + 64, value=4)     # j
    tb.alu(0x18, 10, "ADD", srcs=(8, 9))         # t = i + j
    tb.alu(0x1C, 10, "ADD", srcs=(10, 8))        # t += i  (unrolled)
    tb.store(0x20, 0x400, 10, srcs=(10,))
    tb.load(0x10, 8, UNTRACED, value=3)          # leaves reloaded: same sites
    tb.load(0x14, 9, UNTRACED + 64, value=4)
    tb.load(0x28, 11, 0x400)                     # consuming load
    t = tb.build()
    s = build_slice(t, 7)
    assert isinstance(s, Slice)
    kinds = {op.kind for i in s.instrs for op in i.operands}
    assert "HIST" in kinds
    assert replay_slice(s) == 10
    assert s.root_value == t[7].mem_value


def test_store_bits_the_load_does_not_read_are_unresolvable(tb):
    # the slice reproduces the 4-byte store's traced value, high bits and
    # all, but the load reads only the low 32 bits
    tb.alu(0x10, 1, "MOV", imm=0x1_0000_0005)
    tb.store(0x14, 0x100, size=4, srcs=(1,))
    tb.load(0x18, 2, 0x100, size=4)
    t = tb.build()
    assert t[2].mem_value == 5
    result = build_slice(t, 2)
    assert isinstance(result, SliceFailure)
    assert result.reason is FailureReason.UNRESOLVABLE_INPUT


def test_load_seq_errors(tb):
    tb.alu(0x10, 1, "MOV", imm=1)
    with pytest.raises(ValueError):
        build_slice(tb.build(), 0)      # not a load
    with pytest.raises(ValueError):
        build_slice(tb.build(), 5)      # out of range


def test_annotate_requires_valid_trace(tb):
    tb.store(0x10, 0x40, 7, srcs=(1,))
    tb.load(0x14, 2, 0x40, value=8)     # inconsistent
    with pytest.raises(ValueError, match="validation"):
        annotate(tb.build())


def test_annotate_mutable_slice_not_recomputable(tb):
    tb.alu(0x10, 1, "MOV", imm=5)
    tb.store(0x14, 0x100, 5, srcs=(1,))
    tb.alu(0x18, 2, "MOV", imm=9)
    tb.store(0x1C, 0x100, 9, srcs=(2,))  # overwrites before the load
    tb.load(0x20, 3, 0x100)
    table, stats = annotate(tb.build())
    s = table.slices[table.rcmp_sites[0x20]]
    assert s.immutable is False


def test_annotate_immutable_flag_set(tb):
    tb.alu(0x10, 1, "MOV", imm=5)
    tb.store(0x14, 0x100, 5, srcs=(1,))
    tb.load(0x20, 3, 0x100)
    table, _ = annotate(tb.build())
    assert table.slices[table.rcmp_sites[0x20]].immutable is True


def test_annotate_shape_instability_drops_pc(tb):
    # same load pc alternates between two producers of different shape
    tb.alu(0x10, 1, "MOV", imm=5)
    tb.store(0x14, 0x100, 5, srcs=(1,))
    tb.load(0x30, 3, 0x100)
    tb.alu(0x18, 2, "ADD", srcs=(1, 1))
    tb.store(0x1C, 0x180, 10, srcs=(2,))
    tb.load(0x30, 3, 0x180)
    table, stats = annotate(tb.build())
    assert 0x30 not in table.rcmp_sites


def test_annotate_full_coverage_on_recomputable_trace():
    spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=8000,
                                 seed=11, recomputable_fraction=1.0,
                                 load_density=0.03)
    table, stats = annotate(gen_synthetic(spec))
    # every load with an in-trace producer is annotated
    assert stats.failure_histogram.keys() <= {FailureReason.NO_PRODUCER}
    assert stats.annotated_pcs >= 40
    assert stats.dynamic_coverage > 0.6


def test_annotate_pointer_chase_zero_coverage():
    spec = SyntheticWorkloadSpec(pattern="POINTER_CHASE", count=3000, seed=11)
    table, stats = annotate(gen_synthetic(spec))
    assert stats.annotated_pcs == 0
    assert stats.dynamic_coverage == 0.0


@pytest.mark.parametrize("name", ("HAND_SLICES",) + PATTERNS)
@pytest.mark.parametrize("max_len", (100, 3))
def test_failure_histogram_counts_load_instances(name, max_len):
    if name == "HAND_SLICES":
        t = hand_slices_trace()
    else:
        t = gen_synthetic(SyntheticWorkloadSpec(pattern=name, count=3000, seed=5,
                                                load_density=0.03))
    _, stats = annotate(t, max_len=max_len)
    assert stats.annotated_instances + sum(stats.failure_histogram.values()) \
        == stats.load_instances


def test_annotate_deterministic():
    spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=5000,
                                 seed=4, recomputable_fraction=0.5)
    t = gen_synthetic(spec)
    a1, _ = annotate(t)
    a2, _ = annotate(t)
    assert a1 == a2
    assert emit_annotations(a1) == emit_annotations(a2)


def test_no_memory_ops_topological_and_bounded():
    for seed in (1, 2, 3):
        spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=6000,
                                     seed=seed, recomputable_fraction=1.0)
        table, _ = annotate(gen_synthetic(spec), max_len=100)
        assert table.slices
        for s in table.slices.values():
            assert 1 <= len(s.instrs) <= 100
            for i, ins in enumerate(s.instrs):
                assert ins.slice_pos == i
                for op in ins.operands:
                    if op.kind == "TEMP":
                        assert op.pos < i    # strictly earlier position
            assert replay_slice(s) == s.root_value


def test_replay_matches_traced_values_everywhere():
    spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=6000,
                                 seed=9, recomputable_fraction=1.0)
    t = gen_synthetic(spec)
    table, _ = annotate(t)
    by_pc = {}
    for ins in t.instructions:
        if ins.kind == "LOAD" and ins.pc in table.rcmp_sites:
            by_pc.setdefault(ins.pc, []).append(ins)
    assert by_pc
    for pc, loads in by_pc.items():
        s = table.slices[table.rcmp_sites[pc]]
        for load in loads:
            # shape-stable static slice + constant leaf keys: the recorded
            # replay value matches every dynamic instance
            assert s.root_value == load.mem_value or replay_slice(s) == load.mem_value


def test_emit_empty_table():
    text = emit_annotations(AnnotationTable())
    assert text.startswith("A version=1")
    assert load_annotations(text) == AnnotationTable()


def test_annotations_roundtrip():
    spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=8000,
                                 seed=13, recomputable_fraction=0.75)
    table, _ = annotate(gen_synthetic(spec))
    assert load_annotations(emit_annotations(table)) == table


def test_missing_slice_reference_errors():
    with pytest.raises(AnnotationFormatError,
                       match="^line 2: rcmp site 0x40 references missing slice 7$"):
        load_annotations("A version=1\nR pc=0x40 slice=7\nA version=1\n")


def test_bytes_that_are_not_utf8_are_a_typed_error(tmp_path):
    path = tmp_path / "bad.ann"
    path.write_bytes(b"A version=1\n\xff")
    with open(path, encoding="utf-8") as text_file:
        for source in (b"A version=1\n\xff", text_file):
            with pytest.raises(AnnotationFormatError,
                               match="^line 2: not UTF-8: byte 0xff$"):
                load_annotations(source)


def test_text_file_in_another_encoding_names_that_encoding(tmp_path):
    path = tmp_path / "cafe.ann"
    path.write_bytes("A version=1\n# café\n".encode())
    assert load_annotations(path.read_bytes()) == AnnotationTable()
    with open(path, encoding="ascii") as text_file:
        with pytest.raises(AnnotationFormatError,
                           match="^line 2: not ASCII: byte 0xc3$"):
            load_annotations(text_file)
    # a decoder that names no byte reports line 1
    with open(path, encoding="utf-16") as text_file:
        with pytest.raises(AnnotationFormatError,
                           match="^line 1: UTF-16 stream does not start with BOM$"):
            load_annotations(text_file)


@pytest.mark.parametrize("sep", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
def test_records_end_at_line_feed_only(sep):
    # a character `str.splitlines` also breaks at leaves the second record
    # on line 2, where its tag is a malformed field
    with pytest.raises(AnnotationFormatError, match="^line 2: malformed field 'A'"):
        load_annotations(f"A version=1\nA version=1{sep}A version=1\n")


GOOD_ANNOTATIONS = """A version=1
S slice_id=0 tag=0x100 size=8 seq=0 ppc=0x900 root=0x3 immutable=1 len=2
  P pos=0 op=ADD a=H:0x900:0 b=L:3
  P pos=1 op=ADD a=T:0 b=C:0x1
  H key=0x900:0 seq=0 val=0x2
  V reg=3 seq=-1 val=0x0
  T addr=0x100 size=8
R pc=0x14 slice=0
"""


def test_good_annotations_load():
    s = load_annotations(GOOD_ANNOTATIONS).slices[0]
    assert [i.alu_op for i in s.instrs] == ["ADD", "ADD"]
    assert replay_slice(s) == 3


@pytest.mark.parametrize("old, new, match", [
    ("P pos=1", "P pos=3", "out of order"),                    # past the SFile
    ("op=ADD a=T:0", "op=FOO a=T:0", "unknown op"),
    ("a=T:0", "a=T:1", "not computed before it"),              # its own result
    ("a=T:0", "a=T:2", "not computed before it"),
    ("a=T:0", "a=T:-1", "not computed before it"),
    ("a=T:0 b=C:0x1", "a=T:0", "expects operands a,b, got a$"),
    ("a=T:0 b=C:0x1", "a=T:0 c=C:0x1", "expects operands a,b, got a,c"),
    ("a=T:0 b=C:0x1", "b=C:0x1", "expects operands a,b, got b$"),
    ("  H key=0x900:0 seq=0 val=0x2\n", "", "H:0x900:0 has no H/V record"),
    ("  V reg=3 seq=-1 val=0x0\n", "", "L:3 has no H/V record"),
    ("R pc=0x14 slice=0", "R pc=0x14 slice=0 junk", "malformed field"),
    ("S slice_id=0 ", "S slice_id=0 slice_id=1 ", "duplicate field"),
    ("R pc=0x14 slice=0", "R pc=0x14 slice=0 bogus=7", r"unknown fields \['bogus'\]"),
    ("len=2", "len=2 extra=1", r"unknown fields \['extra'\]"),
    ("b=C:0x1", "b=C:0x1 d=C:0x5", r"unknown fields \['d'\]"),
    ("A version=1", "A version=1 when=now", r"unknown fields \['when'\]"),
    ("  T addr=0x100 size=8", "  T addr=0x100 size=8 seq=3", r"unknown fields \['seq'\]"),
    ("R pc=0x14", "Q pc=0x14", "unknown record 'Q'"),
    ("A version=1", "A version=2", "^line 1: version mismatch: got 2, expected 1$"),
    ("R pc=0x14 slice=0", "R pc=0x14 slice=0\nR pc=0x14 slice=0",
     "^line 9: duplicate rcmp site 0x14$"),
    ("A version=1", "A", "^line 1: missing required field 'version'$"),
    ("tag=0x100 ", "", "^line 2: missing required field 'tag'$"),
    ("P pos=0 op=ADD ", "P pos=0 ", "^line 3: missing required field 'op'$"),
    ("seq=0 val=0x2", "seq=0", "^line 5: missing required field 'val'$"),
    ("R pc=0x14 slice=0", "R pc=0x14", "^line 8: missing required field 'slice'$"),
])
def test_bad_annotations_rejected_at_load(old, new, match):
    assert old in GOOD_ANNOTATIONS
    with pytest.raises(AnnotationFormatError, match=match):
        load_annotations(GOOD_ANNOTATIONS.replace(old, new))


@pytest.mark.parametrize("size", ("0", "-8", "3"))
@pytest.mark.parametrize("record, lineno", (("S slice_id=0 tag=0x100 size=", 2),
                                            ("  T addr=0x100 size=", 7)))
def test_store_sizes_other_than_1_2_4_8_are_rejected(record, lineno, size):
    # a tag names the bytes a store wrote, and a store writes 1, 2, 4 or 8
    text = GOOD_ANNOTATIONS.replace(record + "8", record + size)
    assert text != GOOD_ANNOTATIONS
    with pytest.raises(AnnotationFormatError,
                       match=f"^line {lineno}: store size {size} is not 1, 2, 4 or 8$"):
        load_annotations(text)
    for good in ("1", "2", "4"):
        load_annotations(GOOD_ANNOTATIONS.replace(record + "8", record + good))


_S = "S slice_id=0 tag=0x100 size=8 seq=0 ppc=0x900 root=0x3 immutable=1 "


@pytest.mark.parametrize("text, match", [
    ("A version=1\n" + _S + "len=3\n  P pos=0 op=ADD a=C:0x1 b=C:0x2\n",
     "^line 2: slice 0: declared len 3 but 1 instructions$"),
    (GOOD_ANNOTATIONS.replace("  H key=0x900:0 seq=0 val=0x2\n", ""),
     "^line 2: slice 0: operand H:0x900:0 has no H/V record$"),
    ("A version=1\n\n" + _S + "len=0\nR pc=0x14 slice=0\n",
     "^line 3: slice 0 is empty$"),
    ("A version=1\n" + _S + "len=3\n  P pos=0 op=ADD a=C:0x1 b=C:0x2\n"
     + _S.replace("slice_id=0", "slice_id=1") + "len=1\n",
     "^line 2: slice 0: declared len 3 but 1 instructions$"),
    (GOOD_ANNOTATIONS.replace("R pc=", _S + "len=1\n  P pos=0 op=MOV a=C:0x1\nR pc="),
     "^line 8: duplicate slice 0$"),
    ("A version=1\n  P pos=0 op=MOV a=C:0x1\n", "^line 2: P record before any S record$"),
    ("A version=1\n  H key=0x900:0 seq=0 val=0x2\n",
     "^line 2: H record before any S record$"),
    ("A version=1\n  V reg=3 seq=-1 val=0x0\n", "^line 2: V record before any S record$"),
    ("A version=1\n  T addr=0x100 size=8\n", "^line 2: T record before any S record$"),
], ids=["len", "operand", "empty", "len-before-next-slice", "duplicate", "P-first",
        "H-first", "V-first", "T-first"])
def test_slice_errors_name_the_slice_record_line(text, match):
    with pytest.raises(AnnotationFormatError, match=match):
        load_annotations(text)


# a slice the two-load trace below recomputes (no Hist leaf to wait for)
RECOMPUTABLE = """A version=1
S slice_id=0 tag=0x100 size=8 seq=0 ppc=0x900 root=0x3 immutable=1 len=2
  P pos=0 op=ADD a=C:0x2 b=L:3
  P pos=1 op=ADD a=T:0 b=C:0x1
  V reg=3 seq=-1 val=0x0
  T addr=0x100 size=8
R pc=0x14 slice=0
C seq=0 key=0x900:0 val=0x2
"""

_FRAGMENTS = ("0", "1", "3", "-1", "0x14", "99", "FOO", "MUL", "MOV", "CMOV",
              "SHL", "T:0", "T:5", "C:0x46", "L:70", "H:0x900:1", "Q:1", "x",
              "=", "", "pos=0", "a=T:0", "c=C:0x1", "len=1", "slice=1")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.booleans(),
                          st.sampled_from(_FRAGMENTS)), min_size=1, max_size=3))
def test_fuzzed_annotations_fail_only_typed(edits):
    # mutate tokens (or just their values) of a good file: loading either
    # raises AnnotationFormatError or yields a table VRC runs without crashing
    lines = [line.split(" ") for line in RECOMPUTABLE.splitlines()]
    slots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    for k, value_only, frag in edits:
        i, j = slots[k % len(slots)]
        key, eq, _ = lines[i][j].partition("=")
        lines[i][j] = key + eq + frag if value_only and eq else frag
    try:
        table = load_annotations("\n".join(" ".join(toks) for toks in lines))
    except AnnotationFormatError:
        return
    tb = TraceBuilder()
    tb.load(0x10, 1, 0x10_0000, value=1)    # older miss casts the shadow
    tb.load(0x14, 2, 0x20_0000, value=3)    # shadowed miss at the R site
    for policy in ("VRC", "VRC2"):
        r = core.run(tb.build(), annotations=table,
                     config=core.CoreConfig(policy=policy))
        assert r.committed == 2
