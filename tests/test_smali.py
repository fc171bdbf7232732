import dataclasses
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepatch import smali, synth
from prepatch.smali import OpKind, SmaliSyntaxError

WRAPPER = """\
.class public final Lcom/demo/vision/Holder;
.super Ljava/lang/Object;
.source "Holder.java"


# instance fields
.field private zza:Landroid/graphics/Bitmap;

.field private zzd:I


# direct methods
.method private constructor <init>(Landroid/graphics/Bitmap;I)V
    .locals 1

    invoke-direct {p0}, Ljava/lang/Object;-><init>()V

    invoke-virtual {p1}, Landroid/graphics/Bitmap;->getWidth()I

    move-result v0

    iput v0, p0, Lcom/demo/vision/Holder;->zzd:I

    const/16 p2, 0xb4

    iput p2, p0, Lcom/demo/vision/Holder;->zzd:I

    return-void
.end method
"""


def test_round_trip_is_exact():
    unit = smali.parse_unit(WRAPPER)
    assert smali.emit_unit(unit) == WRAPPER


def test_parse_idempotent():
    once = smali.parse_unit(WRAPPER)
    twice = smali.parse_unit(smali.emit_unit(once))
    assert once == twice


def test_unit_structure():
    unit = smali.parse_unit(WRAPPER)
    assert unit.class_name == "Lcom/demo/vision/Holder;"
    assert unit.super_name == "Ljava/lang/Object;"
    assert "final" in unit.class_flags
    (ctor,) = unit.methods
    assert ctor.is_constructor and not ctor.is_static
    assert ctor.signature == "<init>(Landroid/graphics/Bitmap;I)V"
    assert ctor.param_slots == 3  # this + Bitmap + I


def test_instruction_kinds_and_operands():
    unit = smali.parse_unit(WRAPPER)
    instructions = [i for i in unit.methods[0].instructions
                    if i.kind is not OpKind.DIRECTIVE]
    kinds = [i.kind for i in instructions]
    assert kinds == [OpKind.INVOKE, OpKind.INVOKE, OpKind.MOVE_RESULT,
                     OpKind.IPUT, OpKind.CONST_INT, OpKind.IPUT, OpKind.RETURN]
    const = instructions[4]
    assert const.dest.name == "p2"
    assert const.literal.value == 180
    assert const.literal.radix == "hex"
    getter = instructions[1]
    assert getter.method_ref.method_name == "getWidth"
    assert getter.invoke_registers[0].name == "p1"
    iput = instructions[3]
    assert iput.field_ref.field_name == "zzd"
    assert iput.field_ref.owner_class == "Lcom/demo/vision/Holder;"


def test_hex_and_decimal_literals_are_equal_values():
    hex_unit = smali.parse_unit(WRAPPER)
    dec_unit = smali.parse_unit(WRAPPER.replace("0xb4", "180"))
    hex_const = next(i for i in hex_unit.methods[0].instructions
                     if i.kind is OpKind.CONST_INT)
    dec_const = next(i for i in dec_unit.methods[0].instructions
                     if i.kind is OpKind.CONST_INT)
    assert hex_const.literal.value == dec_const.literal.value == 180
    assert hex_const.literal.radix == "hex"
    assert dec_const.literal.radix == "dec"
    # Emission preserves the spelling, not just the value.
    assert "0xb4" in smali.emit_unit(hex_unit)
    assert "180" in smali.emit_unit(dec_unit)


def test_negative_hex_literal():
    text = WRAPPER.replace("const/16 p2, 0xb4", "const/4 p2, -0x1")
    const = next(i for i in smali.parse_unit(text).methods[0].instructions
                 if i.kind is OpKind.CONST_INT)
    assert const.literal.value == -1


def test_unknown_opcodes_pass_through():
    text = WRAPPER.replace(
        "    return-void",
        "    add-int/lit8 v0, v0, 0x1\n\n    custom-op v0, :label_9\n\n    return-void")
    unit = smali.parse_unit(text)
    assert smali.emit_unit(unit) == text
    raws = [i for i in unit.methods[0].instructions if i.kind is OpKind.RAW]
    assert [r.opcode for r in raws] == ["add-int/lit8", "custom-op"]


@pytest.mark.parametrize("mutation, original", [
    ("const/16 p4, xb4", None),                       # mangled literal
    ("invoke-direct {pe}, Ljava/lang/Object;-><init>()V",
     "invoke-direct {p0}, Ljava/lang/Object;-><init>()V"),  # mangled register
    ("iput v0, p0, Lcom/demo/vision/Holder;>zzd:I",
     "iput v0, p0, Lcom/demo/vision/Holder;->zzd:I"),  # mangled field ref
    ("const/16 p2,", None),                            # missing operand
    pytest.param("move-result v" + "1" * 5000, "move-result v0",
                 id="5000-digit register"),        # an index int() refuses
])
def test_malformed_supported_opcodes_rejected(mutation, original):
    source = original or "const/16 p2, 0xb4"
    text = WRAPPER.replace("    " + source, "    " + mutation)
    assert text != WRAPPER
    with pytest.raises(SmaliSyntaxError):
        smali.parse_unit(text)


def test_register_out_of_range_rejected():
    with pytest.raises(SmaliSyntaxError, match="register"):
        smali.parse_unit(WRAPPER.replace("move-result v0", "move-result v9"))
    with pytest.raises(SmaliSyntaxError, match="register"):
        smali.parse_unit(WRAPPER.replace("const/16 p2", "const/16 p3"))


def _frameless_init(line):
    return "\n".join([".class public LOdd;", ".super Ljava/lang/Object;",
                      ".method public constructor <init>()V", "    " + line,
                      "    return-void", ".end method", ""])


@pytest.mark.parametrize("line", [
    "invoke-static/range {v0 .. v100000000}, La;->m()V",
    "invoke-static/range {p0 .. p65536}, La;->m()V",
    "invoke-static {v0, v65536}, La;->m(II)V",
    "move v0, v0065536",
    "move-result v99999",
])
def test_register_above_16_bits_is_a_syntax_error(line):
    # The method has no frame size, so only the 16-bit bound stops the line.
    assert smali._fast_registers(line) is None
    with pytest.raises(SmaliSyntaxError, match="above") as err:
        smali.parse_unit(_frameless_init(line))
    assert err.value.line == 4


def test_rejected_register_list_is_rejected_in_linear_time():
    # Each register name must match one way only: with two ways per name a
    # rejected list of 40 takes about 2^40 steps, so the check runs in a
    # child process that a timeout can stop.
    script = """
from prepatch import smali
for names in (["v0"] * 40, ["v1234"] * 40, ["v00012"] * 40, ["p" + "0" * 600] * 40):
    regs = ", ".join(names)
    for line in ("invoke-static {%s}, La;->m()V x" % regs,
                 "invoke-static {%s, La;->m()V" % regs):
        assert smali._fast_registers(line) is None
        try:
            smali.parse_unit(".class LOdd;\\n.method m()V\\n" + line + "\\n.end method\\n")
        except smali.SmaliSyntaxError:
            continue
        raise AssertionError(line)
    line = "invoke-static {%s}, La;->m()V" % regs
    assert smali._fast_registers(line) == names
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=30)


def test_register_at_16_bits_is_accepted():
    line = "invoke-static/range {v65534 .. v065535}, La;->m(II)V"
    assert smali._fast_registers(line) == ("v65534", "v065535")
    (init,) = smali.parse_unit(_frameless_init(line)).methods
    assert [r.name for r in init.instructions[0].invoke_registers] == ["v65534", "v65535"]


def test_structural_errors():
    with pytest.raises(SmaliSyntaxError, match="\\.class"):
        smali.parse_unit(WRAPPER.replace(".class public final Lcom/demo/vision/Holder;\n", ""))
    with pytest.raises(SmaliSyntaxError, match="\\.class"):
        smali.parse_unit(WRAPPER + "\n.class public La;\n")
    with pytest.raises(SmaliSyntaxError, match="\\.end method"):
        smali.parse_unit(WRAPPER.replace(".end method", ""))
    with pytest.raises(SmaliSyntaxError, match="\\.method"):
        smali.parse_unit(WRAPPER + "\n.end method\n")


@pytest.mark.parametrize("directive", [".registers \u00b2", ".locals \u0663",
                                       ".registers \uff13",
                                       pytest.param(".locals " + "9" * 5000, id="5000 digits")])
def test_non_ascii_frame_size_is_a_syntax_error(directive):
    # str.isdigit accepts these; int() rejects the first and the last and
    # reads the others.
    with pytest.raises(SmaliSyntaxError, match="malformed"):
        smali.parse_unit(WRAPPER.replace(".locals 1", directive, 1))


@pytest.mark.parametrize("line", [".registersfoo 3", ".locals_x 2", ".registers3"])
def test_directive_that_only_starts_like_a_frame_size_is_opaque(line):
    unit = smali.parse_unit(WRAPPER.replace("    .locals 1\n", f"    .locals 1\n    {line}\n"))
    (ctor,) = unit.methods
    assert (ctor.registers, ctor.locals_count) == (None, 1)
    assert (ctor.instructions[1].opcode, ctor.instructions[1].kind) == \
        (line.split()[0], OpKind.DIRECTIVE)


def test_error_carries_line_number():
    bad = WRAPPER.replace("const/16 p2, 0xb4", "const/16 p2, zz")
    with pytest.raises(SmaliSyntaxError) as err:
        smali.parse_unit(bad)
    line = bad.split("\n")[err.value.line - 1]
    assert "zz" in line


def test_const_opcode_selection():
    assert smali.const_opcode_for(7) == "const/4"
    assert smali.const_opcode_for(-8) == "const/4"
    assert smali.const_opcode_for(8) == "const/16"
    assert smali.const_opcode_for(-0x8000) == "const/16"
    assert smali.const_opcode_for(0x8000) == "const"
    assert smali.const_opcode_for(842094169) == "const"


def test_corpus_files_round_trip():
    rng = random.Random(11)
    files, _ = synth.build_app_files("s3", 4, rng)
    for path, text in files.items():
        if path.endswith(".smali"):
            assert smali.emit_unit(smali.parse_unit(text)) == text


@given(value=st.integers(min_value=-0x80000000, max_value=0x7FFFFFFF),
       radix=st.sampled_from(["hex", "dec"]),
       register=st.sampled_from(["v0", "p2"]))
def test_render_const_parses_back(value, radix, register):
    line = smali.render_const(register, value, radix)
    body = WRAPPER.replace("    const/16 p2, 0xb4", line)
    unit = smali.parse_unit(body)
    const = next(i for i in unit.methods[0].instructions
                 if i.kind is OpKind.CONST_INT)
    assert const.literal.value == value
    assert const.dest.name == register
    assert const.literal.radix == radix


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_generated_apps_round_trip(seed):
    rng = random.Random(seed)
    kind = rng.choice(["s1", "s2", "s3", "negative", "nondl"])
    files, _ = synth.build_app_files(kind, rng.randrange(100), rng)
    for path, text in files.items():
        if path.endswith(".smali"):
            assert smali.emit_unit(smali.parse_unit(text)) == text


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=200))
def test_arbitrary_text_never_emits_differently(text):
    """Whatever parses must emit byte-identically; garbage may only raise."""
    try:
        unit = smali.parse_unit(text)
    except SmaliSyntaxError:
        return
    assert smali.emit_unit(unit) == text


# ---------------------------------------------------------------------------
# validation pass against a full parse
#
# parse_unit validates lines with fast patterns and builds instructions on
# first read. The reference below is the eager parser it replaced: it parses
# every line of every method and checks registers at each ``.end method``.


def _reference_registers(total, slots, instructions):
    for ins in instructions:
        regs = []
        for op in ins.operands:
            if isinstance(op, smali.Register):
                regs.append(op)
            elif isinstance(op, smali.RegisterList):
                regs.extend(op.registers)
        for r in regs:
            if (r.kind == "p" and r.index >= slots) or (r.kind == "v" and r.index >= total):
                raise SmaliSyntaxError(
                    f"register {r.name} out of range (frame {total}, params {slots})",
                    ins.line_index + 1)


def _reference_method(lines, start):
    flags, name, params, ret = smali._parse_method_header(lines[start].strip(), start)
    instructions, registers, locals_count = [], None, None
    for i in range(start + 1, len(lines)):
        raw = lines[i]
        s = raw.strip()
        if s == ".end method":
            slots = (0 if "static" in flags else 1) + sum(
                2 if t in ("J", "D") else 1 for t in params)
            total = registers if registers is not None else (
                None if locals_count is None else locals_count + slots)
            if total is not None:
                _reference_registers(total, slots, instructions)
            return (name, params, ret, flags, registers, locals_count, start, i,
                    tuple(instructions)), i + 1
        if s.startswith(".method"):
            raise SmaliSyntaxError("nested .method (missing .end method?)", i + 1)
        toks = s.split()
        if toks and toks[0] in (".registers", ".locals"):
            if len(toks) != 2 or not (toks[1].isascii() and toks[1].isdigit()) \
                    or len(toks[1]) > 640:
                raise SmaliSyntaxError(f"malformed {toks[0]} directive", i + 1)
            if toks[0] == ".registers":
                registers = int(toks[1])
            else:
                locals_count = int(toks[1])
            instructions.append(smali.Instruction(toks[0], OpKind.DIRECTIVE, (), raw, i))
        elif s and not s.startswith("#"):
            instructions.append(smali._parse_instruction(raw, s, i))
    raise SmaliSyntaxError(f"unterminated .method '{name}' (no .end method)", start + 1)


def _reference_parse(text):
    lines = text.split("\n")
    class_name, methods, i = None, [], 0
    while i < len(lines):
        s = lines[i].strip()
        if not s or s.startswith("#"):
            pass
        elif s.startswith(".class"):
            if class_name is not None:
                raise SmaliSyntaxError("duplicate .class declaration", i + 1)
            toks = s.split()
            if len(toks) < 2 or not smali.check_type_descriptor(toks[-1]) \
                    or not toks[-1].startswith("L"):
                raise SmaliSyntaxError("malformed .class declaration", i + 1)
            class_name = toks[-1]
        elif s.startswith(".super"):
            toks = s.split()
            if len(toks) != 2 or not smali.check_type_descriptor(toks[1]):
                raise SmaliSyntaxError("malformed .super declaration", i + 1)
        elif s.startswith(".field"):
            smali._parse_field_decl(lines[i], i)
        elif s.startswith(".method"):
            if class_name is None:
                raise SmaliSyntaxError(".method before .class declaration", i + 1)
            method, i = _reference_method(lines, i)
            methods.append(method)
            continue
        elif s == ".end method":
            raise SmaliSyntaxError(".end method without matching .method", i + 1)
        i += 1
    if class_name is None:
        raise SmaliSyntaxError("missing .class declaration", 1)
    return methods


def _outcome(parse, text):
    # Only SmaliSyntaxError: any other exception, such as a ValueError from
    # int() on a literal like "02", is a parser fault and fails the test.
    try:
        return "ok", parse(text)
    except SmaliSyntaxError as exc:
        return "error", (type(exc), str(exc), getattr(exc, "line", None))


def _lazy_methods(text):
    return [(m.name, m.param_types, m.return_type, m.access_flags, m.registers,
             m.locals_count, m.header_line_index, m.end_line_index, m.instructions)
            for m in smali.parse_unit(text).methods]


# Operand pools: (well-formed, odd). An odd value may still be one the
# parser accepts, e.g. a register with non-ASCII digits.
_POOLS = {
    "reg": (["v0", "v1", "p0", "p1", "p2", "v7", "v15", "v00", "p10", "v65535",
             "v" + "0" * 635 + "65535", "p" + "0" * 636 + "7"],
            ["v٣", "pe", "v", "x1", "v-1", "V0", "v0x", "v" + "1" * 5000, "p" + "9" * 641,
             "v65536", "v99999", "v" + "9" * 640, "v" + "0" * 641]),
    "lit": (["0x0", "0xb4", "-0x1", "180", "-8", "0X1F", "0x7fffffff", "00", "-0",
             "-" + "9" * 640, "0" * 640, "0x" + "f" * 5000],
            ["xb4", "0x", "1e3", "+1", "--1", "١٢", "٠٢", "0xg", "- 1", "02", "-010",
             "1" * 5000, "0" * 5000, "-" + "9" * 641]),
    "type": (["I", "[B", "Landroid/graphics/Bitmap;", "Lx;", "[[Lx;"],
             ["L;", "Q", "[", "La/b c;", "La#b;", "La,b;", "V"]),
    "field": (["Lcom/demo/Holder;->zzd:I", "Lx;->a:[Lx;", "[Lx;->a:I", "Lx;->a-b:J"],
              ["Lcom/demo/Holder;>zzd:I", "Lx;->a:Q", "Lx;->a:", "Lx;->a#b:I",
               "I->a:I", "Lx;->a:b:I", "Lx;->a:I extra"]),
    "method": (["Ljava/lang/Object;-><init>()V", "[I->clone()Ljava/lang/Object;",
                "Lx;->m(IJ[Lx;)[I", "I->m()V", "Lx;->a-b(Landroid/graphics/Bitmap;)I"],
               ["Lx;->m(IL a;)V", "Lx;->m(I", "Lx;->m()Q", "Lx;->m([)V",
                "Lx;->m(L;)V", "Lx;->m()", "Lx;m()V", "Lx;->m(I)V)V",
                "Lx;->m(I)L#x;", "Lx;->m(I)V}"]),
    "str": (['"abc"', '"a\\"b"', '"#x, y"', '""', '"a\\\\"', '"{v9}"'],
            ['"unterminated', '"a" # c', '"\\"', "'a'", '"a"b"']),
    "list": (["{v0, v1}", "{}", "{ }", "{p0}", "{v0 .. v3}", "{p0..p2}", "{v1 .. v1}",
              "{v00, p1}", "{v00 .. v02}", "{v12345, p65535}", "{v65534 .. v065535}"],
             ["{v3 .. v0}", "{v0 .. p1}", "{v0,}", "{v0 v1}", "{pe}",
              "{v0 .. v1 .. v2}", "{v0", "v0}", "{v0 .. }", "{,}", "{v٣}", "{v0}}",
              "{v" + "1" * 5000 + "}", "{v0 .. v" + "1" * 5000 + "}", "{v0, v65536}",
              "{v0 .. v100000000}"]),
    "sep": ([", ", ",", " , ", "\t,  "], [",,", " ", ""]),
    "tail": (["", " # c", "#c", "   ", " #,x", "\t# }"], [" extra", " ,"]),
    "gap": ([" ", "\t", "  "], [" "]),
}

# Operand templates of each supported opcode family.
_FAMILIES = [
    (sorted(smali.CONST_INT_OPS), ["{reg}{sep}{lit}"]),
    (sorted(smali.CONST_STRING_OPS), ["{reg}{sep}{str}"]),
    (sorted(smali.CONST_CLASS_OPS | {"new-instance", "check-cast"}), ["{reg}{sep}{type}"]),
    (sorted(smali.IPUT_OPS | smali.IGET_OPS), ["{reg}{sep}{reg2}{sep}{field}"]),
    (sorted(smali.INVOKE_OPS | smali.INVOKE_RANGE_OPS), ["{list}{sep}{method}"]),
    (sorted(smali.MOVE_OPS), ["{reg}{sep}{reg2}"]),
    (sorted(smali.MOVE_RESULT_OPS | smali.RETURN_OPS), ["{reg}", ""]),
]
_ANY_TEMPLATE = sorted({t for _, templates in _FAMILIES for t in templates})


@st.composite
def instruction_lines(draw, max_odd=2):
    """A supported instruction line, well formed or with up to ``max_odd``
    parts taken from the odd pools."""
    ops, templates = draw(st.sampled_from(_FAMILIES))
    odd = set(draw(st.lists(st.sampled_from([*_POOLS, "reg2", "template"]),
                            max_size=max_odd)))

    def pick(slot):
        good, bad = _POOLS["reg" if slot == "reg2" else slot]
        return draw(st.sampled_from(bad if slot in odd else good))

    template = draw(st.sampled_from(_ANY_TEMPLATE if "template" in odd else templates))
    operands = template.format(**{slot: pick(slot) for slot in
                                  ("reg", "reg2", "sep", "lit", "str", "type",
                                   "field", "list", "method")})
    indent = draw(st.sampled_from(["    ", "", "\t"]))
    gap = pick("gap") if operands else ""
    return f"{indent}{draw(st.sampled_from(ops))}{gap}{operands}{pick('tail')}"


def _max_index(names):
    out = {}
    for name in names:
        out[name[0]] = max(out.get(name[0], -1), int(name[1:]))
    return out


def _check_soundness(line):
    """A line the fast check accepts parses, with the same highest register
    index of each kind."""
    stripped = line.strip()
    fast = smali._fast_registers(stripped)
    if fast is None:
        return
    ins = smali._parse_instruction(line, stripped, 0)   # must not raise
    parsed = [r.name for r in smali._operand_registers(ins)]
    assert _max_index(fast) == _max_index(parsed)


@settings(max_examples=500, deadline=None)
@given(line=instruction_lines())
def test_fast_check_accepts_only_what_the_parser_accepts(line):
    _check_soundness(line)


def _shape(value):
    """A record as nested (type, fields) pairs: equal shapes have equal
    operands of equal types, all the way down."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_shape(getattr(value, f.name))
                                  for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple, tuple(_shape(v) for v in value)
    return type(value), value


def _check_build(line):
    """A line the table accepts builds the Instruction _parse_instruction
    gives for it."""
    stripped = line.strip()
    if smali._fast_registers(stripped) is None:
        return
    built = smali._build_instruction(line, stripped, 4, smali._Registers())
    assert _shape(built) == _shape(smali._parse_instruction(line, stripped, 4))


@settings(max_examples=500, deadline=None)
@given(line=instruction_lines())
def test_table_builds_what_the_parser_builds(line):
    _check_build(line)


def test_fast_check_with_each_odd_operand():
    slots = ("reg", "reg2", "sep", "lit", "str", "type", "field", "list", "method")
    for ops, templates in _FAMILIES:
        for op in ops:
            for template in templates:
                for slot in slots:
                    if "{" + slot + "}" not in template:
                        continue
                    pool = _POOLS["reg" if slot == "reg2" else slot]
                    for value in pool[0] + pool[1]:
                        operands = template.format(**{
                            s: value if s == slot else
                            _POOLS["reg" if s == "reg2" else s][0][0] for s in slots})
                        for tail in _POOLS["tail"][0] + _POOLS["tail"][1]:
                            _check_soundness(f"    {op} {operands}{tail}")
                            _check_build(f"    {op} {operands}{tail}")


def test_fast_check_accepts_well_formed_lines():
    lines = ["const/16 p2, 0xb4", "const-wide v0, -0x1 # c", 'const-string v0, "a#b"',
             "new-instance v0, Landroid/graphics/Matrix;",
             "iput v0, p0, Lcom/demo/Holder;->zzd:I",
             "invoke-direct {p0}, Ljava/lang/Object;-><init>()V",
             "invoke-static/range {v0 .. v3}, Lx;->m(IJ[Lx;)[I",
             "move-object/from16 v0, p1", "move-result v0", "return-void"]
    for line in lines:
        assert smali._fast_registers(line) is not None, line


@settings(max_examples=300, deadline=None)
@given(body=st.lists(instruction_lines(max_odd=0) | st.sampled_from(
           ["", "    :cond_0", "    .line 3", "    # note", "    nop",
            "    .registers 2", "    .locals 1"]), max_size=8),
       odd=st.none() | instruction_lines() | st.sampled_from(
           ["    .locals x", ".method x", ".end method", "    .registers 1 2",
            "    .registers \u00b2", "    .locals \u0663", "    .registersfoo 3",
            "    .registers " + "9" * 5000]),
       at=st.integers(0, 8),
       frame=st.sampled_from(["    .registers 3", "    .locals 1", ""]),
       static=st.booleans(), params=st.sampled_from(["", "I", "JI", "Landroid/graphics/Bitmap;"]))
def test_parse_unit_agrees_with_eager_reference(body, odd, at, frame, static, params):
    if odd is not None:
        body.insert(at, odd)
    flags = "public static" if static else "public"
    text = "\n".join([".class public Lcom/demo/T;", ".super Ljava/lang/Object;", "",
                      f".method {flags} m({params})V", frame, *body, ".end method",
                      "", ".method public n()V", "    .registers 1",
                      "    return-void", ".end method", ""])
    want = _outcome(_reference_parse, text)
    got = _outcome(_lazy_methods, text)
    assert got == want
    if got[0] == "ok":
        assert smali.emit_unit(smali.parse_unit(text)) == text


@pytest.mark.parametrize("text", ["02", "-010", "00x1", "١٢", "0x", "+1", *(
    pytest.param(digit * n, id=f"{n}x{digit}") for digit, n in (("1", 5000), ("0", 5000), ("9", 641)))])
def test_bad_int_literal_is_a_syntax_error(text):
    with pytest.raises(SmaliSyntaxError, match="bad integer literal"):
        smali.parse_int_literal(text, 3)


def test_syntax_error_later_in_method_beats_register_error():
    text = WRAPPER.replace("move-result v0", "move-result v9").replace(
        "const/16 p2, 0xb4", "const/16 p2, zz")
    with pytest.raises(SmaliSyntaxError) as err:
        smali.parse_unit(text)
    assert "bad integer literal 'zz'" in str(err.value)
    assert "zz" in text.split("\n")[err.value.line - 1]


@pytest.mark.parametrize("first, later, reported", [
    ("move-result v9", "const/16 p7, 0xb4", "v9"),
    ("move-result v0", "const/16 p7, 0xb4", "p7"),
    # A range is checked register by register: the frame holds v0..v3.
    ("invoke-static/range {v0 .. v5}, Lx;->m(IIIIII)V", "const/16 p7, 0xb4", "v4"),
])
def test_first_out_of_range_register_is_reported(first, later, reported):
    text = WRAPPER.replace("move-result v0", first).replace("const/16 p2, 0xb4", later)
    with pytest.raises(SmaliSyntaxError, match=f"register {reported} out of range") as err:
        smali.parse_unit(text)
    line = text.split("\n")[err.value.line - 1]
    assert line.strip() == first if reported != "p7" else line.strip() == later


def test_unit_keeps_its_text_once_and_shares_flag_sets():
    unit = smali.parse_unit(WRAPPER)
    other = smali.parse_unit(WRAPPER.replace("Holder", "Other"))
    assert unit.text is WRAPPER and unit.methods[0].text is WRAPPER
    assert not hasattr(unit, "__dict__") and not hasattr(unit.methods[0], "__dict__")
    assert unit.lines == tuple(WRAPPER.split("\n")) and unit.lines is not unit.lines
    assert unit.class_flags is other.class_flags
    assert unit.methods[0].access_flags is other.methods[0].access_flags


def test_records_compare_as_before_whether_built_or_not():
    built, fresh = smali.parse_unit(WRAPPER), smali.parse_unit(WRAPPER)
    assert built.methods[0].instructions and built.methods[0].instructions_built
    assert not fresh.methods[0].instructions_built
    assert built == fresh and hash(built) == hash(fresh)
    assert built != smali.parse_unit(WRAPPER.replace("0xb4", "0x5a"))


def test_flag_set_table_is_bounded(monkeypatch):
    monkeypatch.setattr(smali, "_FLAG_SETS", {})
    # Unknown class flags written first take no room in the table.
    for i in range(smali._MAX_FLAG_SETS + 10):
        smali.parse_unit(f".class public f{i} LC{i};\n.super Ljava/lang/Object;\n")
    assert smali._FLAG_SETS == {}
    unit, other = smali.parse_unit(WRAPPER), smali.parse_unit(WRAPPER)
    assert unit.class_flags is other.class_flags
    assert unit.methods[0].access_flags is other.methods[0].access_flags
    # A set is shared whatever order its flags are written in.
    first = smali.parse_unit(".class public final LA;\n")
    assert smali.parse_unit(".class final public LB;\n").class_flags is first.class_flags
    # Known flags fill the table up to its bound, and no further.
    known = sorted(smali.KNOWN_ACCESS_FLAGS)
    combos = list(itertools.islice(itertools.combinations(known, 3), smali._MAX_FLAG_SETS))
    units = [smali.parse_unit(f".class {' '.join(c)} LC;\n") for c in combos]
    assert len(smali._FLAG_SETS) == smali._MAX_FLAG_SETS
    assert units[-1].class_flags == set(combos[-1])
    assert units[-1].class_flags not in smali._FLAG_SETS
    again = smali.parse_unit(".class public final LD;\n")
    assert again.class_flags is first.class_flags


def test_instructions_are_built_on_first_read(monkeypatch):
    calls = []
    real = smali._build_instruction
    monkeypatch.setattr(smali, "_build_instruction",
                        lambda raw, s, i, regs: calls.append(i) or real(raw, s, i, regs))
    unit = smali.parse_unit(WRAPPER)
    assert calls == []
    (ctor,) = unit.methods
    first = ctor.instructions
    assert ctor.instructions is first
    assert sorted(calls) == [i.line_index for i in first
                             if i.kind is not OpKind.DIRECTIVE]
