"""Parser and emitter for disassembler-style smali class files.

The parser covers the instruction subset needed for constructor signature
matching and patch injection: const loads, instance field put/get, invokes,
moves, move-results, returns, new-instance and check-cast.  Every other line
(directives, labels, switch payloads, annotations, comments) is kept as an
opaque raw line, so ``emit_unit(parse_unit(text)) == text`` byte-for-byte.

Lines are the unit of fidelity: a unit keeps its text and the lines its
parse split, and every structured instruction keeps its own line and index
in the file, which is what makes minimal-diff patching possible.
Supported opcodes with malformed operands are rejected with a syntax error
rather than guessed at; unknown opcodes pass through untouched.

One table, ``_CHECKS``, validates and builds.  For each supported opcode
family it holds a pattern whose groups capture every operand, and a builder
from a match to operands.  ``parse_unit`` matches every line eagerly but
reads only the registers, for the frame check; a method's ``Instruction``
objects are built from the same patterns when its ``instructions`` are first
read, since most methods of an app are never read by analysis.  A method
shares its unit's lines, so no reader splits the text again; keeping them
is cheap, as a stage parses only the classes it reads, one or two per app.
A line the table rejects, or a method whose registers may exceed the frame,
goes to ``_parse_instruction`` and ``_validate_registers``, which give
every error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence, Union


class SmaliSyntaxError(ValueError):
    """Raised for malformed headers, descriptors or operands.

    ``line`` is 1-based; ``column`` is 1-based when known, else None.
    """

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        self.line = line
        self.column = column
        loc = f"line {line}" if column is None else f"line {line}, col {column}"
        super().__init__(f"{loc}: {message}")


class OpKind(Enum):
    CONST_INT = "const_int"
    CONST_STRING = "const_string"
    CONST_CLASS = "const_class"
    IPUT = "iput"
    IGET = "iget"
    INVOKE = "invoke"
    MOVE = "move"
    MOVE_RESULT = "move_result"
    RETURN = "return"
    NEW_INSTANCE = "new_instance"
    CHECK_CAST = "check_cast"
    LABEL = "label"
    DIRECTIVE = "directive"
    RAW = "raw"


CONST_INT_OPS = {
    "const/4", "const/16", "const", "const/high16",
    "const-wide/16", "const-wide/32", "const-wide", "const-wide/high16",
}
CONST_STRING_OPS = {"const-string", "const-string/jumbo"}
CONST_CLASS_OPS = {"const-class"}
_FIELD_WIDTHS = ("", "-wide", "-object", "-boolean", "-byte", "-char", "-short")
IPUT_OPS = {"iput" + s for s in _FIELD_WIDTHS}
IGET_OPS = {"iget" + s for s in _FIELD_WIDTHS}
INVOKE_OPS = {
    "invoke-virtual", "invoke-super", "invoke-direct", "invoke-static",
    "invoke-interface",
}
INVOKE_RANGE_OPS = {op + "/range" for op in INVOKE_OPS}
MOVE_OPS = {
    "move", "move/from16", "move/16",
    "move-object", "move-object/from16", "move-object/16",
    "move-wide", "move-wide/from16", "move-wide/16",
}
MOVE_RESULT_OPS = {"move-result", "move-result-object", "move-result-wide"}
RETURN_OPS = {"return-void", "return", "return-object", "return-wide"}

# int() refuses decimal strings over sys.get_int_max_str_digits() digits,
# a limit that is never under 640: longer registers, literals and frames fail.
_MAX_DIGITS = 640
_REG_RE = re.compile(rf"^[vp]\d{{1,{_MAX_DIGITS}}}$")
# Dalvik register numbers are 16-bit.
_MAX_REGISTER = 0xFFFF
# ASCII hex, or decimal without a leading zero: int(text, 0) rejects "02".
_INT = rf"-?(?:0[xX][0-9a-fA-F]+|0{{1,{_MAX_DIGITS}}}|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}})"
_INT_RE = re.compile(rf"^{_INT}$")
_TYPE_RE = re.compile(r"^\[*(?:[ZBCSIJFD]|L[^;\s]+;)$")
_FIELD_REF_RE = re.compile(r"^(\[*L[^;\s]+;)->([^:\s]+):(\S+)$")
_METHOD_REF_RE = re.compile(r"^(\[*(?:L[^;\s]+;|[ZBCSIJFD]))->([^(\s]+)\(([^)]*)\)(\S+)$")
_STRING_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')
_METHOD_SIG_RE = re.compile(r"^([^(\s]+)\(([^)]*)\)(\S+)$")

KNOWN_ACCESS_FLAGS = {
    "public", "private", "protected", "static", "final", "synchronized",
    "bridge", "varargs", "native", "abstract", "strictfp", "synthetic",
    "constructor", "declared-synchronized", "interface", "enum", "annotation",
    "volatile", "transient",
}


@dataclass(slots=True, unsafe_hash=True)
class Register:
    name: str

    @property
    def kind(self) -> str:
        return self.name[0]

    @property
    def index(self) -> int:
        return int(self.name[1:])

    def __str__(self) -> str:
        return self.name


@dataclass(slots=True, unsafe_hash=True)
class IntLiteral:
    value: int
    text: str

    @property
    def radix(self) -> str:
        return "hex" if "0x" in self.text.lower() else "dec"


@dataclass(slots=True, unsafe_hash=True)
class StringLiteral:
    # Escaped source form, without the surrounding quotes.
    text: str


@dataclass(slots=True, unsafe_hash=True)
class TypeRef:
    descriptor: str


@dataclass(slots=True, unsafe_hash=True)
class FieldRef:
    owner_class: str
    field_name: str
    field_type: str

    def __str__(self) -> str:
        return f"{self.owner_class}->{self.field_name}:{self.field_type}"


@dataclass(slots=True, unsafe_hash=True)
class MethodRef:
    owner_class: str
    method_name: str
    param_descriptor: str
    return_type: str

    def __str__(self) -> str:
        return (f"{self.owner_class}->{self.method_name}"
                f"({self.param_descriptor}){self.return_type}")


@dataclass(slots=True, unsafe_hash=True)
class RegisterList:
    registers: tuple[Register, ...]


Operand = Union[Register, IntLiteral, StringLiteral, TypeRef, FieldRef, MethodRef, RegisterList]


@dataclass(slots=True, unsafe_hash=True)
class Instruction:
    opcode: str
    kind: OpKind
    operands: tuple[Operand, ...]
    raw_text: str
    line_index: int

    @property
    def dest(self) -> Optional[Register]:
        if self.operands and isinstance(self.operands[0], Register):
            return self.operands[0]
        return None

    @property
    def literal(self) -> Optional[IntLiteral]:
        for op in self.operands:
            if isinstance(op, IntLiteral):
                return op
        return None

    @property
    def field_ref(self) -> Optional[FieldRef]:
        for op in self.operands:
            if isinstance(op, FieldRef):
                return op
        return None

    @property
    def method_ref(self) -> Optional[MethodRef]:
        for op in self.operands:
            if isinstance(op, MethodRef):
                return op
        return None

    @property
    def invoke_registers(self) -> tuple[Register, ...]:
        for op in self.operands:
            if isinstance(op, RegisterList):
                return op.registers
        return ()


@dataclass(slots=True, unsafe_hash=True)
class SmaliMethod:
    name: str
    param_types: tuple[str, ...]
    return_type: str
    access_flags: frozenset[str]
    registers: Optional[int]      # .registers value, or None
    locals_count: Optional[int]   # .locals value, or None
    header_line_index: int
    end_line_index: int
    lines: tuple[str, ...] = field(repr=False)   # the lines of the whole unit
    _instructions: Optional[tuple[Instruction, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The body's instructions, built from the unit's lines on first read;
        each keeps its own line as ``raw_text``."""
        if self._instructions is None:
            lines = self.lines
            out = []
            regs = _Registers()
            for i in range(self.header_line_index + 1, self.end_line_index):
                raw = lines[i]
                s = raw.strip()
                if s.startswith(".registers") or s.startswith(".locals"):
                    out.append(Instruction(s.split()[0], OpKind.DIRECTIVE, (), raw, i))
                elif s and not s.startswith("#"):
                    out.append(_build_instruction(raw, s, i, regs))
            self._instructions = tuple(out)
        return self._instructions

    @property
    def instructions_built(self) -> bool:
        return self._instructions is not None

    @property
    def is_constructor(self) -> bool:
        return self.name == "<init>"

    @property
    def is_static(self) -> bool:
        return "static" in self.access_flags

    @property
    def signature(self) -> str:
        return f"{self.name}({''.join(self.param_types)}){self.return_type}"

    @property
    def param_slots(self) -> int:
        slots = 0 if self.is_static else 1
        for t in self.param_types:
            slots += 2 if t in ("J", "D") else 1
        return slots


@dataclass(slots=True, unsafe_hash=True)
class SmaliUnit:
    class_name: str
    super_name: Optional[str]
    class_flags: frozenset[str]
    methods: tuple[SmaliMethod, ...]
    text: str = field(repr=False)
    # The lines parse_unit split from ``text``, shared by every method.
    lines: tuple[str, ...] = field(repr=False, compare=False)


def check_type_descriptor(desc: str, *, void_ok: bool = False) -> bool:
    if void_ok and desc == "V":
        return True
    return bool(_TYPE_RE.match(desc))


def split_param_descriptors(params: str, line: int) -> tuple[str, ...]:
    out = []
    i = 0
    while i < len(params):
        start = i
        while i < len(params) and params[i] == "[":
            i += 1
        if i >= len(params):
            raise SmaliSyntaxError(f"dangling array marker in parameter list '{params}'", line)
        c = params[i]
        if c == "L":
            end = params.find(";", i)
            if end < 0:
                raise SmaliSyntaxError(f"unterminated object descriptor in '{params}'", line)
            i = end + 1
        elif c in "ZBCSIJFD":
            i += 1
        else:
            raise SmaliSyntaxError(f"bad type character '{c}' in parameter list '{params}'", line)
        out.append(params[start:i])
    return tuple(out)


def parse_int_literal(text: str, line: int) -> IntLiteral:
    if not _INT_RE.match(text):
        raise SmaliSyntaxError(f"bad integer literal '{text}'", line)
    return IntLiteral(value=int(text, 0), text=text)


def format_int_literal(value: int, radix: str = "hex") -> str:
    if radix == "dec":
        return str(value)
    return f"-0x{-value:x}" if value < 0 else f"0x{value:x}"


def const_opcode_for(value: int) -> str:
    """Smallest non-wide const opcode that can carry ``value``."""
    if -8 <= value <= 7:
        return "const/4"
    if -0x8000 <= value <= 0x7FFF:
        return "const/16"
    return "const"


def render_const(register: str, value: int, radix: str = "hex", indent: str = "    ") -> str:
    return f"{indent}{const_opcode_for(value)} {register}, {format_int_literal(value, radix)}"


def _parse_register(tok: str, line: int) -> Register:
    if not _REG_RE.match(tok):
        raise SmaliSyntaxError(f"bad register '{tok}'", line)
    if int(tok[1:]) > _MAX_REGISTER:
        raise SmaliSyntaxError(f"register '{tok}' above {tok[0]}{_MAX_REGISTER}", line)
    return Register(tok)


def _strip_comment(rest: str) -> str:
    # For non-string operands '#' can only start a trailing comment.
    pos = rest.find("#")
    return rest if pos < 0 else rest[:pos]


def _parse_field_ref(tok: str, line: int) -> FieldRef:
    m = _FIELD_REF_RE.match(tok)
    if not m:
        raise SmaliSyntaxError(f"bad field reference '{tok}'", line)
    owner, name, ftype = m.groups()
    if not check_type_descriptor(ftype):
        raise SmaliSyntaxError(f"bad field type descriptor '{ftype}'", line)
    return FieldRef(owner_class=owner, field_name=name, field_type=ftype)


def _parse_method_ref(tok: str, line: int) -> MethodRef:
    m = _METHOD_REF_RE.match(tok)
    if not m:
        raise SmaliSyntaxError(f"bad method reference '{tok}'", line)
    owner, name, params, ret = m.groups()
    split_param_descriptors(params, line)
    if not check_type_descriptor(ret, void_ok=True):
        raise SmaliSyntaxError(f"bad return type descriptor '{ret}'", line)
    return MethodRef(owner_class=owner, method_name=name, param_descriptor=params, return_type=ret)


def _parse_register_list(tok: str, line: int, is_range: bool) -> RegisterList:
    tok = tok.strip()
    if not (tok.startswith("{") and tok.endswith("}")):
        raise SmaliSyntaxError(f"bad register list '{tok}'", line)
    inner = tok[1:-1].strip()
    if not inner:
        return RegisterList(registers=())
    if is_range:
        parts = [p.strip() for p in inner.split("..")]
        if len(parts) != 2:
            raise SmaliSyntaxError(f"bad register range '{tok}'", line)
        first = _parse_register(parts[0], line)
        last = _parse_register(parts[1], line)
        if first.kind != last.kind or last.index < first.index:
            raise SmaliSyntaxError(f"bad register range '{tok}'", line)
        regs = tuple(Register(f"{first.kind}{i}") for i in range(first.index, last.index + 1))
        return RegisterList(registers=regs)
    regs = tuple(_parse_register(p.strip(), line) for p in inner.split(","))
    return RegisterList(registers=regs)


def _parse_instruction(raw: str, stripped: str, line_index: int) -> Instruction:
    lineno = line_index + 1
    if stripped.startswith(":"):
        return Instruction(":", OpKind.LABEL, (), raw, line_index)
    if stripped.startswith("."):
        op = stripped.split(None, 1)[0]
        return Instruction(op, OpKind.DIRECTIVE, (), raw, line_index)

    parts = stripped.split(None, 1)
    opcode = parts[0]
    rest = parts[1] if len(parts) > 1 else ""

    if opcode in CONST_INT_OPS:
        ops = [t.strip() for t in _strip_comment(rest).split(",")]
        if len(ops) != 2:
            raise SmaliSyntaxError(f"{opcode} expects 'reg, literal'", lineno)
        reg = _parse_register(ops[0], lineno)
        lit = parse_int_literal(ops[1], lineno)
        return Instruction(opcode, OpKind.CONST_INT, (reg, lit), raw, line_index)

    if opcode in CONST_STRING_OPS:
        head, sep, tail = rest.partition(",")
        if not sep:
            raise SmaliSyntaxError(f"{opcode} expects 'reg, \"string\"'", lineno)
        reg = _parse_register(head.strip(), lineno)
        m = _STRING_RE.match(tail.strip())
        if not m:
            raise SmaliSyntaxError(f"bad string operand in {opcode}", lineno)
        return Instruction(opcode, OpKind.CONST_STRING, (reg, StringLiteral(m.group(1))), raw, line_index)

    if opcode in CONST_CLASS_OPS or opcode == "new-instance" or opcode == "check-cast":
        ops = [t.strip() for t in _strip_comment(rest).split(",")]
        if len(ops) != 2:
            raise SmaliSyntaxError(f"{opcode} expects 'reg, type'", lineno)
        reg = _parse_register(ops[0], lineno)
        if not check_type_descriptor(ops[1]):
            raise SmaliSyntaxError(f"bad type descriptor '{ops[1]}'", lineno)
        kind = {"const-class": OpKind.CONST_CLASS,
                "new-instance": OpKind.NEW_INSTANCE,
                "check-cast": OpKind.CHECK_CAST}[opcode]
        return Instruction(opcode, kind, (reg, TypeRef(ops[1])), raw, line_index)

    if opcode in IPUT_OPS or opcode in IGET_OPS:
        ops = [t.strip() for t in _strip_comment(rest).split(",")]
        if len(ops) != 3:
            raise SmaliSyntaxError(f"{opcode} expects 'reg, reg, field-ref'", lineno)
        src = _parse_register(ops[0], lineno)
        obj = _parse_register(ops[1], lineno)
        ref = _parse_field_ref(ops[2], lineno)
        kind = OpKind.IPUT if opcode in IPUT_OPS else OpKind.IGET
        return Instruction(opcode, kind, (src, obj, ref), raw, line_index)

    if opcode in INVOKE_OPS or opcode in INVOKE_RANGE_OPS:
        body = _strip_comment(rest).strip()
        close = body.find("}")
        if not body.startswith("{") or close < 0:
            raise SmaliSyntaxError(f"{opcode} expects '{{regs}}, method-ref'", lineno)
        reglist_tok = body[: close + 1]
        after = body[close + 1:].strip()
        if not after.startswith(","):
            raise SmaliSyntaxError(f"{opcode} expects '{{regs}}, method-ref'", lineno)
        ref_tok = after[1:].strip()
        regs = _parse_register_list(reglist_tok, lineno, opcode in INVOKE_RANGE_OPS)
        ref = _parse_method_ref(ref_tok, lineno)
        return Instruction(opcode, OpKind.INVOKE, (regs, ref), raw, line_index)

    if opcode in MOVE_OPS:
        ops = [t.strip() for t in _strip_comment(rest).split(",")]
        if len(ops) != 2:
            raise SmaliSyntaxError(f"{opcode} expects 'reg, reg'", lineno)
        return Instruction(opcode, OpKind.MOVE,
                           (_parse_register(ops[0], lineno), _parse_register(ops[1], lineno)),
                           raw, line_index)

    if opcode in MOVE_RESULT_OPS:
        tok = _strip_comment(rest).strip()
        return Instruction(opcode, OpKind.MOVE_RESULT, (_parse_register(tok, lineno),), raw, line_index)

    if opcode in RETURN_OPS:
        tok = _strip_comment(rest).strip()
        if opcode == "return-void":
            if tok:
                raise SmaliSyntaxError("return-void takes no operand", lineno)
            return Instruction(opcode, OpKind.RETURN, (), raw, line_index)
        return Instruction(opcode, OpKind.RETURN, (_parse_register(tok, lineno),), raw, line_index)

    return Instruction(opcode, OpKind.RAW, (), raw, line_index)


def _parse_method_header(raw: str, line_index: int) -> tuple[frozenset[str], str, tuple[str, ...], str]:
    lineno = line_index + 1
    tokens = raw.split()
    if tokens[0] != ".method" or len(tokens) < 2:
        raise SmaliSyntaxError("malformed .method header", lineno)
    sig_tok = tokens[-1]
    flags = tokens[1:-1]
    for f in flags:
        if f not in KNOWN_ACCESS_FLAGS:
            raise SmaliSyntaxError(f"unknown method access flag '{f}'", lineno)
    m = _METHOD_SIG_RE.match(sig_tok)
    if not m:
        raise SmaliSyntaxError(f"malformed method signature '{sig_tok}'", lineno)
    name, params, ret = m.groups()
    param_types = split_param_descriptors(params, lineno)
    if not check_type_descriptor(ret, void_ok=True):
        raise SmaliSyntaxError(f"bad return type descriptor '{ret}'", lineno)
    return frozenset(flags), name, param_types, ret


def _frame_size(method: SmaliMethod) -> Optional[int]:
    """Registers in the method's frame; None without .registers/.locals."""
    if method.registers is not None:
        return method.registers
    if method.locals_count is not None:
        return method.locals_count + method.param_slots
    return None


def _operand_registers(ins: Instruction) -> list[Register]:
    regs: list[Register] = []
    for op in ins.operands:
        if isinstance(op, Register):
            regs.append(op)
        elif isinstance(op, RegisterList):
            regs.extend(op.registers)
    return regs


def _validate_registers(method: SmaliMethod) -> None:
    total = _frame_size(method)
    if total is None:
        return
    slots = method.param_slots
    for ins in method.instructions:
        for r in _operand_registers(ins):
            bad = (r.kind == "p" and r.index >= slots) or (r.kind == "v" and r.index >= total)
            if bad:
                raise SmaliSyntaxError(
                    f"register {r.name} out of range (frame {total}, params {slots})",
                    ins.line_index + 1)


# The instruction table. Each pattern matches the operand text after the
# opcode and accepts a subset of what _parse_instruction accepts. No operand
# part may hold '#' or ',', so the first '#' starts the comment and the ','
# splits fall where _parse_instruction puts them. ``where`` tells where the
# registers are: the first n groups, the list in group 1 (_LIST) or the
# bounds in groups 1 and 2 (_RANGE).
#
# A register name has at most _MAX_DIGITS digits and a number of at most
# _MAX_REGISTER (65535). It matches in one way only: the leading zeros, then
# a number without them, then no digit. (With two ways per name, a rejected
# list of n registers would take 2^n steps to reject.)
_LREG = (rf"[vp](?=[0-9]{{1,{_MAX_DIGITS}}}(?![0-9]))0*"
         r"(?:[1-5][0-9]{4}|6[0-4][0-9]{3}|65[0-4][0-9]{2}|655[0-2][0-9]|6553[0-5]"
         r"|[1-9][0-9]{0,3})?(?![0-9])")
_R = f"({_LREG})"
_TAIL = r"\s*(?:#.*)?"
_TYPE = r"\[*(?:[ZBCSIJFD]|L[^;\s#,]+;)"
_METHOD = (r"(\[*(?:L[^;\s#,]+;|[ZBCSIJFD]))->([^(\s#,]+)"
           r"\(((?:\[*(?:[ZBCSIJFD]|L[^;\s#,)]+;))*)\)(V|" + _TYPE + ")")
_TYPED = rf"{_R}\s*,\s*({_TYPE}){_TAIL}"
_FIELD = rf"{_R}\s*,\s*{_R}\s*,\s*(\[*L[^;\s#,]+;)->([^:\s#,]+):({_TYPE}){_TAIL}"
_LIST_REG_RE = re.compile(_LREG)
_LIST, _RANGE = -1, -2


class _Registers(dict):
    """The Register objects of one method build, one per name."""

    def __missing__(self, name: str) -> Register:
        reg = self[name] = Register(name)
        return reg


def _typed(m: re.Match, r: _Registers) -> tuple:
    return r[m[1]], TypeRef(m[2])


def _field(m: re.Match, r: _Registers) -> tuple:
    return r[m[1]], r[m[2]], FieldRef(m[3], m[4], m[5])


def _only_registers(m: re.Match, r: _Registers) -> tuple:
    return tuple([r[name] for name in m.groups()])


def _range(m: re.Match, r: _Registers) -> tuple:
    first, last = m[1], m[2]
    names = [f"{first[0]}{i}" for i in range(int(first[1:]), int(last[1:]) + 1)] if first else []
    return RegisterList(tuple([r[n] for n in names])), MethodRef(m[3], m[4], m[5], m[6])


_CHECKS: dict[str, tuple[re.Pattern, OpKind, int, Callable[..., tuple]]] = {
    op: (re.compile(pattern), kind, where, operands)
    for ops, kind, pattern, where, operands in (
        (CONST_INT_OPS, OpKind.CONST_INT, rf"{_R}\s*,\s*({_INT}){_TAIL}", 1,
         lambda m, r: (r[m[1]], IntLiteral(int(m[2], 0), m[2]))),
        (CONST_STRING_OPS, OpKind.CONST_STRING, rf'{_R}\s*,\s*"((?:[^"\\]|\\.)*)"\s*', 1,
         lambda m, r: (r[m[1]], StringLiteral(m[2]))),
        (CONST_CLASS_OPS, OpKind.CONST_CLASS, _TYPED, 1, _typed),
        ({"new-instance"}, OpKind.NEW_INSTANCE, _TYPED, 1, _typed),
        ({"check-cast"}, OpKind.CHECK_CAST, _TYPED, 1, _typed),
        (IPUT_OPS, OpKind.IPUT, _FIELD, 2, _field),
        (IGET_OPS, OpKind.IGET, _FIELD, 2, _field),
        (INVOKE_OPS, OpKind.INVOKE,
         rf"\{{(\s*(?:{_LREG}(?:\s*,\s*{_LREG})*)?\s*)\}}\s*,\s*{_METHOD}{_TAIL}", _LIST,
         lambda m, r: (RegisterList(tuple([r[n] for n in _LIST_REG_RE.findall(m[1])])),
                       MethodRef(m[2], m[3], m[4], m[5]))),
        (INVOKE_RANGE_OPS, OpKind.INVOKE,
         rf"\{{\s*(?:{_R}\s*\.\.\s*{_R})?\s*\}}\s*,\s*{_METHOD}{_TAIL}", _RANGE, _range),
        (MOVE_OPS, OpKind.MOVE, rf"{_R}\s*,\s*{_R}{_TAIL}", 2, _only_registers),
        (MOVE_RESULT_OPS, OpKind.MOVE_RESULT, rf"{_R}{_TAIL}", 1, _only_registers),
        (RETURN_OPS - {"return-void"}, OpKind.RETURN, rf"{_R}{_TAIL}", 1, _only_registers),
        ({"return-void"}, OpKind.RETURN, _TAIL, 0, _only_registers))
    for op in ops}


def _fast_registers(stripped: str) -> Optional[Sequence[str]]:
    """Register operands of an instruction line that the table accepts, ()
    for an unsupported opcode, None for a rejected line (such as one with a
    register above the 16-bit range, or a /range list out of order).

    For a /range list only its bounds are returned: they hold the highest
    index, which is all the frame check needs.
    """
    parts = stripped.split(None, 1)
    check = _CHECKS.get(parts[0])
    if check is None:
        return ()
    pattern, _, where, _ = check
    m = pattern.fullmatch(parts[1] if len(parts) > 1 else "")
    if m is None:
        return None
    if where >= 0:
        return m.groups()[:where]
    if where == _LIST:
        return _LIST_REG_RE.findall(m[1])
    first, last = m[1], m[2]
    if first is None:
        return ()
    if first[0] != last[0] or int(last[1:]) < int(first[1:]):
        return None
    return first, last


def _build_instruction(raw: str, stripped: str, line_index: int,
                       regs: _Registers) -> Instruction:
    """The Instruction of a line that validation accepted: built from its
    table match, or by _parse_instruction for a line the table rejects or
    does not cover. (A /range list the table matches has passed the order
    check of _fast_registers.)"""
    parts = stripped.split(None, 1)
    check = _CHECKS.get(parts[0])
    if check is not None:
        pattern, kind, _, operands = check
        m = pattern.fullmatch(parts[1] if len(parts) > 1 else "")
        if m is not None:
            return Instruction(parts[0], kind, operands(m, regs), raw, line_index)
    return _parse_instruction(raw, stripped, line_index)


def _may_exceed_frame(method: SmaliMethod, used: set[str]) -> bool:
    total = _frame_size(method)
    if total is None:
        return False
    slots = method.param_slots
    return any(int(r[1:]) >= (total if r[0] == "v" else slots) for r in used)


def _parse_method(lines: tuple[str, ...], start: int) -> tuple[SmaliMethod, int]:
    """Validate one method; its instructions are built on first read."""
    flags, name, params, ret = _parse_method_header(lines[start].strip(), start)
    registers = locals_count = None
    used: set[str] = set()   # register operands of the body
    for i in range(start + 1, len(lines)):
        s = lines[i].strip()
        if not s:
            continue
        first = s[0]
        if first == ".":
            if s == ".end method":
                method = SmaliMethod(
                    name=name, param_types=params, return_type=ret, access_flags=flags,
                    registers=registers, locals_count=locals_count,
                    header_line_index=start, end_line_index=i, lines=lines)
                if _may_exceed_frame(method, used):
                    _validate_registers(method)
                return method, i + 1
            if s.startswith(".method"):
                raise SmaliSyntaxError("nested .method (missing .end method?)", i + 1)
            toks = s.split() if s.startswith((".registers", ".locals")) else ()
            if toks and toks[0] in (".registers", ".locals"):
                if len(toks) != 2 or not (toks[1].isascii() and toks[1].isdigit()) \
                        or len(toks[1]) > _MAX_DIGITS:
                    raise SmaliSyntaxError(f"malformed {toks[0]} directive", i + 1)
                if toks[0] == ".registers":
                    registers = int(toks[1])
                else:
                    locals_count = int(toks[1])
        elif first != "#" and first != ":":
            regs = _fast_registers(s)
            if regs is None:
                regs = [r.name for r in
                        _operand_registers(_parse_instruction(lines[i], s, i))]
            used.update(regs)
    raise SmaliSyntaxError(f"unterminated .method '{name}' (no .end method)", start + 1)


def parse_unit(text: str) -> SmaliUnit:
    """Parse one smali class file.  The input must contain exactly one
    ``.class`` declaration; the returned unit re-emits the text unchanged."""
    lines = tuple(text.split("\n"))
    class_name: Optional[str] = None
    class_flags: frozenset[str] = frozenset()
    super_name: Optional[str] = None
    methods: list[SmaliMethod] = []

    i = 0
    while i < len(lines):
        s = lines[i].strip()
        if not s or s.startswith("#"):
            i += 1
            continue
        if s.startswith(".class"):
            if class_name is not None:
                raise SmaliSyntaxError("duplicate .class declaration", i + 1)
            toks = s.split()
            if len(toks) < 2 or not check_type_descriptor(toks[-1]) or not toks[-1].startswith("L"):
                raise SmaliSyntaxError("malformed .class declaration", i + 1)
            class_name = toks[-1]
            class_flags = frozenset(toks[1:-1])
            i += 1
        elif s.startswith(".super"):
            toks = s.split()
            if len(toks) != 2 or not check_type_descriptor(toks[1]):
                raise SmaliSyntaxError("malformed .super declaration", i + 1)
            super_name = toks[1]
            i += 1
        elif s.startswith(".field"):
            _check_field_decl(s, i)
            i += 1
        elif s.startswith(".method"):
            if class_name is None:
                raise SmaliSyntaxError(".method before .class declaration", i + 1)
            method, i = _parse_method(lines, i)
            methods.append(method)
        elif s == ".end method":
            raise SmaliSyntaxError(".end method without matching .method", i + 1)
        else:
            # .source/.implements/annotations/comments: opaque, preserved.
            i += 1

    if class_name is None:
        raise SmaliSyntaxError("missing .class declaration", 1)
    return SmaliUnit(
        class_name=class_name, super_name=super_name, class_flags=class_flags,
        methods=tuple(methods), text=text, lines=lines)


_FIELD_DECL_RE = re.compile(r"^\.field\s+((?:[\w-]+\s+)*)([^:\s]+):(\S+)(?:\s*=\s*(.+))?$")


def _check_field_decl(s: str, line_index: int) -> None:
    """Validate a stripped ``.field`` line; no record of it is kept."""
    m = _FIELD_DECL_RE.match(s)
    if not m:
        raise SmaliSyntaxError("malformed .field declaration", line_index + 1)
    ftype = m.group(3)
    if not check_type_descriptor(ftype):
        raise SmaliSyntaxError(f"bad field type descriptor '{ftype}'", line_index + 1)


def emit_unit(unit: SmaliUnit) -> str:
    """Render a unit back to source.  Total for valid units; untouched lines
    are reproduced verbatim."""
    return unit.text

