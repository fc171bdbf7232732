"""Locate image pre-processing code inside disassembled app trees.

Three passes over the smali of one app:

* find anchors: calls into on-device inference APIs (MLKit detectors,
  TFLite interpreters) whose image argument is worth tracing;
* backward-slice the image argument to the framework calls that created
  the image buffer, following one level of app-defined factory methods;
* match wrapper-class constructors against three signatures built purely
  from constant literals and framework names, so renaming app identifiers
  does not disturb them.

The passes read classes through a ``ClassIndex``, which parses a class
only when a pass first reads it: anchors parse only classes whose text
names an inference API owner, matching only classes whose text has a
constructor and an ``iput`` into an own field, and slicing only the
classes a slice reaches. Their results equal those of parsing every class
first.

Strategy constants, in precedence order:

* buffer wrappers store an image-format tag of 842094169 or 17 into an
  own field and carry a diagnostic string constant;
* bitmap wrappers read getWidth()/getHeight() off a bitmap parameter and
  store a format tag of -1;
* media-image wrappers store a format tag of 35 and touch
  android.graphics.Matrix.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
                    Union)

from . import scan, smali
from .smali import Instruction, MethodRef, OpKind, Register, SmaliMethod, SmaliUnit

STRATEGY_BUFFER = "S1_buffer"
STRATEGY_BITMAP = "S2_bitmap"
STRATEGY_MEDIA_IMAGE = "S3_media_image"

BUFFER_FORMAT_CONSTANTS = (842094169, 17)
BITMAP_FORMAT_CONSTANT = -1
MEDIA_IMAGE_FORMAT_CONSTANT = 35
MATRIX_TYPE = "Landroid/graphics/Matrix;"

INFERENCE_OWNER_PREFIXES = (scan.MLKIT_API_PREFIX.decode(), scan.TFLITE_API_PREFIX.decode())
INFERENCE_METHOD_NAMES = frozenset(
    {"process", "run", "runForMultipleInputsOutputs", "detectInImage", "processImage"})

CREATION_METHOD_NAMES = frozenset(
    {"createBitmap", "createScaledBitmap", "decodeResource", "decodeFile",
     "decodeStream", "decodeByteArray"})

FRAMEWORK_PREFIXES = (
    "Landroid/", "Landroidx/", "Ldalvik/", "Ljava/", "Ljavax/", "Lkotlin/",
    "Lcom/google/android/gms/", "Lcom/google/mlkit/", "Lcom/google/firebase/",
    "Lorg/tensorflow/")

WIDTH_GETTER = "getWidth"
HEIGHT_GETTER = "getHeight"


def is_framework_class(descriptor: str) -> bool:
    return descriptor.startswith(FRAMEWORK_PREFIXES)


def is_inference_call(ref: MethodRef) -> bool:
    return (ref.owner_class.startswith(INFERENCE_OWNER_PREFIXES)
            and ref.method_name in INFERENCE_METHOD_NAMES)


def is_creation_call(ref: MethodRef) -> bool:
    return (ref.owner_class.startswith("Landroid/")
            and ref.method_name in CREATION_METHOD_NAMES)


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class SliceAnchor:
    """An inference call plus the argument register to trace."""
    unit_path: str
    class_name: str
    method_signature: str
    line_index: int
    target: MethodRef
    argument: Optional[Register]

    def to_dict(self) -> dict:
        return {
            "unit": self.unit_path,
            "class": self.class_name,
            "method": self.method_signature,
            "line": self.line_index,
            "target": str(self.target),
            "argument": str(self.argument) if self.argument else None,
        }


@dataclass(frozen=True)
class CreationSite:
    """A framework call that produced the traced image value."""
    unit_path: str
    method_signature: str
    line_index: int
    api: MethodRef

    def to_dict(self) -> dict:
        return {
            "unit": self.unit_path,
            "method": self.method_signature,
            "line": self.line_index,
            "api": str(self.api),
        }


@dataclass(frozen=True)
class SliceResult:
    anchor: SliceAnchor
    creation_sites: Tuple[CreationSite, ...]
    gaps: Tuple[str, ...]
    trace: Tuple[Tuple[str, int, str], ...]

    def to_dict(self) -> dict:
        return {
            "anchor": self.anchor.to_dict(),
            "creation_sites": [site.to_dict() for site in self.creation_sites],
            "gaps": list(self.gaps),
            "trace": [{"unit": u, "line": i, "text": t} for u, i, t in self.trace],
        }


@dataclass(frozen=True)
class RotationSite:
    """An own-field store holding the rotation value of a wrapper."""
    field_name: str
    iput_line: int
    const_line: Optional[int]        # None when the value arrives via a parameter
    register: Register
    value: Optional[int]
    radix: Optional[str]

    def to_dict(self) -> dict:
        return {
            "field": self.field_name,
            "iput_line": self.iput_line,
            "const_line": self.const_line,
            "register": str(self.register),
            "value": self.value,
        }


@dataclass(frozen=True)
class DimensionSite:
    """Where a wrapper records the image width or height.

    kind 'getter' sites read the value off a bitmap getter pair and can be
    replaced by a constant; 'param' and 'const' sites are informational.
    """
    role: str                         # 'width' | 'height'
    kind: str                         # 'getter' | 'param' | 'const'
    field_name: str
    iput_line: int
    invoke_line: Optional[int]
    move_result_line: Optional[int]
    register: Register
    value: Optional[int]

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "kind": self.kind,
            "field": self.field_name,
            "iput_line": self.iput_line,
            "invoke_line": self.invoke_line,
            "value": self.value,
        }


@dataclass(frozen=True)
class FormatSite:
    field_name: str
    iput_line: int
    const_line: Optional[int]
    value: int

    def to_dict(self) -> dict:
        return {
            "field": self.field_name,
            "iput_line": self.iput_line,
            "const_line": self.const_line,
            "value": self.value,
        }


@dataclass(frozen=True)
class ConstructorMatch:
    unit_path: str
    class_name: str
    method_signature: str
    strategy: str
    format_site: Optional[FormatSite]
    rotation_sites: Tuple[RotationSite, ...]
    dimension_sites: Tuple[DimensionSite, ...]
    matched_constants: Tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "unit": self.unit_path,
            "class": self.class_name,
            "method": self.method_signature,
            "strategy": self.strategy,
            "format_site": self.format_site.to_dict() if self.format_site else None,
            "rotation_sites": [s.to_dict() for s in self.rotation_sites],
            "dimension_sites": [s.to_dict() for s in self.dimension_sites],
            "matched_constants": list(self.matched_constants),
        }


# ---------------------------------------------------------------------------
# class index


def _declared_class(text: str) -> Optional[str]:
    """The descriptor a smali text declares: the last token of its first
    line that strips to ``.class…``. ``smali.parse_unit`` reads the class
    name from that line and refuses a ``.method`` before it, so a text
    that parses declares exactly this class."""
    start = 0
    while start <= len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        line = text[start:end].strip()
        if line.startswith(".class"):
            return line.split()[-1]
        start = end + 1
    return None


def _parse(text: str) -> Union[SmaliUnit, str]:
    """A smali text's unit, or the error that refuses it."""
    try:
        return smali.parse_unit(text)
    except smali.SmaliSyntaxError as exc:
        return str(exc)


class ClassIndex:
    """Descriptor -> parsed unit lookup over one app tree.

    Indexing decodes every smali file and reads the descriptor each one
    declares, but parses (and so validates) a file with ``smali.parse_unit``
    only when a stage first reads its class, and never twice. Lookups give
    exactly what parsing every file first would: a descriptor resolves to
    the first file in tree order that declares it and parses, and a later
    file of that class is shadowed. ``owned_units`` walks the owned classes
    in path order and skips, unparsed, every file whose text fails a test
    each hit needs.

    ``validate`` gives the count of classes that parse and the issue list
    that ``locate --report`` prints. It parses every file no stage read
    and keeps none of those units.
    """

    def __init__(self) -> None:
        # Decoded text of each smali file, in tree order; None if it did
        # not decode.
        self._texts: Dict[str, Optional[str]] = {}
        # Each file's parse: its unit, or the error that refused it (a
        # file that did not decode has its decode error from the start).
        self._parsed: Dict[str, Union[SmaliUnit, str]] = {}
        # Descriptor -> the paths of the files declaring it, in tree order.
        self._declaring: Dict[str, List[str]] = {}

    def unit(self, rel_path: str) -> Optional[SmaliUnit]:
        """The parsed class of the smali file ``rel_path``, parsed on the
        first call; None if the file does not decode or parse, or is not
        one of the app's smali files."""
        parsed = self._parsed.get(rel_path)
        if parsed is None:
            text = self._texts.get(rel_path)
            if text is None:
                return None
            parsed = self._parsed[rel_path] = _parse(text)
        return parsed if isinstance(parsed, SmaliUnit) else None

    def resolve(self, descriptor: str) -> Optional[Tuple[str, SmaliUnit]]:
        """The file that owns ``descriptor``: the first in tree order that
        declares it and parses."""
        for rel in self._declaring.get(descriptor, ()):
            unit = self.unit(rel)
            if unit is not None:
                return rel, unit
        return None

    def owned_units(self, may_hit: Callable[[str, str], bool]
                    ) -> Iterator[Tuple[str, SmaliUnit]]:
        """``(path, unit)`` of each class the index owns, in path order:
        a file owns its descriptor when it is the first in tree order that
        declares it and parses, and a later duplicate is never yielded. A
        file for which ``may_hit(text, descriptor)`` is false is skipped
        without being parsed, so ``may_hit`` must hold for every file a
        caller can find a hit in."""
        hits = sorted((rel, descriptor)
                      for descriptor, paths in self._declaring.items()
                      for rel in paths if may_hit(self._texts[rel], descriptor))
        for rel, descriptor in hits:
            owner = self.resolve(descriptor)
            if owner is not None and owner[0] == rel:
                yield owner

    def texts(self) -> Iterator[Tuple[str, str]]:
        """``(path, text)`` of every smali file that decoded, parsed or
        not, in tree order."""
        return ((rel, text) for rel, text in self._texts.items()
                if text is not None)

    def validate(self) -> Tuple[int, List[Tuple[str, str]]]:
        """The number of smali files that parse, and ``(path, error)`` of
        each file that does not decode or parse, or declares a class an
        earlier file that parses owns, in tree order.

        A file a stage has read gives its parse; any other is parsed here
        and only the outcome kept, so no unit is stored and no file is
        parsed twice."""
        parses = 0
        issues: List[Tuple[str, str]] = []
        owners: Dict[str, str] = {}
        for rel, text in self._texts.items():
            parsed = self._parsed.get(rel)
            if parsed is None:
                parsed = _parse(text)
            if isinstance(parsed, str):
                issues.append((rel, parsed))
                continue
            parses += 1
            first = owners.setdefault(parsed.class_name, rel)
            if first != rel:
                issues.append((rel, f"duplicate class {parsed.class_name} "
                                    f"(first defined in {first})"))
        return parses, issues

    @property
    def by_path(self) -> Dict[str, SmaliUnit]:
        """Every file that parses -> its unit, in tree order, built with
        ``unit`` on each read, so it parses and keeps every class. Its one
        reader is the class count of the benchmark's ``from_tree`` wrapper
        (``perfbench/layers.py``)."""
        return {rel: unit for rel in self._texts
                if (unit := self.unit(rel)) is not None}

    @classmethod
    def from_tree(cls, root: Path) -> "ClassIndex":
        return cls.from_files(scan.load_app(root).data)

    @classmethod
    def from_files(cls, files: Dict[str, Union[str, bytes]]) -> "ClassIndex":
        """Index a path -> text mapping; non-smali entries are skipped.

        Bytes are decoded as ``Path.read_text(encoding="utf-8")`` does
        (strict UTF-8, universal newlines), so line indexes match a disk
        read; ``validate`` reports a file that does not decode or parse. On
        a duplicate class descriptor the first file in tree order that
        parses wins, and ``validate`` reports each later one.

        Strict UTF-8 text without a ``\\r`` encodes back to its bytes, so
        such a bytes value is replaced in ``files`` by its text, the object
        the index (and later its unit) keeps: the text is then the file's
        only copy. Bytes that hold a ``\\r`` or do not decode stay in
        ``files``. No file is parsed here.
        """
        index = cls()
        for rel in sorted(files, key=scan.tree_order):
            if not rel.endswith(".smali"):
                continue
            text = files[rel]
            if isinstance(text, bytes):
                try:
                    text = text.decode("utf-8")
                except UnicodeDecodeError as exc:
                    index._texts[rel] = None
                    index._parsed[rel] = str(exc)
                    continue
                if "\r" in text:
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                else:
                    files[rel] = text
            index._texts[rel] = text
            descriptor = _declared_class(text)
            if descriptor is not None:
                index._declaring.setdefault(descriptor, []).append(rel)
        return index


# ---------------------------------------------------------------------------
# anchors


def _mentions_inference_owner(text: str) -> bool:
    """Whether ``text`` names an inference API owner. An inference invoke
    names its owner in its own line, and no prefix holds a newline, so a
    class or method whose text names none has no anchor."""
    return any(prefix in text for prefix in INFERENCE_OWNER_PREFIXES)


def _methods_with_anchors(unit: SmaliUnit) -> List[SmaliMethod]:
    """The unit's methods whose lines name an inference API owner; no other
    method has an anchor, so their instructions need not be built."""
    lines = unit.text.split("\n")
    return [m for m in unit.methods if _mentions_inference_owner(
        "\n".join(lines[m.header_line_index:m.end_line_index]))]


def find_anchors(index: ClassIndex) -> List[SliceAnchor]:
    """Inference calls in the classes the index owns, in path order; a
    class whose text names no inference owner is not parsed."""
    anchors: List[SliceAnchor] = []
    for rel_path, unit in index.owned_units(
            lambda text, _: _mentions_inference_owner(text)):
        for method in _methods_with_anchors(unit):
            for instr in method.instructions:
                if instr.kind is not OpKind.INVOKE:
                    continue
                ref = instr.method_ref
                if ref is None or not is_inference_call(ref):
                    continue
                regs = list(instr.invoke_registers)
                is_static = instr.opcode.startswith("invoke-static")
                args = regs if is_static else regs[1:]
                anchors.append(SliceAnchor(
                    unit_path=rel_path,
                    class_name=unit.class_name,
                    method_signature=method.signature,
                    line_index=instr.line_index,
                    target=ref,
                    argument=args[0] if args else None,
                ))
    return anchors


# ---------------------------------------------------------------------------
# backward slicing

_DEF_KINDS = (OpKind.CONST_INT, OpKind.CONST_STRING, OpKind.CONST_CLASS,
              OpKind.MOVE, OpKind.MOVE_RESULT, OpKind.NEW_INSTANCE,
              OpKind.CHECK_CAST, OpKind.IGET)


def _defines(instr: Instruction, reg: Register) -> bool:
    if instr.kind not in _DEF_KINDS:
        return False
    dest = instr.dest
    return dest is not None and dest == reg


def _find_def(method: SmaliMethod, before_index: int, reg: Register
              ) -> Optional[Instruction]:
    """Last definition of ``reg`` strictly above ``before_index``."""
    best = None
    for instr in method.instructions:
        if instr.line_index >= before_index:
            break
        if _defines(instr, reg):
            best = instr
    return best


def _invoke_above(method: SmaliMethod, move_result: Instruction
                  ) -> Optional[Instruction]:
    """The invoke an adjacent move-result consumes (blank lines allowed)."""
    prev = None
    for instr in method.instructions:
        if instr.line_index >= move_result.line_index:
            break
        if instr.kind in (OpKind.LABEL, OpKind.DIRECTIVE):
            continue
        prev = instr
    if prev is not None and prev.kind is OpKind.INVOKE:
        return prev
    return None


def _return_register(method: SmaliMethod) -> Optional[Tuple[Register, int]]:
    for instr in reversed(method.instructions):
        if instr.kind is OpKind.RETURN and instr.operands:
            reg = instr.operands[0]
            if isinstance(reg, Register):
                return reg, instr.line_index
    return None


class _Slicer:
    def __init__(self, index: ClassIndex):
        self.index = index
        self.creation_sites: List[CreationSite] = []
        self.gaps: List[str] = []
        self.trace: List[Tuple[str, int, str]] = []
        self._seen: Set[Tuple[str, str, int, str]] = set()

    def run(self, unit_path: str, method: SmaliMethod, before_index: int,
            reg: Register, depth: int) -> None:
        key = (unit_path, method.signature, before_index, str(reg))
        if key in self._seen:
            return
        self._seen.add(key)

        definition = _find_def(method, before_index, reg)
        if definition is None:
            if reg.kind == "p":
                self.gaps.append(
                    f"{unit_path}:{method.signature}: {reg} reaches method entry")
            else:
                self.gaps.append(
                    f"{unit_path}:{method.signature}: no definition for {reg}")
            return
        self.trace.append((unit_path, definition.line_index, definition.raw_text.strip()))

        kind = definition.kind
        if kind in (OpKind.CONST_INT, OpKind.CONST_STRING, OpKind.CONST_CLASS,
                    OpKind.NEW_INSTANCE):
            return
        if kind is OpKind.IGET:
            ref = definition.field_ref
            self.gaps.append(
                f"{unit_path}:{method.signature}: value loaded from field {ref}")
            return
        if kind is OpKind.MOVE:
            source = definition.operands[1]
            self.run(unit_path, method, definition.line_index, source, depth)
            return
        if kind is OpKind.CHECK_CAST:
            self.run(unit_path, method, definition.line_index, reg, depth)
            return
        if kind is OpKind.MOVE_RESULT:
            invoke = _invoke_above(method, definition)
            if invoke is None:
                self.gaps.append(
                    f"{unit_path}:{method.signature}: dangling move-result "
                    f"at line {definition.line_index}")
                return
            self._handle_invoke(unit_path, method, invoke, depth)
            return

    def _handle_invoke(self, unit_path: str, method: SmaliMethod,
                       invoke: Instruction, depth: int) -> None:
        ref = invoke.method_ref
        regs = list(invoke.invoke_registers)
        if ref is None:
            return
        self.trace.append((unit_path, invoke.line_index, invoke.raw_text.strip()))
        if is_creation_call(ref):
            self.creation_sites.append(CreationSite(
                unit_path=unit_path,
                method_signature=method.signature,
                line_index=invoke.line_index,
                api=ref,
            ))
            return
        if is_framework_class(ref.owner_class):
            # Pass-through framework helpers: the value came in via an argument.
            for reg in regs:
                self.run(unit_path, method, invoke.line_index, reg, depth)
            return
        # App-defined call. Trace caller-side arguments, and descend into the
        # body when depth allows so factory-internal creation calls surface.
        for reg in regs:
            self.run(unit_path, method, invoke.line_index, reg, depth)
        if depth <= 0:
            self.gaps.append(
                f"{unit_path}:{method.signature}: call depth exhausted at {ref}")
            return
        resolved = self.index.resolve(ref.owner_class)
        if resolved is None:
            self.gaps.append(
                f"{unit_path}:{method.signature}: cannot resolve {ref.owner_class}")
            return
        callee_path, callee_unit = resolved
        callee = _lookup_method(callee_unit, ref)
        if callee is None:
            self.gaps.append(
                f"{unit_path}:{method.signature}: no body for {ref}")
            return
        returned = _return_register(callee)
        if returned is None:
            return
        ret_reg, ret_line = returned
        self.run(callee_path, callee, ret_line, ret_reg, depth - 1)


def _lookup_method(unit: SmaliUnit, ref: MethodRef) -> Optional[SmaliMethod]:
    for method in unit.methods:
        if (method.name == ref.method_name
                and f"({ref.param_descriptor})" in method.signature):
            return method
    for method in unit.methods:
        if method.name == ref.method_name:
            return method
    return None


def backward_slice(index: ClassIndex, anchor: SliceAnchor,
                   depth: int = 1) -> SliceResult:
    """Trace an anchor argument back to the calls that built the image."""
    unit = index.unit(anchor.unit_path)
    method = next(m for m in unit.methods
                  if m.signature == anchor.method_signature)
    slicer = _Slicer(index)
    if anchor.argument is None:
        slicer.gaps.append(f"{anchor.unit_path}: anchor has no argument to trace")
    else:
        slicer.run(anchor.unit_path, method, anchor.line_index,
                   anchor.argument, depth)
    # De-duplicate sites while keeping discovery order.
    seen: Set[Tuple[str, int]] = set()
    sites = []
    for site in slicer.creation_sites:
        key = (site.unit_path, site.line_index)
        if key not in seen:
            seen.add(key)
            sites.append(site)
    return SliceResult(anchor=anchor, creation_sites=tuple(sites),
                       gaps=tuple(slicer.gaps), trace=tuple(slicer.trace))


# ---------------------------------------------------------------------------
# constructor matching


@dataclass
class _IputInfo:
    instr: Instruction
    source: Register
    const_instr: Optional[Instruction]
    value: Optional[int]
    getter: Optional[Tuple[Instruction, Instruction]]  # (invoke, move-result)


def _const_feed(method: SmaliMethod, iput: Instruction) -> _IputInfo:
    """Resolve what flows into an iput: a constant, a getter result, or opaque."""
    source = iput.operands[0]
    reg = source
    line = iput.line_index
    for _ in range(16):
        definition = _find_def(method, line, reg)
        if definition is None:
            break
        if definition.kind is OpKind.CONST_INT:
            return _IputInfo(iput, source, definition, definition.literal.value, None)
        if definition.kind is OpKind.MOVE:
            reg = definition.operands[1]
            line = definition.line_index
            continue
        if definition.kind is OpKind.MOVE_RESULT:
            invoke = _invoke_above(method, definition)
            if invoke is not None and invoke.kind is OpKind.INVOKE:
                return _IputInfo(iput, source, None, None, (invoke, definition))
            break
        break
    return _IputInfo(iput, source, None, None, None)


def _own_int_iputs(unit: SmaliUnit, method: SmaliMethod) -> List[_IputInfo]:
    infos = []
    for instr in method.instructions:
        if instr.kind is not OpKind.IPUT or instr.opcode != "iput":
            continue
        ref = instr.field_ref
        if ref is None or ref.owner_class != unit.class_name:
            continue
        infos.append(_const_feed(method, instr))
    return infos


def _has_const_string(method: SmaliMethod) -> bool:
    return any(i.kind is OpKind.CONST_STRING for i in method.instructions)


def _mentions_matrix(method: SmaliMethod) -> bool:
    return any(MATRIX_TYPE in instr.raw_text for instr in method.instructions)


def _getter_pairs(method: SmaliMethod) -> Dict[str, List[Tuple[Instruction, Instruction]]]:
    """Framework width/height getters invoked on a parameter register."""
    pairs: Dict[str, List[Tuple[Instruction, Instruction]]] = {
        WIDTH_GETTER: [], HEIGHT_GETTER: []}
    instructions = method.instructions
    for pos, instr in enumerate(instructions):
        if instr.kind is not OpKind.INVOKE:
            continue
        ref = instr.method_ref
        if ref is None or not is_framework_class(ref.owner_class):
            continue
        if ref.method_name not in pairs or ref.param_descriptor != "":
            continue
        regs = instr.invoke_registers
        if not regs or regs[0].kind != "p":
            continue
        for follow in instructions[pos + 1:pos + 4]:
            if follow.kind is OpKind.MOVE_RESULT:
                pairs[ref.method_name].append((instr, follow))
                break
            if follow.kind not in (OpKind.DIRECTIVE, OpKind.LABEL):
                break
    return pairs


def _rotation_sites(infos: Sequence[_IputInfo],
                    format_info: Optional[_IputInfo]) -> List[RotationSite]:
    sites = []
    for info in infos:
        if format_info is not None and info.instr is format_info.instr:
            continue
        if info.value is None or info.const_instr is None:
            continue
        if not 0 <= info.value < 360:
            continue
        if info.value in BUFFER_FORMAT_CONSTANTS or info.value == MEDIA_IMAGE_FORMAT_CONSTANT:
            continue
        sites.append(RotationSite(
            field_name=info.instr.field_ref.field_name,
            iput_line=info.instr.line_index,
            const_line=info.const_instr.line_index,
            register=info.source,
            value=info.value,
            radix=info.const_instr.literal.radix,
        ))
    return sites


def _param_rotation_sites(infos: Sequence[_IputInfo],
                          rotation_fields: Set[str]) -> List[RotationSite]:
    """Parameter-fed stores into fields already known to hold rotation."""
    sites = []
    for info in infos:
        if info.const_instr is not None or info.getter is not None:
            continue
        name = info.instr.field_ref.field_name
        if name in rotation_fields and info.source.kind == "p":
            sites.append(RotationSite(
                field_name=name,
                iput_line=info.instr.line_index,
                const_line=None,
                register=info.source,
                value=None,
                radix=None,
            ))
    return sites


def _dimension_sites(infos: Sequence[_IputInfo]) -> List[DimensionSite]:
    sites = []
    roles = {WIDTH_GETTER: "width", HEIGHT_GETTER: "height"}
    for info in infos:
        ref = info.instr.field_ref
        if info.getter is not None:
            invoke, move_result = info.getter
            name = invoke.method_ref.method_name
            if name in roles:
                sites.append(DimensionSite(
                    role=roles[name], kind="getter", field_name=ref.field_name,
                    iput_line=info.instr.line_index,
                    invoke_line=invoke.line_index,
                    move_result_line=move_result.line_index,
                    register=info.source, value=None))
    return sites


def match_constructor(unit: SmaliUnit, unit_path: str, method: SmaliMethod,
                      infos: Sequence[_IputInfo]) -> Optional[ConstructorMatch]:
    """Test one constructor, whose own-field int stores are ``infos``,
    against the three wrapper signatures."""
    if not infos:
        return None

    def build(strategy: str, format_info: _IputInfo,
              constants: Tuple[int, ...],
              dims: Sequence[DimensionSite]) -> ConstructorMatch:
        rot = _rotation_sites(infos, format_info)
        site = FormatSite(
            field_name=format_info.instr.field_ref.field_name,
            iput_line=format_info.instr.line_index,
            const_line=(format_info.const_instr.line_index
                        if format_info.const_instr else None),
            value=format_info.value,
        )
        return ConstructorMatch(
            unit_path=unit_path, class_name=unit.class_name,
            method_signature=method.signature, strategy=strategy,
            format_site=site, rotation_sites=tuple(rot),
            dimension_sites=tuple(dims), matched_constants=constants)

    # Buffer wrapper: format constant plus a string literal in the body.
    if _has_const_string(method):
        for info in infos:
            if info.value in BUFFER_FORMAT_CONSTANTS:
                return build(STRATEGY_BUFFER, info, (info.value,), ())

    # Bitmap wrapper: getter pair on a parameter plus a -1 format store.
    pairs = _getter_pairs(method)
    if pairs[WIDTH_GETTER] and pairs[HEIGHT_GETTER]:
        for info in infos:
            if info.value == BITMAP_FORMAT_CONSTANT:
                return build(STRATEGY_BITMAP, info,
                             (BITMAP_FORMAT_CONSTANT,), _dimension_sites(infos))

    # Media-image wrapper: format store of 35 plus a Matrix mention.
    if _mentions_matrix(method):
        for info in infos:
            if info.value == MEDIA_IMAGE_FORMAT_CONSTANT:
                return build(STRATEGY_MEDIA_IMAGE, info,
                             (MEDIA_IMAGE_FORMAT_CONSTANT,), ())

    return None


def match_constructors(unit: SmaliUnit, unit_path: str) -> List[ConstructorMatch]:
    """All strategy matches in a unit, one at most per constructor.

    When a constant-fed rotation store identifies the rotation field in one
    constructor, parameter-fed stores to that field in sibling constructors
    are promoted to rotation sites too (value unknown until runtime).
    """
    found = []
    for method in unit.methods:
        if method.is_constructor and not method.is_static:
            infos = _own_int_iputs(unit, method)
            match = match_constructor(unit, unit_path, method, infos)
            if match is not None:
                found.append((match, infos))
    rotation_fields = {site.field_name
                       for match, _ in found for site in match.rotation_sites}
    matches = []
    for match, infos in found:
        known = {s.iput_line for s in match.rotation_sites}
        extra = tuple(s for s in _param_rotation_sites(infos, rotation_fields)
                      if s.iput_line not in known)
        if extra:
            match = dataclasses.replace(
                match, rotation_sites=match.rotation_sites + extra)
        matches.append(match)
    return matches


def _may_match(text: str, descriptor: str) -> bool:
    """Whether a class with this text could match: a match needs an
    ``<init>`` that stores into an own field with ``iput``, whose line
    names the field as ``<descriptor>->``."""
    return "<init>(" in text and "iput" in text and f"{descriptor}->" in text


def match_index(index: ClassIndex) -> List[ConstructorMatch]:
    """Strategy matches of every class the index owns, in path order; a
    class whose text fails ``_may_match`` is not parsed."""
    matches: List[ConstructorMatch] = []
    for rel_path, unit in index.owned_units(_may_match):
        matches.extend(match_constructors(unit, rel_path))
    return matches


# ---------------------------------------------------------------------------
# whole-tree analysis


@dataclass
class AnalysisResult:
    """One app's anchors, slices and matches, with the index they read.
    ``units`` and ``issues`` come from one ``validate`` of that index."""
    root: str
    index: ClassIndex = field(repr=False, compare=False)
    anchors: List[SliceAnchor] = field(default_factory=list)
    slices: List[SliceResult] = field(default_factory=list)
    matches: List[ConstructorMatch] = field(default_factory=list)

    @functools.cached_property
    def _validation(self) -> Tuple[int, List[Tuple[str, str]]]:
        return self.index.validate()

    @property
    def units(self) -> int:
        """Classes that parse, from the index's ``validate``, which the
        first read of ``units`` or ``issues`` runs once."""
        return self._validation[0]

    @property
    def issues(self) -> List[Tuple[str, str]]:
        """The index's issues, from the same ``validate`` as ``units``."""
        return list(self._validation[1])

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "units": self.units,
            "anchors": [a.to_dict() for a in self.anchors],
            "slices": [s.to_dict() for s in self.slices],
            "matches": [m.to_dict() for m in self.matches],
            "issues": [{"unit": u, "error": e} for u, e in self.issues],
        }


def analyze_index(index: ClassIndex, name: str, depth: int = 1) -> AnalysisResult:
    anchors = find_anchors(index)
    slices = [backward_slice(index, anchor, depth=depth) for anchor in anchors]
    return AnalysisResult(root=name, index=index, anchors=anchors,
                          slices=slices, matches=match_index(index))


def analyze_files(files: Dict[str, object], name: str = "",
                  depth: int = 1) -> AnalysisResult:
    """``analyze_index`` over an in-memory path -> text mapping."""
    return analyze_index(ClassIndex.from_files(files), name, depth)
