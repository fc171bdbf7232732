"""Plan and apply perturbation patches to disassembled app trees.

Planning turns constructor matches plus a perturbation spec into a list of
line-span patches: each patch names the file, the lines it replaces, and
their replacement, so a plan can be inspected, diffed, and checked against
the tree before anything is written. Application writes only the touched
files and is all-or-nothing: each edited file is staged in a sibling temp
file, a journal beside the tree lists the staged files, and only then does
each temp file replace its target. An apply that stopped part way is rolled
forward (journal present) or back (temp files only) by the next apply of
that tree, or by a plan that indexes the tree itself; ``recovered_data``
gives the recovered view of a tree's files without writing it. Applying
and recovering hold an exclusive ``flock`` on ``<tree>.lock`` (``locked``);
the kernel drops it when its holder exits, so the lock file a killed
apply leaves never blocks the next apply. A marker
field left in every touched class makes a second injection fail fast.
"""

from __future__ import annotations

import difflib
import fcntl
import json
import os
import re
import shlex
import subprocess
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import locate, smali
from .locate import ConstructorMatch
from .perturbation import PerturbationSpec

MARKER_FIELD = ".field private static __preproc_patch_marker__:Z"
LOCK_SUFFIX = ".lock"
JOURNAL_SUFFIX = ".inject-journal"
TEMP_SUFFIX = ".inject-tmp"


class InjectError(Exception):
    """Base class for injection failures."""


class AlreadyInjectedError(InjectError):
    """A target file already carries the patch marker."""


class StalePlanError(InjectError):
    """Tree content changed between planning and applying."""


class LockHeldError(InjectError):
    """Another injection holds the tree lock."""


class RepackError(InjectError):
    """The repack hook returned a nonzero status."""


@dataclass(frozen=True)
class Patch:
    """Replace ``original_lines`` at ``line_index`` with ``replacement_lines``."""
    unit_path: str
    line_index: int
    original_lines: Tuple[str, ...]
    replacement_lines: Tuple[str, ...]
    description: str

    def to_dict(self) -> dict:
        return {
            "unit": self.unit_path,
            "line": self.line_index,
            "original": list(self.original_lines),
            "replacement": list(self.replacement_lines),
            "description": self.description,
        }


@dataclass
class InjectionPlan:
    root: str
    spec: PerturbationSpec
    patches: List[Patch] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    matches: List[ConstructorMatch] = field(default_factory=list)

    @property
    def touched_files(self) -> List[str]:
        return sorted({p.unit_path for p in self.patches})

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "spec": self.spec.to_dict(),
            "patches": [p.to_dict() for p in self.patches],
            "warnings": list(self.warnings),
            "matches": [m.to_dict() for m in self.matches],
            "touched_files": self.touched_files,
        }


@dataclass
class InjectionResult:
    root: str
    applied: int
    files_changed: List[str]
    repacked_to: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "applied": self.applied,
            "files_changed": list(self.files_changed),
            "repacked_to": self.repacked_to,
        }


def _indent_of(line: str) -> str:
    return line[:len(line) - len(line.lstrip())]


_NEWLINE_RE = re.compile(r"(\r\n|\r|\n)")


class _Text(NamedTuple):
    """A file's lines as a universal-newline read gives them, and the ending
    each line has in the file (the last line's is "")."""
    lines: List[str]
    ends: List[str]

    @classmethod
    def of(cls, text: str) -> "_Text":
        parts = _NEWLINE_RE.split(text)
        return cls(parts[0::2], parts[1::2] + [""])

    def joined(self) -> str:
        return "".join(line + end for line, end in zip(self.lines, self.ends))


def _read_text(root: Path, rel: str) -> _Text:
    return _Text.of((root / rel).read_bytes().decode("utf-8"))


def has_marker(text: str) -> bool:
    return MARKER_FIELD in text


# ---------------------------------------------------------------------------
# planning


def _patch_const_line(lines: Sequence[str], rel: str, line_index: int,
                      register: smali.Register, new_value: int,
                      radix: str, description: str) -> Patch:
    original = lines[line_index]
    replacement = smali.render_const(register.name, new_value, radix,
                                     _indent_of(original))
    return Patch(rel, line_index, (original,), (replacement,), description)


def _plan_match(index: locate.ClassIndex, match: ConstructorMatch,
                spec: PerturbationSpec, plan: InjectionPlan) -> None:
    rel = match.unit_path
    unit = index.unit(rel)
    if unit is None:
        raise StalePlanError(f"{rel}: matched unit is not in the tree")
    lines = unit.lines

    if spec.rotation_override is not None or spec.rotation_delta is not None:
        for site in match.rotation_sites:
            new_value = spec.effective_rotation(site.value)
            plan.warnings.extend(
                f"{rel}: {note}" for note in spec.rotation_warnings(site.value))
            if site.const_line is not None:
                if new_value is None:
                    continue
                plan.patches.append(_patch_const_line(
                    lines, rel, site.const_line, site.register, new_value,
                    site.radix or "hex",
                    f"rotation {site.value} -> {new_value} ({site.field_name})"))
            elif spec.rotation_override is not None:
                # Parameter-fed store: pin the register right before the iput.
                iput_line = lines[site.iput_line]
                const = smali.render_const(site.register.name, new_value,
                                           "hex", _indent_of(iput_line))
                plan.patches.append(Patch(
                    rel, site.iput_line, (iput_line,),
                    (const, "", iput_line),
                    f"rotation pinned to {new_value} before store to "
                    f"{site.field_name}"))
            else:
                plan.warnings.append(
                    f"{rel}: rotation delta skipped for parameter-fed store "
                    f"to {site.field_name} (runtime value unknown)")

    for role, value in (("width", spec.width_override),
                        ("height", spec.height_override)):
        if value is None:
            continue
        for site in match.dimension_sites:
            if site.role != role or site.kind != "getter":
                continue
            span_start = site.invoke_line
            span_end = site.move_result_line
            original = tuple(lines[span_start:span_end + 1])
            replacement = smali.render_const(
                site.register.name, value, "hex", _indent_of(lines[span_end]))
            plan.patches.append(Patch(
                rel, span_start, original, (replacement,),
                f"{role} getter replaced with constant {value} "
                f"({site.field_name})"))

    if spec.format_override is not None and match.format_site is not None:
        site = match.format_site
        if site.const_line is not None:
            method = next(m for m in unit.methods
                          if m.signature == match.method_signature)
            const = next(i for i in method.instructions
                         if i.line_index == site.const_line)
            plan.patches.append(_patch_const_line(
                lines, rel, site.const_line, const.dest, spec.format_override,
                const.literal.radix,
                f"format {site.value} -> {spec.format_override} "
                f"({site.field_name})"))


def _marked_file(index: locate.ClassIndex) -> Optional[str]:
    """First smali file in tree order, parsed or not, that carries the
    marker; its text is searched, so no file is parsed."""
    return next((rel for rel, text in index.texts() if has_marker(text)), None)


def plan_index(name: str, spec: PerturbationSpec, index: locate.ClassIndex,
               matches: Optional[Sequence[ConstructorMatch]] = None
               ) -> InjectionPlan:
    """Build a patch plan for the app ``name`` from its class index, reading
    nothing. Raises AlreadyInjectedError if any smali file carries the
    marker from a previous run; a patched wrapper no longer matches its
    strategy, so the marker is the only reliable guard."""
    if spec.is_noop:
        raise ValueError("perturbation spec is a no-op; nothing to plan")
    marked = _marked_file(index)
    if marked is not None:
        raise AlreadyInjectedError(f"{marked} already carries {MARKER_FIELD!r}")
    if matches is None:
        matches = locate.match_index(index)

    plan = InjectionPlan(root=name, spec=spec, matches=list(matches))
    for match in matches:
        _plan_match(index, match, spec, plan)

    # Apply patches bottom-up within each file so indexes stay valid.
    plan.patches.sort(key=lambda p: (p.unit_path, -p.line_index))
    return plan


def plan_injection(root: Path, spec: PerturbationSpec,
                   matches: Optional[Sequence[ConstructorMatch]] = None,
                   index: Optional[locate.ClassIndex] = None) -> InjectionPlan:
    """Build a patch plan for one tree (see ``plan_index``).

    ``index`` is the tree's class index when the caller already has one;
    planning then reads nothing from the tree. Without it the tree is first
    recovered (see ``recover``) and then indexed once here. ``apply_plan``
    recovers the tree again under its lock either way."""
    if index is None:
        recover(root)
        index = locate.ClassIndex.from_tree(root)
    return plan_index(root.name, spec, index, matches)


# ---------------------------------------------------------------------------
# applying


def _marker_patch(lines: List[str], rel: str) -> Patch:
    anchor = None
    for index, line in enumerate(lines):
        if line.startswith((".super", ".source")):
            anchor = index
        elif line.startswith(".method"):
            break
    if anchor is None:
        raise StalePlanError(f"{rel}: no .super line to anchor the marker")
    return Patch(rel, anchor + 1, (), ("", MARKER_FIELD), "injection marker")


def _verify_and_edit(text: _Text, patches: Sequence[Patch]) -> _Text:
    """``text`` with ``patches`` applied. Untouched lines keep their endings;
    replacement lines take the file's first line ending (LF in a file with
    none)."""
    out = _Text(list(text.lines), list(text.ends))
    newline = next((end for end in text.ends if end), "\n")
    for patch in patches:  # already sorted bottom-up
        start = patch.line_index
        end = start + len(patch.original_lines)
        if tuple(out.lines[start:end]) != patch.original_lines:
            raise StalePlanError(
                f"{patch.unit_path}:{start}: tree content changed since "
                f"planning ({patch.description})")
        out.lines[start:end] = patch.replacement_lines
        out.ends[start:end] = [newline] * len(patch.replacement_lines)
    return out


def _patched(text: _Text, rel: str, patches: Sequence[Patch]) -> _Text:
    """The file after its patches and the marker field."""
    out = _verify_and_edit(text, patches)
    return _verify_and_edit(out, [_marker_patch(out.lines, rel)])


def _by_file(plan: InjectionPlan) -> Dict[str, List[Patch]]:
    grouped: Dict[str, List[Patch]] = {}
    for patch in plan.patches:
        grouped.setdefault(patch.unit_path, []).append(patch)
    return grouped


def render_diff(index: locate.ClassIndex, plan: InjectionPlan) -> str:
    """Unified diff of the plan against the indexed lines, without writing."""
    chunks = []
    for rel, patches in _by_file(plan).items():
        text = _Text.of(index.unit(rel).text)
        chunks.append("\n".join(difflib.unified_diff(
            text.lines, _patched(text, rel, patches).lines,
            fromfile=f"a/{rel}", tofile=f"b/{rel}", lineterm="")))
    return "\n".join(chunk for chunk in chunks if chunk)


# ---------------------------------------------------------------------------
# lock, journal and recovery


def _beside(root: Path, suffix: str) -> Path:
    return root.parent / (root.name + suffix)


def _temp_path(path: Path) -> Path:
    return path.with_name(path.name + TEMP_SUFFIX)


def _temp_files(root: Path) -> List[Path]:
    return [Path(folder) / name
            for folder, _, names in os.walk(root)
            for name in names if name.endswith(TEMP_SUFFIX)]


def _held_message(lock: Path, fd: int) -> str:
    """Name the holder of ``lock`` as the file records it, if it can."""
    try:
        owner = json.loads(os.pread(fd, 4096, 0))
        holder = f"pid {owner['pid']} on {owner['host']} since {owner['time']}"
    except (ValueError, TypeError, KeyError):
        holder = "another process"
    return f"lock file {lock} is held by {holder}"


@contextmanager
def locked(root: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``<tree>.lock`` for the block.

    The kernel drops the lock when its holder exits, however it exits, so
    a lock file that no process holds (one a killed apply left, say) is
    simply taken; a held one raises LockHeldError. The holder writes its
    pid, host and time into the file, when the disk lets it, for that
    error to name. On release the file is unlinked before it is closed.
    Needs a file system whose ``flock`` works (not NFS mounted ``nolock``)."""
    lock = _beside(root, LOCK_SUFFIX)
    held = False
    while not held:
        fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # A holder that released the file between our open and our
            # flock has unlinked it: then the path is opened again.
            held = os.path.samestat(os.fstat(fd), os.stat(lock))
        except BlockingIOError:
            raise LockHeldError(_held_message(lock, fd)) from None
        except FileNotFoundError:
            pass
        finally:
            if not held:
                os.close(fd)
    owner = {"pid": os.getpid(), "host": os.uname().nodename,
             "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    try:
        with suppress(OSError):    # the owner only names the holder
            if os.fstat(fd).st_size:
                os.ftruncate(fd, 0)
            os.write(fd, (json.dumps(owner) + "\n").encode("utf-8"))
        yield
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)


def _write_journal(root: Path, staged: Sequence[str]) -> None:
    _beside(root, JOURNAL_SUFFIX).write_text(json.dumps(list(staged)) + "\n",
                                             encoding="utf-8")


def _staged(root: Path) -> List[str]:
    """The files the journal beside ``root`` lists: none without a journal,
    or with a torn one, which is written in full before any replace, so
    nothing was replaced yet and the temp files are rolled back."""
    try:
        return json.loads(_beside(root, JOURNAL_SUFFIX).read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return []


def _recover(root: Path) -> None:
    for rel in _staged(root):
        temp = _temp_path(root / rel)
        if temp.exists():
            os.replace(temp, root / rel)
    _beside(root, JOURNAL_SUFFIX).unlink(missing_ok=True)
    for temp in _temp_files(root):
        temp.unlink()


def recovered_data(root: Path, data: Dict[str, bytes]) -> Dict[str, bytes]:
    """``data``, the files read from ``root``, as ``recover`` would leave
    them, writing nothing: each file the journal staged holds its temp
    file's bytes (temp files are never read entries)."""
    temps = [(rel, _temp_path(root / rel)) for rel in _staged(root)]
    return {**data, **{rel: temp.read_bytes() for rel, temp in temps
                       if temp.exists()}}


def recover(root: Path) -> None:
    """Finish or undo an apply of ``root`` that stopped part way.

    A journal beside the tree means every edited file was staged before the
    first replace: the replaces are finished (roll forward). Temp files
    without a journal belong to an apply that never committed: they are
    deleted (roll back). Takes the tree lock only when there is work."""
    if _beside(root, JOURNAL_SUFFIX).exists() or _temp_files(root):
        with locked(root):
            _recover(root)


def _commit(root: Path, edited: Dict[str, _Text]) -> None:
    """Stage every edited file, journal them, then replace the targets."""
    journal = _beside(root, JOURNAL_SUFFIX)
    staged: List[Path] = []
    try:
        for rel, text in edited.items():
            temp = _temp_path(root / rel)
            staged.append(temp)
            temp.write_bytes(text.joined().encode("utf-8"))
        _write_journal(root, sorted(edited))
    except Exception:
        for temp in staged:
            temp.unlink(missing_ok=True)
        journal.unlink(missing_ok=True)
        raise
    for rel in sorted(edited):
        os.replace(_temp_path(root / rel), root / rel)
    journal.unlink()


def apply_plan(root: Path, plan: InjectionPlan) -> InjectionResult:
    """Apply a plan to the tree, rewriting only the touched files."""
    if not plan.patches:
        return InjectionResult(root=root.name, applied=0, files_changed=[])
    with locked(root):
        _recover(root)
        by_file = _by_file(plan)
        current = {rel: _read_text(root, rel) for rel in by_file}
        # Every touched file is checked for the marker before any span.
        for rel, text in current.items():
            if has_marker("\n".join(text.lines)):
                raise AlreadyInjectedError(f"{rel} already carries the marker")
        _commit(root, {rel: _patched(current[rel], rel, patches)
                       for rel, patches in by_file.items()})

    return InjectionResult(root=root.name, applied=len(plan.patches),
                           files_changed=plan.touched_files)


def repack(root: Path, command_template: str,
           out_path: Optional[Path] = None) -> Path:
    """Run an external repack command over the tree.

    ``command_template`` may use ``{in}`` for the tree and ``{out}`` for the
    archive to produce.
    """
    target = out_path or root.parent / (root.name + ".repacked.apk")
    command = command_template.replace("{in}", shlex.quote(str(root)))
    command = command.replace("{out}", shlex.quote(str(target)))
    proc = subprocess.run(command, shell=True, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RepackError(
            f"repack command failed with status {proc.returncode}: "
            f"{proc.stderr.strip() or proc.stdout.strip()}")
    return target
