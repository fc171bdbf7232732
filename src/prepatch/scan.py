"""Identify deep-learning apps in a corpus of disassembled or packed apps.

``load_app`` reads an archive or tree once into an ``AppFiles`` map that
every later stage works from: the bytes of the smali files and the
manifest, every entry's name and, for an archive, where each other member
lies, so it can be copied later without parsing the archive again. An
archive whose central directory lists too many entries, or whose smali and
manifest members declare too many bytes, is refused before any member is
read, and a tree's link to a file outside the tree is never read. A
tree's folders are each opened once, and its files are read relative to
them.
``zipfile`` only lists the central directory: member data is read here,
and a member this reader refuses fails its app with a reason naming it.

Three signals mark an app as a DL app: bundled model files (recognized by
suffix), TFLite or MLKit API references inside smali code, and MLKit
component registrars declared in the manifest. The manifest additionally
tells which vision services the app uses.
"""

from __future__ import annotations

import io
import os
import re
import struct
import zipfile
import zlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

MODEL_SUFFIXES = (".tflite", ".tfl", ".lite")

TFLITE_API_PREFIX = b"Lorg/tensorflow/lite/"
MLKIT_API_PREFIX = b"Lcom/google/mlkit/"

_REGISTRAR_RE = re.compile(r"com\.google\.mlkit\.vision\.[\w.]*Registrar")

SERVICE_FACE = "face_detection"
SERVICE_SELFIE = "selfie_segmentation"
SERVICE_BARCODE = "barcode"
SERVICE_POSE = "pose"
SERVICE_OBJECT = "object_detection"


class UnscannableApkError(Exception):
    """The app archive cannot be opened or enumerated."""

    def __init__(self, path: Path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


@dataclass(frozen=True)
class DlVerdict:
    """Scan outcome for a single app."""
    app: str
    path: str
    is_dl: bool
    model_files: Tuple[str, ...] = ()
    evidence: Tuple[str, ...] = ()
    services: Tuple[str, ...] = ()
    manifest_valid: bool = False
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "path": self.path,
            "is_dl": self.is_dl,
            "model_files": list(self.model_files),
            "evidence": list(self.evidence),
            "services": list(self.services),
            "manifest_valid": self.manifest_valid,
            "error": self.error,
        }


def is_model_file(name: str) -> bool:
    """True if the entry name carries a known model suffix (case-insensitive)."""
    lowered = name.lower()
    return any(lowered.endswith(suffix) for suffix in MODEL_SUFFIXES)


def classify_registrar(registrar: str) -> str:
    lowered = registrar.lower()
    if "face" in lowered:
        return SERVICE_FACE
    if "segmentation" in lowered:
        return SERVICE_SELFIE
    if "barcode" in lowered:
        return SERVICE_BARCODE
    if "pose" in lowered:
        return SERVICE_POSE
    if "objects" in lowered or "object" in lowered:
        return SERVICE_OBJECT
    return "other:" + registrar.rsplit(".", 1)[-1]


def extract_services(manifest_text: str) -> Tuple[bool, Tuple[str, ...]]:
    """Pull MLKit vision services out of a decoded manifest.

    Returns (manifest_valid, services). An unparseable manifest yields no
    services; the registrar scan itself is a plain pattern match so it
    tolerates attribute orderings the XML layer would normalize away.
    """
    try:
        ET.fromstring(manifest_text)
    except ET.ParseError:
        return False, ()
    found = {classify_registrar(m.group(0))
             for m in _REGISTRAR_RE.finditer(manifest_text)}
    return True, tuple(sorted(found))


def tree_order(rel_path: str) -> List[str]:
    """Sort key that orders relative paths as sorted ``Path`` objects do."""
    return rel_path.split("/")


def app_name(path: Path) -> str:
    """An app's name: an archive's stem, otherwise the path's name."""
    return path.stem if path.is_file() else path.name


def _is_unsafe(name: str) -> bool:
    """True if an archive entry would land outside its extraction directory."""
    return name.startswith(("/", "\\")) or ".." in name.split("/")


def _is_read(name: str) -> bool:
    """True for the entries any stage reads: smali files and the manifest."""
    return name.endswith(".smali") or name == "AndroidManifest.xml"


class Member(NamedTuple):
    """Where an archive member lies, from its central directory record:
    what ``copy_direct`` needs to read it without ``zipfile``."""
    name: str                   # the name in its local header
    offset: int                 # of its local header
    end: Optional[int]          # where the next record starts, if known
    compress_size: int
    file_size: int
    crc: int
    method: int
    flags: int


def _member(info: zipfile.ZipInfo) -> Member:
    return Member(info.orig_filename, info.header_offset,
                  getattr(info, "_end_offset", None), info.compress_size,
                  info.file_size, info.CRC, info.compress_type, info.flag_bits)


@dataclass(frozen=True)
class AppFiles:
    """One app read into memory, once, for every later stage.

    ``entries`` names every file of the archive (in archive order) or tree
    (sorted); ``data`` holds the read entries only (smali files and the
    manifest), so model files and other assets stay on disk. ``data`` holds
    raw bytes when loaded; ``locate.ClassIndex.from_files`` swaps in its
    decoded text for each smali file whose text encodes back to those bytes,
    so that text is the app's only copy. ``unread`` records where each other
    archive member lies, for ``pipeline.materialize`` to copy.
    ``unsafe_entry`` is the first entry that would escape an extraction
    directory (an archive name, or a tree's link to a file outside it), if
    any; a tree's escaping link is never read. ``dirs`` names the archive's
    directory entries.
    """
    name: str
    source: Path
    entries: Tuple[str, ...]
    data: Dict[str, Union[bytes, str]]
    unsafe_entry: Optional[str] = None
    dirs: Tuple[str, ...] = ()
    unread: Dict[str, Member] = field(default_factory=dict)


# Bounds checked against an archive's central directory before any member
# is read. Each read then stops at its member's declared size.
MAX_ENTRIES = 500_000
MAX_READ_BYTES = 1 << 30

# Flag bits zipfile refuses too: 0x001 (encrypted), 0x020 (compressed
# patched data) and 0x040 (strong encryption). The others (0x002/0x004
# compression level, 0x008 data descriptor, 0x800 UTF-8 name) change nothing.
_REFUSED_FLAGS = 0x001 | 0x020 | 0x040


class MemberError(Exception):
    """An archive member the direct reader refuses, and the check it failed."""

    def __init__(self, member: Member, check: str):
        super().__init__(f"member {member.name!r}: {check}")


def _seek_data(fh, member: Member) -> None:
    """Move the open archive file to a member's data. Raises MemberError
    unless the member is a stored or deflated one, not encrypted or patched,
    whose local header agrees with its central directory record."""
    if member.method not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
        raise MemberError(member, f"compression method {member.method} is "
                                  f"neither stored nor deflated")
    if member.flags & _REFUSED_FLAGS:
        raise MemberError(member, f"flag bits {member.flags & _REFUSED_FLAGS:#05x} "
                                  f"(encrypted or patched data)")
    fh.seek(member.offset)
    header = fh.read(zipfile.sizeFileHeader)
    if len(header) != zipfile.sizeFileHeader:
        raise MemberError(member, "local header is truncated")
    fields = struct.unpack(zipfile.structFileHeader, header)
    magic, flags, name_length, extra_length = fields[0], fields[3], fields[10], fields[11]
    if magic != zipfile.stringFileHeader:
        raise MemberError(member, "local header has a bad magic number")
    raw_name = fh.read(name_length)
    # A byte that is not UTF-8 decodes to a lone surrogate, which no name
    # in the central directory holds.
    name = raw_name.decode("utf-8" if flags & 0x800 else "cp437", "surrogateescape")
    if name != member.name:
        raise MemberError(member, f"local header names {raw_name!r}")
    fh.seek(extra_length, os.SEEK_CUR)
    # Newer zipfile versions record where the next member starts.
    if member.end is not None and fh.tell() + member.compress_size > member.end:
        raise MemberError(member, "data runs into the next member")


def _check(member: Member, size: int, crc: int) -> None:
    """Raise MemberError unless the member declares ``size`` and ``crc``."""
    if size > member.file_size:
        raise MemberError(member, f"runs past its declared {member.file_size} bytes")
    if size < member.file_size:
        raise MemberError(member, f"ends at {size} of its declared "
                                  f"{member.file_size} bytes")
    if crc != member.crc:
        raise MemberError(member, "bad CRC-32")


_COPY_CHUNK = 1 << 16


def copy_direct(fh, member: Member, out) -> None:
    """Copy a member's bytes from the open archive file into the open file
    ``out``, holding at most ``_COPY_CHUNK`` bytes of it at a time. Raises
    MemberError when ``_seek_data`` refuses the member, its data is
    truncated or does not inflate, or its size or CRC-32 is not the
    declared one (``out`` may then hold part of the member). Inflation
    stops one byte past the declared size, so a member that lies about its
    size cannot inflate past it (Fifield, "A better zip bomb", WOOT 2019)."""
    _seek_data(fh, member)
    inflate = zlib.decompressobj(-15) if member.method == zipfile.ZIP_DEFLATED else None
    left, size, crc = member.compress_size, 0, 0
    while left:
        raw = fh.read(min(left, _COPY_CHUNK))
        if not raw:
            raise MemberError(member, f"data is truncated at {member.compress_size - left} "
                                      f"of {member.compress_size} bytes")
        left -= len(raw)
        while True:
            if inflate is None:
                data, full = raw, False
            else:
                # Output stops at the chunk size or one byte past the
                # declared size; input left over is the unconsumed tail, and
                # a full output may leave more pending, so go on until less.
                cap = min(_COPY_CHUNK, member.file_size - size + 1)
                try:
                    data = inflate.decompress(raw, cap)
                except zlib.error as exc:
                    raise MemberError(member, f"inflate error: {exc}") from exc
                raw, full = inflate.unconsumed_tail, len(data) == cap
            size += len(data)
            crc = zlib.crc32(data, crc)
            if size > member.file_size:
                _check(member, size, crc)       # raises before writing past it
            out.write(data)
            if not full:
                break
    _check(member, size, crc)


def _read_direct(fh, member: Member) -> bytes:
    """A member's bytes read from the open archive file, with the checks
    of ``copy_direct``, raised in its order. A member whose data fits one
    chunk is read with one read and inflated with one call."""
    if member.compress_size > _COPY_CHUNK:
        out = io.BytesIO()
        copy_direct(fh, member, out)
        return out.getvalue()
    _seek_data(fh, member)
    raw = fh.read(member.compress_size)
    data = raw
    if member.method == zipfile.ZIP_DEFLATED:
        try:
            data = zlib.decompressobj(-15).decompress(raw, member.file_size + 1)
        except zlib.error as exc:
            raise MemberError(member, f"inflate error: {exc}") from exc
    crc = zlib.crc32(data)
    if len(data) > member.file_size:
        _check(member, len(data), crc)
    if len(raw) < member.compress_size:
        raise MemberError(member, f"data is truncated at {len(raw)} "
                                  f"of {member.compress_size} bytes")
    _check(member, len(data), crc)
    return data


def _load_archive(path: Path) -> AppFiles:
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
            names = zf.namelist()
            if len(names) > MAX_ENTRIES:
                raise UnscannableApkError(
                    path, f"{len(names)} entries; at most {MAX_ENTRIES} are read")
            # Each name once, in archive order, with its last member, as
            # extraction leaves it on disk.
            read: List[zipfile.ZipInfo] = []
            unread: Dict[str, Member] = {}
            for name, info in zf.NameToInfo.items():
                if _is_read(name):
                    read.append(info)
                elif not name.endswith("/"):
                    unread[name] = _member(info)
            declared = sum(info.file_size for info in read)
            if declared > MAX_READ_BYTES:
                raise UnscannableApkError(
                    path, f"smali and manifest members declare {declared} bytes; "
                          f"at most {MAX_READ_BYTES} are read")
            data: Dict[str, Union[bytes, str]] = {
                info.filename: _read_direct(fh, _member(info)) for info in read}
    # zipfile's listing also raises these for a newer version or a bad name.
    except (zipfile.BadZipFile, NotImplementedError, UnicodeDecodeError, OSError,
            MemberError) as exc:
        raise UnscannableApkError(path, str(exc)) from exc
    entries = tuple(name for name in names if not name.endswith("/"))
    unsafe = next((name for name in names if _is_unsafe(name)), None)
    dirs = tuple(name for name in names if name.endswith("/"))
    return AppFiles(app_name(path), path, entries, data, unsafe, dirs, unread)


def _read_file(path: str, dir_fd: Optional[int] = None) -> bytes:
    """A whole file, read with one ``os.read`` of its size unless it grew;
    ``path`` is relative to the open directory ``dir_fd`` when one is given.
    Every read of a tree's file goes through here."""
    fd = os.open(path, os.O_RDONLY, dir_fd=dir_fd)
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size + 1)
        if len(data) > size:
            chunks = [data]
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            data = b"".join(chunks)
    finally:
        os.close(fd)
    return data


DIR_FLAGS = os.O_RDONLY | os.O_DIRECTORY


def by_folder(rels: Iterable[str]) -> Dict[str, List[str]]:
    """Relative file paths grouped by folder: each folder ("" for the top,
    otherwise its path ending in "/") maps to the names of its files, in the
    order of ``rels``; folders come in the order of their first file."""
    folders: Dict[str, List[str]] = {}
    for rel in rels:
        cut = rel.rfind("/") + 1
        folders.setdefault(rel[:cut], []).append(rel[cut:])
    return folders


def _escapes(link: str, root: str) -> bool:
    """True if the symlink ``link`` resolves outside the directory ``root``
    (itself resolved)."""
    return os.path.commonpath([root, os.path.realpath(link)]) != root


def _load_tree(root: Path) -> AppFiles:
    # One walk, listing the files a sorted recursive Path glob filtered by
    # is_file() lists, in its order: symlinks to files count, symlinked
    # directories are not entered, and an unreadable directory is skipped.
    # A link that resolves outside the tree is listed but not read.
    real_root = None
    entries: List[str] = []
    escaping = set()
    pending = [""]
    while pending:
        prefix = pending.pop()
        try:
            with os.scandir(os.path.join(root, prefix)) as it:
                for entry in it:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(prefix + entry.name + "/")
                    elif entry.is_file():
                        entries.append(prefix + entry.name)
                        if entry.is_symlink():
                            real_root = real_root or os.path.realpath(root)
                            if _escapes(entry.path, real_root):
                                escaping.add(prefix + entry.name)
        except PermissionError:
            pass
    entries.sort(key=tree_order)
    read = [rel for rel in entries if _is_read(rel) and rel not in escaping]
    # Each folder is opened once and its files are opened relative to it;
    # ``data`` then takes the files in tree order.
    found: Dict[str, bytes] = {}
    for folder, names in by_folder(read).items():
        fd = os.open(f"{root}/{folder}", DIR_FLAGS)
        try:
            for name in names:
                found[folder + name] = _read_file(name, fd)
        finally:
            os.close(fd)
    data: Dict[str, Union[bytes, str]] = {rel: found[rel] for rel in read}
    unsafe = next((rel for rel in entries if rel in escaping), None)
    return AppFiles(app_name(root), root, tuple(entries), data, unsafe)


def load_app(path: Path) -> AppFiles:
    """Read an app tree or archive. Raises UnscannableApkError on bad zips."""
    return _load_tree(path) if path.is_dir() else _load_archive(path)


def classify(app: AppFiles) -> DlVerdict:
    """Scan verdict of a loaded app, from the bytes it was loaded with."""
    model_files = [name for name in app.entries if is_model_file(name)]
    saw_tflite_api = False
    saw_mlkit_api = False
    for name, data in app.data.items():
        if saw_tflite_api and saw_mlkit_api:
            break
        if name.endswith(".smali"):
            if TFLITE_API_PREFIX in data:
                saw_tflite_api = True
            if MLKIT_API_PREFIX in data:
                saw_mlkit_api = True

    manifest_valid = False
    services: Tuple[str, ...] = ()
    manifest = app.data.get("AndroidManifest.xml")
    if manifest is not None:
        manifest_valid, services = extract_services(
            manifest.decode("utf-8", errors="replace"))

    evidence = []
    if model_files:
        evidence.append("model_file")
    if saw_tflite_api:
        evidence.append("tflite_api")
    if saw_mlkit_api:
        evidence.append("mlkit_api")
    if services:
        evidence.append("mlkit_manifest")

    return DlVerdict(
        app=app.name,
        path=str(app.source),
        is_dl=bool(evidence),
        model_files=tuple(sorted(model_files)),
        evidence=tuple(evidence),
        services=services,
        manifest_valid=manifest_valid,
    )


def unscannable(path: Path, reason: str) -> DlVerdict:
    """The verdict of an app that could not be read."""
    return DlVerdict(app=app_name(path), path=str(path), is_dl=False,
                     error=reason)


def scan_path(path: Path) -> DlVerdict:
    """Scan one app, returning an errored verdict instead of raising."""
    try:
        return classify(load_app(path))
    except UnscannableApkError as exc:
        return unscannable(path, exc.reason)


def percent(numerator: int, denominator: int) -> float:
    """Share as a percentage, rounded half-up to two decimals."""
    if denominator == 0:
        return 0.0
    share = Decimal(numerator) * 100 / Decimal(denominator)
    return float(share.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass
class CorpusStats:
    """Aggregate counts over a scanned corpus."""
    total: int = 0
    scanned: int = 0
    unscannable: int = 0
    dl: int = 0
    non_dl: int = 0
    with_services: int = 0
    service_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def percent_dl(self) -> float:
        return percent(self.dl, self.scanned)

    @property
    def percent_with_services(self) -> float:
        return percent(self.with_services, self.dl)

    def service_share(self) -> Dict[str, float]:
        """Per-service share of DL apps that declare at least one service."""
        return {name: percent(count, self.with_services)
                for name, count in sorted(self.service_counts.items())}

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "scanned": self.scanned,
            "unscannable": self.unscannable,
            "dl": self.dl,
            "non_dl": self.non_dl,
            "percent_dl": self.percent_dl,
            "with_services": self.with_services,
            "percent_with_services": self.percent_with_services,
            "service_counts": dict(sorted(self.service_counts.items())),
            "service_share": self.service_share(),
        }


def aggregate(verdicts: Iterable[DlVerdict]) -> CorpusStats:
    stats = CorpusStats()
    for verdict in verdicts:
        stats.total += 1
        if verdict.error is not None:
            stats.unscannable += 1
            continue
        stats.scanned += 1
        if not verdict.is_dl:
            stats.non_dl += 1
            continue
        stats.dl += 1
        if verdict.services:
            stats.with_services += 1
            for service in verdict.services:
                stats.service_counts[service] = stats.service_counts.get(service, 0) + 1
    return stats
