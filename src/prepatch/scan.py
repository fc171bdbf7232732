"""Identify deep-learning apps in a corpus of disassembled or packed apps.

``load_app`` reads an archive or tree once into an ``AppFiles`` map that
every later stage works from. Three signals mark an app as a DL app:
bundled model files (recognized by suffix), TFLite or MLKit API references
inside smali code, and MLKit component registrars declared in the
manifest. The manifest additionally tells which vision services the app
uses.
"""

from __future__ import annotations

import os
import re
import struct
import zipfile
import zlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

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


@dataclass(frozen=True)
class AppFiles:
    """One app read into memory, once, for every later stage.

    ``entries`` names every file of the archive (in archive order) or tree
    (sorted); ``data`` holds the raw bytes of the read entries only, so model
    files and other assets stay on disk. ``unsafe_entry`` is the first
    archive entry that would escape an extraction directory, if any, and
    ``dirs`` names the archive's directory entries.
    """
    name: str
    source: Path
    entries: Tuple[str, ...]
    data: Dict[str, bytes]
    unsafe_entry: Optional[str] = None
    dirs: Tuple[str, ...] = ()


# Flag bits a member may carry and still be read directly: 0x800 (UTF-8
# name) and 0x008 (sizes and CRC in a data descriptor, also in the
# central directory).
_DIRECT_FLAGS = 0x800 | 0x008
_DIRECT_METHODS = (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)


def _read_direct(fh, info: zipfile.ZipInfo) -> Optional[bytes]:
    """A member's bytes read from the open archive file, or None when any
    check fails and ``ZipFile.read`` must decide.

    Inflation stops one byte past the declared size, so a member that lies
    about its size cannot inflate past it (Fifield, "A better zip bomb",
    WOOT 2019)."""
    fh.seek(info.header_offset)
    header = fh.read(zipfile.sizeFileHeader)
    if len(header) != zipfile.sizeFileHeader:
        return None
    fields = struct.unpack(zipfile.structFileHeader, header)
    magic, flags, name_length, extra_length = fields[0], fields[3], fields[10], fields[11]
    if magic != zipfile.stringFileHeader:
        return None
    try:
        name = fh.read(name_length).decode("utf-8" if flags & 0x800 else "cp437")
    except UnicodeDecodeError:
        return None
    if name != info.orig_filename:
        return None
    fh.seek(extra_length, os.SEEK_CUR)
    # Newer zipfile versions refuse data that runs into the next member.
    end = getattr(info, "_end_offset", None)
    if end is not None and fh.tell() + info.compress_size > end:
        return None
    raw = fh.read(info.compress_size)
    if len(raw) != info.compress_size:
        return None
    if info.compress_type == zipfile.ZIP_STORED:
        data = raw
    else:
        try:
            data = zlib.decompressobj(-15).decompress(raw, info.file_size + 1)
        except zlib.error:
            return None
    if len(data) != info.file_size or zlib.crc32(data) != info.CRC:
        return None
    return data


def _read_member(fh, zf: zipfile.ZipFile, name: str) -> bytes:
    """A member's bytes, read directly when it is a plain stored or deflated
    member and otherwise by ``zf.read``, with its result or error."""
    info = zf.getinfo(name)
    if not info.flag_bits & ~_DIRECT_FLAGS and info.compress_type in _DIRECT_METHODS:
        data = _read_direct(fh, info)
        if data is not None:
            return data
    return zf.read(name)


def _load_archive(path: Path) -> AppFiles:
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
            names = zf.namelist()
            entries = tuple(name for name in names if not name.endswith("/"))
            data = {}
            for name in entries:
                if _is_read(name) and name not in data:
                    data[name] = _read_member(fh, zf, name)
    except (zipfile.BadZipFile, OSError, EOFError, RuntimeError, zlib.error) as exc:
        raise UnscannableApkError(path, str(exc)) from exc
    unsafe = next((name for name in names if _is_unsafe(name)), None)
    dirs = tuple(name for name in names if name.endswith("/"))
    return AppFiles(app_name(path), path, entries, data, unsafe, dirs)


def _read_file(path: str) -> bytes:
    """A whole file, read with one ``os.read`` of its size unless it grew."""
    fd = os.open(path, os.O_RDONLY)
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


def _load_tree(root: Path) -> AppFiles:
    # One walk, listing the files a sorted recursive Path glob filtered by
    # is_file() lists, in its order: symlinks to files count, symlinked
    # directories are not entered, and an unreadable directory is skipped.
    entries: List[str] = []
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
        except PermissionError:
            pass
    entries.sort(key=tree_order)
    data = {rel: _read_file(f"{root}/{rel}") for rel in entries if _is_read(rel)}
    return AppFiles(app_name(root), root, tuple(entries), data)


def load_app(path: Path) -> AppFiles:
    """Read an app tree or archive. Raises UnscannableApkError on bad zips."""
    return _load_tree(path) if path.is_dir() else _load_archive(path)


def classify(app: AppFiles) -> DlVerdict:
    """Scan verdict of a loaded app."""
    model_files: List[str] = []
    saw_tflite_api = False
    saw_mlkit_api = False
    manifest_text: Optional[str] = None

    for name in app.entries:
        if is_model_file(name):
            model_files.append(name)
        if name == "AndroidManifest.xml":
            manifest_text = app.data[name].decode("utf-8", errors="replace")
        elif name.endswith(".smali") and not (saw_tflite_api and saw_mlkit_api):
            data = app.data[name]
            if TFLITE_API_PREFIX in data:
                saw_tflite_api = True
            if MLKIT_API_PREFIX in data:
                saw_mlkit_api = True

    manifest_valid = False
    services: Tuple[str, ...] = ()
    if manifest_text is not None:
        manifest_valid, services = extract_services(manifest_text)

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
