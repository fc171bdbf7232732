"""End-to-end corpus processing: load, scan, locate, inject, summarize.

Apps are processed one after another. Each one is read once into memory
(every entry name, plus the bytes of its smali files and manifest), and
the scan, the class index, constructor matching and the injection plan
all run from that map. Indexing replaces each smali file's bytes with the
decoded text its class keeps, so the app holds each file once. A DL app
is written to the working directory only when its plan has patches, and
then patched; a census run without a spec writes nothing. The work tree
of a tree source is made of hard links to the source's files, which
``inject`` replaces rather than writes. An archive's is written from that
text, and each other member is copied from where the load found it,
without parsing the archive again.
The report carries only app names and tree-relative paths, so a rerun
over the same corpus produces identical bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import logging
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from . import inject, locate, scan
from .perturbation import PerturbationSpec

log = logging.getLogger(__name__)


@dataclass
class AppOutcome:
    app: str
    source: str
    verdict: scan.DlVerdict
    anchors: int = 0
    creation_sites: int = 0
    slice_gaps: int = 0
    strategies: List[str] = field(default_factory=list)
    injected: bool = False
    patches: int = 0
    warnings: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def matched(self) -> bool:
        return bool(self.strategies)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "source": self.source,
            "verdict": self.verdict.to_dict(),
            "anchors": self.anchors,
            "creation_sites": self.creation_sites,
            "slice_gaps": self.slice_gaps,
            "strategies": sorted(self.strategies),
            "injected": self.injected,
            "patches": self.patches,
            "warnings": list(self.warnings),
            "error": self.error,
        }


@dataclass
class PipelineReport:
    spec: Optional[PerturbationSpec]
    outcomes: List[AppOutcome]
    stats: scan.CorpusStats

    @property
    def matched_apps(self) -> int:
        return sum(1 for o in self.outcomes if o.matched)

    @property
    def injected_apps(self) -> int:
        return sum(1 for o in self.outcomes if o.injected)

    @property
    def percent_matched_of_dl(self) -> float:
        return scan.percent(self.matched_apps, self.stats.dl)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict() if self.spec else None,
            "stats": self.stats.to_dict(),
            "matched_apps": self.matched_apps,
            "injected_apps": self.injected_apps,
            "percent_matched_of_dl": self.percent_matched_of_dl,
            "outcomes": [o.to_dict() for o in
                         sorted(self.outcomes, key=lambda o: o.app)],
        }


# Errors after which a tree's file is written or copied instead of linked:
# a work directory on another file system or one that refuses hard links,
# a link the system forbids, or a source file with too many links.
_NO_LINK = frozenset({errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP,
                      errno.EOPNOTSUPP})


def _opener(dir_fd: int):
    """An ``open`` opener for names relative to the open directory
    ``dir_fd``, creating files with the mode ``open`` gives them."""
    return lambda name, flags: os.open(name, flags, 0o666, dir_fd=dir_fd)


def _write_file(name: str, data: Union[bytes, str], dir_fd: int) -> None:
    """Write a read entry: text the class index swapped in is encoded."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666, dir_fd=dir_fd)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, memoryview(data)[written:])
    finally:
        os.close(fd)


def _link_folder(app: scan.AppFiles, folder: str, names: List[str],
                 dst_fd: int) -> None:
    """Hard-link each file of a tree source's folder into the open work
    folder ``dst_fd``, following a link to the file it names; a file the
    system will not link is written (read entries) or copied instead."""
    src_fd = os.open(f"{app.source}/{folder}", scan.DIR_FLAGS)
    try:
        for name in names:
            try:
                os.link(name, name, src_dir_fd=src_fd, dst_dir_fd=dst_fd)
                continue
            except OSError as exc:
                if exc.errno not in _NO_LINK:
                    raise
            data = app.data.get(folder + name)
            if data is not None:
                _write_file(name, data, dst_fd)
            else:
                with open(name, "rb", opener=_opener(src_fd)) as src, \
                        open(name, "wb", opener=_opener(dst_fd)) as out:
                    shutil.copyfileobj(src, out)
    finally:
        os.close(src_fd)


def _write_folder(app: scan.AppFiles, folder: str, names: List[str],
                  dst_fd: int, archive) -> None:
    """Write each file of an archive source's folder into the open work
    folder ``dst_fd``: a read entry from ``app.data``, any other member
    copied from the open ``archive``."""
    for name in names:
        data = app.data.get(folder + name)
        if data is not None:
            _write_file(name, data, dst_fd)
        else:
            with open(name, "wb", opener=_opener(dst_fd)) as out:
                scan.copy_direct(archive, app.unread[folder + name], out)


def materialize(app: scan.AppFiles, workdir: Path) -> Path:
    """Make a loaded app the tree ``workdir / app.name``.

    Each folder is made once, and its files are made relative to it. A tree
    source's files are hard links to the source's (a link in the source
    gives a link to the file it names), so the work tree shares their
    inodes and modes: ``inject`` replaces a file it edits instead of writing
    it, and so leaves the source as it was. Where the system will not link
    a file (another file system, say), the file is written or copied as an
    archive's is. An archive's read entries (smali and manifest) are
    written from ``app.data``: text the class index swapped in is encoded
    to UTF-8, which gives back the file's bytes (the index keeps the bytes
    of any file whose text would not). Every other member is copied a
    chunk at a time from the spot its load recorded, with the checks of the
    load's own reads. A member those checks refuse fails the app with
    ``UnscannableApkError`` naming it, and the partial tree is removed.
    """
    source = app.source
    if app.unsafe_entry is not None:
        raise scan.UnscannableApkError(source, f"unsafe entry {app.unsafe_entry!r}")
    tree = workdir / app.name
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    # Entry names are relative paths (an archive name that is not was
    # refused above), so plain strings name the files joined Paths would.
    root = str(tree)
    from_tree = source.is_dir()
    try:
        with open(source, "rb") if app.unread else contextlib.nullcontext() as archive:
            for folder, names in scan.by_folder(dict.fromkeys(app.entries)).items():
                os.makedirs(f"{root}/{folder}", exist_ok=True)
                dst_fd = os.open(f"{root}/{folder}", scan.DIR_FLAGS)
                try:
                    if from_tree:
                        _link_folder(app, folder, names, dst_fd)
                    else:
                        _write_folder(app, folder, names, dst_fd, archive)
                finally:
                    os.close(dst_fd)
        for rel in app.dirs:
            os.makedirs(f"{root}/{rel}", exist_ok=True)
    except (OSError, scan.MemberError) as exc:
        shutil.rmtree(tree, ignore_errors=True)
        raise scan.UnscannableApkError(source, str(exc)) from exc
    return tree


def process_app(source: Path, workdir: Path,
                spec: Optional[PerturbationSpec] = None,
                depth: int = 1, taken_by: Optional[str] = None) -> AppOutcome:
    """Scan one app and, if it is a DL app, analyze and optionally inject.

    ``taken_by`` names another source that owns this app's work tree; such
    an app is analyzed but never written. Any other exception a stage
    raises fails only this app: it is recorded as the outcome's error,
    ``"<stage>: <type>: <message>"``.
    """
    stage, failure = "load", None
    try:
        app = scan.load_app(source)
        stage = "classify"
        verdict = scan.classify(app)
    except scan.UnscannableApkError as exc:
        app, verdict = None, scan.unscannable(source, exc.reason)
    except Exception as exc:
        failure = _failure(source, stage, exc)
        app, verdict = None, scan.unscannable(source, failure)
    # Reports must not depend on how the corpus path was spelled.
    verdict = dataclasses.replace(verdict, path=source.name)
    outcome = AppOutcome(app=verdict.app, source=source.name, verdict=verdict,
                         error=failure)
    if app is None or not verdict.is_dl:
        return outcome
    if app.unsafe_entry is not None:
        outcome.error = f"unsafe entry {app.unsafe_entry!r}"
        return outcome

    try:
        stage = "index"
        index = locate.ClassIndex.from_files(app.data)
        stage = "analyze"
        analysis = locate.analyze_index(index, app.name, depth=depth)
        outcome.anchors = len(analysis.anchors)
        outcome.creation_sites = sum(len(s.creation_sites) for s in analysis.slices)
        outcome.slice_gaps = sum(len(s.gaps) for s in analysis.slices)
        outcome.strategies = sorted({m.strategy for m in analysis.matches})

        if spec is None or not analysis.matches:
            return outcome
        if taken_by is not None:
            outcome.error = (f"work tree {app.name!r} belongs to "
                             f"{taken_by}; not injected")
            return outcome
        stage = "plan"
        plan = inject.plan_injection(workdir / app.name, spec,
                                     analysis.matches, index=index)
        if plan.patches:
            stage = "materialize"
            tree = materialize(app, workdir)
            stage = "apply"
            result = inject.apply_plan(tree, plan)
            outcome.injected = True
            outcome.patches = result.applied
        outcome.warnings = plan.warnings
    except scan.UnscannableApkError as exc:
        outcome.error = exc.reason
    except inject.InjectError as exc:
        outcome.error = str(exc)
    except Exception as exc:
        outcome.error = _failure(source, stage, exc)
    return outcome


def _failure(source: Path, stage: str, exc: Exception) -> str:
    """Log an unexpected stage failure with its traceback; its report text."""
    log.warning("%s: stage %s failed", source.name, stage, exc_info=exc)
    return f"{stage}: {type(exc).__name__}: {exc}"


def run_pipeline(sources: Sequence[Path], workdir: Path,
                 spec: Optional[PerturbationSpec] = None,
                 depth: int = 1, workers: int = 4) -> PipelineReport:
    """Process every app, one after another, in order of source name.

    Work-tree names are handed out in that order, so when two sources map
    to one name (``app.apk`` and ``app/``) the first keeps it. ``workers``
    has no effect; it stays only because the benchmark harness in
    ``perfbench/workloads.py`` still passes it. The work is bound by the
    GIL, and a thread or process pool ran slower than a loop.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    owners: Dict[str, Path] = {}
    outcomes = []
    for source in sorted(sources, key=lambda p: p.name):
        owner = owners.setdefault(scan.app_name(source), source)
        taken_by = None if owner is source else owner.name
        outcome = process_app(source, workdir, spec, depth, taken_by=taken_by)
        log.debug("processed %s: dl=%s strategies=%s injected=%s",
                  outcome.app, outcome.verdict.is_dl, outcome.strategies,
                  outcome.injected)
        outcomes.append(outcome)
    stats = scan.aggregate(o.verdict for o in outcomes)
    return PipelineReport(spec=spec, outcomes=outcomes, stats=stats)


def collect_sources(corpus: Path) -> List[Path]:
    """Apps inside a corpus directory: archives plus extracted trees."""
    sources = []
    for child in sorted(corpus.iterdir()):
        if child.is_file() and child.suffix.lower() in (".apk", ".zip"):
            sources.append(child)
        elif child.is_dir():
            sources.append(child)
    return sources
