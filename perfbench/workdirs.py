"""Where a run writes its trees, and how it removes them.

ext4 without a journal, as on the machine the README describes, does not
reuse an inode for a minute or more after it is deleted: every inode
allocation in a block group first walks past the group's recently deleted
inodes, at up to a millisecond per file. A round that writes next to trees
deleted shortly before, by an earlier run or by the program in an earlier
round (``apply_plan`` deletes the tree it replaced), measures that deletion,
not the program.

A new subdirectory of a directory with the "top directory" attribute
(``chattr +T``) goes to a flex group (16 block groups) picked from a hash of
its name; its own subdirectories and files stay in that flex group. So a run
writes set-up into one new tree, every ``corpus_census`` round into another
and every app of a ``bigapps_inject`` round into one of its own, each in a
flex group that no other tree of this run uses and that no run freed in the
last ``HOLD_S`` seconds (``new_tree``), and deletes nothing until it ends.
The flex groups it frees then are noted in ``.perfbench_work/freed.json``
for the runs that follow.
"""

from __future__ import annotations

import fcntl
import json
import os
import secrets
import shutil
import struct
import time
from pathlib import Path
from typing import List, Set

# A deleted inode is held back for 60 s once its inode table block has been
# written out, and for 360 s while the block is dirty; with trees written and
# deleted back to back, slow spells lasted up to about 90 s, and a hold of
# 90 s still let runs slow down over a series.
HOLD_S = 180
# Inodes per flex group with ext4's defaults (8192 per group, 16 groups).
FLEX_INODES = 8192 * 16
TRIES = 32

_FS_IOC_GETFLAGS = 0x80086601
_FS_IOC_SETFLAGS = 0x40086602
_FS_TOPDIR_FL = 0x00020000

# Flex groups this run must not write a new tree into, and its trees.
_avoid: Set[int] = set()
_trees: List[Path] = []


def spread_subdirs(path: Path) -> None:
    """Set the top-directory attribute on ``path``; a no-op where the file
    system does not support it."""
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = struct.unpack("i", fcntl.ioctl(fd, _FS_IOC_GETFLAGS,
                                                struct.pack("i", 0)))[0]
        fcntl.ioctl(fd, _FS_IOC_SETFLAGS, struct.pack("i", flags | _FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)


def _flex_group(path: Path) -> int:
    return (path.stat().st_ino - 1) // FLEX_INODES


def new_tree(parent: Path, prefix: str) -> Path:
    """Create ``parent/<prefix>-<token>`` in a flex group this run does not
    avoid, trying new names up to ``TRIES`` times; the last try is kept
    whatever its group."""
    for attempt in range(TRIES):
        tree = parent / f"{prefix}-{secrets.token_hex(4)}"
        tree.mkdir()
        group = _flex_group(tree)
        if group not in _avoid or attempt == TRIES - 1:
            break
        tree.rmdir()
    _avoid.add(group)
    _trees.append(tree)
    return tree


def _freed_log(root: Path) -> Path:
    return root / "freed.json"


def open_run(root: Path, workload: str) -> Path:
    """Make this run's work directory under ``root`` and note the flex
    groups that runs freed in the last ``HOLD_S`` seconds."""
    root.mkdir(exist_ok=True)
    spread_subdirs(root)
    try:
        freed = json.loads(_freed_log(root).read_text())
    except (OSError, ValueError):
        freed = []
    now = time.time()
    _avoid.update(group for when, group in freed if now - when < HOLD_S)
    work = root / f"{workload}-{secrets.token_hex(4)}"
    work.mkdir()
    spread_subdirs(work)
    return work


def close_run(work: Path) -> None:
    """Delete the run's trees and note the flex groups they freed."""
    log = _freed_log(work.parent)
    try:
        freed = json.loads(log.read_text())
    except (OSError, ValueError):
        freed = []
    now = time.time()
    freed = [[when, group] for when, group in freed if now - when < HOLD_S]
    groups = {_flex_group(tree) for tree in _trees
              if tree.is_dir() and any(tree.iterdir())}
    shutil.rmtree(work, ignore_errors=True)
    freed += [[time.time(), group] for group in sorted(groups)]
    log.write_text(json.dumps(freed))
