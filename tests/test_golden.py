"""Reports and injected trees of the labelled corpus, byte for byte.

The files under ``tests/data/`` were written by the CLI on the
``scripts/build_corpus.py`` corpus (seed 2024):

* ``pipeline_report.json``: ``prepatch pipeline CORPUS --report``;
* ``pipeline_report_rot90.json``: the same with ``--rotation-delta 90``;
* ``injected_rot90.sha256``: ``sha256sum`` of every file of the trees that
  run wrote, paths relative to its work directory, in byte order;
* ``locate_app02_s2.json``: ``prepatch locate app02_s2.apk --report``.

A change that alters any of these bytes changes what the tool reports or
writes; regenerate them only when that is the intent.
"""

import hashlib
from pathlib import Path

import pytest

from prepatch import cli, synth

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden") / "corpus"
    synth.build_corpus(root, seed=2024)
    return root


def _tree_digests(root: Path) -> str:
    files = sorted("./" + p.relative_to(root).as_posix()
                   for p in root.rglob("*") if p.is_file())
    return "".join(f"{hashlib.sha256((root / rel).read_bytes()).hexdigest()}  {rel}\n"
                   for rel in files)


@pytest.mark.parametrize("golden, flags", [
    ("pipeline_report.json", []),
    ("pipeline_report_rot90.json", ["--rotation-delta", "90"]),
])
def test_pipeline_report_matches_golden(golden_corpus, tmp_path, capsys,
                                        golden, flags):
    report = tmp_path / "report.json"
    workdir = tmp_path / "work"
    cli.main(["pipeline", str(golden_corpus), "--workdir", str(workdir),
              "--report", str(report), *flags])
    capsys.readouterr()
    assert report.read_bytes() == (DATA / golden).read_bytes()
    if flags:
        assert _tree_digests(workdir) == \
            (DATA / "injected_rot90.sha256").read_text(encoding="utf-8")
    else:
        assert list(workdir.iterdir()) == []


def test_locate_report_matches_golden(golden_corpus, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["locate", str(golden_corpus / "app02_s2.apk"),
                     "--report", str(report)]) == cli.EXIT_OK
    capsys.readouterr()
    assert report.read_bytes() == \
        (DATA / "locate_app02_s2.json").read_bytes()
