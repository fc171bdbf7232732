"""Reports and injected trees of the labelled corpus, byte for byte.

The files under ``tests/data/`` were written by the CLI on the
``scripts/build_corpus.py`` corpus (seed 2024):

* ``pipeline_report.json``: ``prepatch pipeline CORPUS --report``;
* ``pipeline_report_rot90.json``: the same with ``--rotation-delta 90``;
* ``injected_rot90.sha256``: ``sha256sum`` of every file of the trees that
  run wrote, paths relative to its work directory, in byte order
  (``prepatch inject APP.apk --rotation-delta 90 --workdir W`` writes the
  same tree for each app);
* ``locate_app02_s2.json``: ``prepatch locate app02_s2.apk --report``;
* ``locate_hostile.json``: ``prepatch locate app02_hostile --report`` on the
  tree ``_hostile_tree`` writes: synth ``s2`` plus a file that does not
  decode, one that does not parse, its wrapper with CRLF line ends, and a
  duplicate of that wrapper in ``smali_classes2/``;
* ``cli_streams.json``: the exit code, stdout and stderr of each CLI run
  that ``_stream_runs`` makes, in order, with the corpus path written as
  ``<CORPUS>`` and the test's temporary directory as ``<TMP>``: ``locate``,
  an ``inject --dry-run`` and an ``inject --workdir`` of every archive, a
  dry run, an apply and a blocked second apply on the extracted
  ``app02_s2`` tree, and the refusals. ``PYTHONPATH=src python
  tests/test_golden.py`` rewrites it.

A change that alters any of these bytes changes what the tool reports or
writes; regenerate them only when that is the intent.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
import zipfile
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


def _hostile_tree(root: Path) -> Path:
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    wrapper = "smali/com/demoapp02/vision/ImageHolder.smali"
    text = files[wrapper]
    files["smali/com/demoapp02/util/Bad.smali"] = \
        b"\xff" + files["smali/com/demoapp02/util/Codes1.smali"].encode()
    files["smali/com/demoapp02/util/Broken.smali"] = (
        ".class public Lcom/demoapp02/util/Broken;\n.super Ljava/lang/Object;\n\n"
        ".method public x()V\n    .locals 1\n\n    const/16 v0, zz\n.end method\n")
    files[wrapper] = text.replace("\n", "\r\n").encode()
    files["smali_classes2/" + wrapper.split("/", 1)[1]] = \
        text.replace(".super", "# second dex\n.super", 1)
    tree = root / "app02_hostile"
    synth.write_tree(files, tree)
    return tree


def test_locate_report_of_a_hostile_tree_matches_golden(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["locate", str(_hostile_tree(tmp_path)),
                     "--report", str(report)]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert report.read_bytes() == (DATA / "locate_hostile.json").read_bytes()
    assert err.count("issue ") == 3


def test_inject_archive_writes_the_golden_tree(golden_corpus, tmp_path, capsys):
    workdir = tmp_path / "work"
    assert cli.main(["inject", str(golden_corpus / "app02_s2.apk"),
                     "--rotation-delta", "90",
                     "--workdir", str(workdir)]) == cli.EXIT_OK
    capsys.readouterr()
    golden = (DATA / "injected_rot90.sha256").read_text(encoding="utf-8")
    assert _tree_digests(workdir) == "".join(
        line for line in golden.splitlines(keepends=True)
        if line.split("  ", 1)[1].startswith("./app02_s2/"))


def _stream_runs(corpus: Path, tmp: Path):
    """Yield the argv of each run of ``cli_streams.json``, making the inputs
    a run needs before yielding it."""
    rot90 = ["--rotation-delta", "90"]
    work = ["--workdir", str(tmp / "work")]
    for apk in sorted(map(str, corpus.glob("*.apk"))):
        yield ["locate", apk]
        yield ["inject", apk, *rot90, "--dry-run"]
        yield ["inject", apk, *rot90, *work]

    tree = tmp / "app02_s2"
    with zipfile.ZipFile(corpus / "app02_s2.apk") as zf:
        zf.extractall(tree)
    yield ["inject", str(tree), *rot90, "--dry-run"]
    yield ["inject", str(tree), *rot90]
    yield ["inject", str(tree), *rot90]

    yield ["locate", str(tmp / "missing")]
    yield ["inject", str(tmp / "missing"), *rot90]
    yield ["inject", str(corpus / "app02_s2.apk")]
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    escape = tmp / "escape.apk"
    escape.write_bytes(synth.zip_app({**files, "../escape.txt": "x"}))
    yield ["inject", str(escape), *rot90, *work]
    # The load never reads the asset, so only the extraction finds that
    # its bytes do not match the CRC-32 its central record declares.
    data = bytearray(synth.zip_app({**files, "assets/model.bin": b"\0" * 4096}))
    data[data.rindex(b"assets/model.bin") - 46 + 16] ^= 0xFF
    bad_crc = tmp / "bad_crc.apk"
    bad_crc.write_bytes(bytes(data))
    yield ["inject", str(bad_crc), *rot90, *work]
    yield ["pipeline", str(tmp / "missing")]
    (tmp / "empty").mkdir()
    yield ["pipeline", str(tmp / "empty")]
    yield ["simulate", "--images", "-1"]


def _cli_streams(corpus: Path, tmp: Path) -> list:
    def hide(text: str) -> str:
        return text.replace(str(corpus), "<CORPUS>").replace(str(tmp), "<TMP>")

    runs = []
    for argv in _stream_runs(corpus, tmp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        runs.append({"argv": [hide(arg) for arg in argv], "code": code,
                     "stdout": hide(out.getvalue()), "stderr": hide(err.getvalue())})
    return runs


def test_cli_streams_match_golden(golden_corpus, tmp_path):
    golden = json.loads((DATA / "cli_streams.json").read_text(encoding="utf-8"))
    assert _cli_streams(golden_corpus, tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        corpus, tmp = Path(scratch) / "corpus", Path(scratch) / "tmp"
        synth.build_corpus(corpus, seed=2024)
        tmp.mkdir()
        streams = _cli_streams(corpus, tmp)
    (DATA / "cli_streams.json").write_text(
        json.dumps(streams, indent=1, sort_keys=True) + "\n", encoding="utf-8")
