import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepatch import inject, locate, scan, smali, synth
from prepatch.perturbation import PerturbationSpec


def _analysis(kind, index, seed=3):
    files, truth = synth.build_app_files(kind, index, random.Random(seed))
    return locate.analyze_files(files, truth.name), files, truth


# ---------------------------------------------------------------------------
# anchors


def test_anchor_on_mlkit_process():
    analysis, _, _ = _analysis("s2", 2)
    (anchor,) = analysis.anchors
    assert anchor.target.owner_class.startswith("Lcom/google/mlkit/")
    assert anchor.target.method_name == "process"
    assert anchor.argument is not None
    assert anchor.argument.name == "v1"   # first non-receiver register


def test_anchor_on_tflite_run():
    analysis, _, _ = _analysis("s1", 0)
    (anchor,) = analysis.anchors
    assert anchor.target.owner_class.startswith("Lorg/tensorflow/lite/")
    assert anchor.target.method_name == "run"


def test_no_anchor_in_plain_app():
    analysis, _, _ = _analysis("nondl", 15)
    assert analysis.anchors == []
    assert analysis.matches == []


def test_inference_call_predicate():
    ref = smali.MethodRef("Lcom/google/mlkit/vision/face/FaceDetector;",
                          "process", "Ljava/lang/Object;",
                          "Lcom/google/android/gms/tasks/Task;")
    assert locate.is_inference_call(ref)
    wrong_name = smali.MethodRef(ref.owner_class, "close", "", "V")
    assert not locate.is_inference_call(wrong_name)
    wrong_owner = smali.MethodRef("Lcom/example/Detector;", "process",
                                  "Ljava/lang/Object;", "V")
    assert not locate.is_inference_call(wrong_owner)


# ---------------------------------------------------------------------------
# slicing


def test_slice_reaches_creation_through_factory():
    analysis, _, _ = _analysis("s2", 2)
    (result,) = analysis.slices
    (site,) = result.creation_sites
    assert site.api.method_name == "createScaledBitmap"
    assert site.api.owner_class == "Landroid/graphics/Bitmap;"
    assert result.gaps == ()


def test_slice_at_depth_zero_reports_exhaustion():
    files, truth = synth.build_app_files("s2", 2, random.Random(3))
    analysis = locate.analyze_files(files, truth.name, depth=0)
    (result,) = analysis.slices
    # Caller-side argument tracing still finds the site; descending stopped.
    assert [s.api.method_name for s in result.creation_sites] == \
        ["createScaledBitmap"]
    assert any("depth exhausted" in gap for gap in result.gaps)


def test_slice_missing_factory_body_is_a_gap_not_a_crash():
    analysis, _, _ = _analysis("negative", 12)
    (result,) = analysis.slices
    assert any("no body" in gap for gap in result.gaps)
    assert [s.api.method_name for s in result.creation_sites] == \
        ["createScaledBitmap"]


def test_slice_parameter_reaches_entry():
    client = """\
.class public Lcom/demo/Direct;
.super Ljava/lang/Object;


# virtual methods
.method public feed(Landroid/graphics/Bitmap;)V
    .locals 2

    iget-object v0, p0, Lcom/demo/Direct;->det:Lcom/google/mlkit/vision/face/FaceDetector;

    invoke-virtual {v0, p1}, Lcom/google/mlkit/vision/face/FaceDetector;->process(Landroid/graphics/Bitmap;)Lcom/google/android/gms/tasks/Task;

    move-result-object v1

    return-void
.end method
"""
    analysis = locate.analyze_files({"smali/com/demo/Direct.smali": client})
    (result,) = analysis.slices
    assert result.creation_sites == ()
    assert any("p1 reaches method entry" in gap for gap in result.gaps)


def test_slice_stops_at_field_load():
    client = """\
.class public Lcom/demo/Stored;
.super Ljava/lang/Object;


# instance fields
.field private frame:Landroid/graphics/Bitmap;


# virtual methods
.method public feed()V
    .locals 2

    iget-object v1, p0, Lcom/demo/Stored;->frame:Landroid/graphics/Bitmap;

    iget-object v0, p0, Lcom/demo/Stored;->det:Lcom/google/mlkit/vision/face/FaceDetector;

    invoke-virtual {v0, v1}, Lcom/google/mlkit/vision/face/FaceDetector;->process(Landroid/graphics/Bitmap;)Lcom/google/android/gms/tasks/Task;

    move-result-object v1

    return-void
.end method
"""
    analysis = locate.analyze_files({"smali/com/demo/Stored.smali": client})
    (result,) = analysis.slices
    assert any("loaded from field" in gap for gap in result.gaps)


def test_slice_follows_moves_and_casts():
    client = """\
.class public Lcom/demo/Moved;
.super Ljava/lang/Object;


# direct methods
.method public static feed(Landroid/content/res/Resources;)V
    .locals 4

    const/high16 v0, 0x7f020000

    invoke-static {p0, v0}, Landroid/graphics/BitmapFactory;->decodeResource(Landroid/content/res/Resources;I)Landroid/graphics/Bitmap;

    move-result-object v1

    move-object v2, v1

    check-cast v2, Landroid/graphics/Bitmap;

    invoke-static {v2}, Lcom/google/mlkit/vision/face/FaceDetection;->process(Landroid/graphics/Bitmap;)V

    return-void
.end method
"""
    analysis = locate.analyze_files({"smali/com/demo/Moved.smali": client})
    (result,) = analysis.slices
    (site,) = result.creation_sites
    assert site.api.method_name == "decodeResource"
    assert result.gaps == ()


def test_slice_trace_is_recorded():
    analysis, _, _ = _analysis("s2", 2)
    (result,) = analysis.slices
    assert len(result.trace) >= 3
    texts = [text for _, _, text in result.trace]
    assert any("createScaledBitmap" in t for t in texts)


# ---------------------------------------------------------------------------
# constructor matching


@pytest.mark.parametrize("kind, index, strategy", [
    ("s1", 0, locate.STRATEGY_BUFFER),        # format 842094169
    ("s1", 1, locate.STRATEGY_BUFFER),        # format 17
    ("s2", 2, locate.STRATEGY_BITMAP),
    ("s3", 4, locate.STRATEGY_MEDIA_IMAGE),
])
def test_strategies_match_their_wrappers(kind, index, strategy):
    analysis, _, _ = _analysis(kind, index)
    (match,) = analysis.matches
    assert match.strategy == strategy
    assert match.format_site is not None
    assert len(match.rotation_sites) == 1
    assert match.rotation_sites[0].value == 180


@pytest.mark.parametrize("index", [12, 13, 14])
def test_near_miss_constants_do_not_match(index):
    analysis, _, _ = _analysis("negative", index)
    assert analysis.matches == []


def test_bitmap_wrapper_dimension_sites():
    analysis, _, _ = _analysis("s2", 2)
    (match,) = analysis.matches
    roles = sorted((d.role, d.kind) for d in match.dimension_sites)
    assert roles == [("height", "getter"), ("width", "getter")]
    for site in match.dimension_sites:
        assert site.invoke_line is not None
        assert site.move_result_line is not None
        assert site.move_result_line > site.invoke_line


_PRECEDENCE_CTOR = """\
.class public final Lcom/demo/Both;
.super Ljava/lang/Object;


# instance fields
.field private zzf:I

.field private zzg:I

.field private zzh:I


# direct methods
.method private constructor <init>(Landroid/media/Image;I)V
    .locals 1

    invoke-direct {p0}, Ljava/lang/Object;-><init>()V

    const-string v0, "both worlds"

    new-instance v0, Landroid/graphics/Matrix;

    const v0, 0x32315659

    iput v0, p0, Lcom/demo/Both;->zzg:I

    const/16 v0, 0x23

    iput v0, p0, Lcom/demo/Both;->zzh:I

    return-void
.end method
"""


def test_strategy_precedence_buffer_wins():
    analysis = locate.analyze_files({"smali/com/demo/Both.smali": _PRECEDENCE_CTOR})
    (match,) = analysis.matches
    assert match.strategy == locate.STRATEGY_BUFFER
    assert match.matched_constants == (842094169,)


def test_one_match_per_constructor():
    both_formats = _PRECEDENCE_CTOR.replace("const/16 v0, 0x23",
                                            "const/16 v0, 0x11")
    analysis = locate.analyze_files({"smali/com/demo/Both.smali": both_formats})
    assert len(analysis.matches) == 1


def test_getter_on_local_register_is_not_a_bitmap_signature():
    files, truth = synth.build_app_files("s2", 2, random.Random(3))
    wrapper_path = next(p for p in files if "ImageHolder" in p)
    # Re-point both getters at a local register instead of the parameter.
    text = files[wrapper_path].replace(
        "invoke-virtual {p1}, Landroid/graphics/Bitmap;->getWidth()I",
        "invoke-virtual {v0}, Landroid/graphics/Bitmap;->getWidth()I").replace(
        "invoke-virtual {p1}, Landroid/graphics/Bitmap;->getHeight()I",
        "invoke-virtual {v0}, Landroid/graphics/Bitmap;->getHeight()I")
    files[wrapper_path] = text
    analysis = locate.analyze_files(files, truth.name)
    assert analysis.matches == []


def test_rotation_sites_exclude_format_constants():
    analysis, _, _ = _analysis("s3", 4)
    (match,) = analysis.matches
    values = [s.value for s in match.rotation_sites]
    assert 35 not in values
    assert values == [180]


def test_rotation_radix_recorded():
    analysis, _, _ = _analysis("s1", 1)   # decimal spelling: const/16 p4, 180
    (match,) = analysis.matches
    assert match.rotation_sites[0].radix == "dec"


_TWO_CTOR_CLASS = """\
.class public final Lcom/demo/TwoCtors;
.super Ljava/lang/Object;


# instance fields
.field private zzf:I

.field private zzg:I


# direct methods
.method private constructor <init>(Landroid/media/Image;I)V
    .locals 1

    invoke-direct {p0}, Ljava/lang/Object;-><init>()V

    new-instance v0, Landroid/graphics/Matrix;

    const/16 v0, 0x5a

    iput v0, p0, Lcom/demo/TwoCtors;->zzf:I

    const/16 v0, 0x23

    iput v0, p0, Lcom/demo/TwoCtors;->zzg:I

    return-void
.end method

.method private constructor <init>(Landroid/media/Image;II)V
    .locals 1

    invoke-direct {p0}, Ljava/lang/Object;-><init>()V

    new-instance v0, Landroid/graphics/Matrix;

    iput p2, p0, Lcom/demo/TwoCtors;->zzf:I

    const/16 v0, 0x23

    iput v0, p0, Lcom/demo/TwoCtors;->zzg:I

    return-void
.end method
"""


def test_rotation_field_promotes_sibling_parameter_stores():
    analysis = locate.analyze_files({"smali/com/demo/TwoCtors.smali": _TWO_CTOR_CLASS})
    assert len(analysis.matches) == 2
    by_sig = {m.method_signature: m for m in analysis.matches}
    const_fed = by_sig["<init>(Landroid/media/Image;I)V"]
    assert [s.value for s in const_fed.rotation_sites] == [90]
    param_fed = by_sig["<init>(Landroid/media/Image;II)V"]
    (site,) = param_fed.rotation_sites
    assert site.value is None and site.const_line is None
    assert site.field_name == "zzf"
    assert site.register.name == "p2"


def test_parse_issue_recorded_not_fatal():
    files, truth = synth.build_app_files("s2", 2, random.Random(3))
    files["smali/com/demo/Broken.smali"] = (
        ".class public La;\n.super Lb;\n\n"
        ".method public x()V\n    .locals 1\n\n    const/16 v0, zz\n.end method\n")
    analysis = locate.analyze_files(files, truth.name)
    assert len(analysis.issues) == 1
    assert analysis.issues[0][0] == "smali/com/demo/Broken.smali"
    assert len(analysis.matches) == 1


# ---------------------------------------------------------------------------
# renaming invariance


@pytest.mark.parametrize("kind, index", [("s1", 0), ("s2", 2), ("s3", 4)])
def test_match_results_survive_renaming(kind, index):
    files, truth = synth.build_app_files(kind, index, random.Random(3))
    base = locate.analyze_files(files, truth.name)
    base_summary = (
        sorted(m.strategy for m in base.matches),
        sorted(m.format_site.value for m in base.matches),
        [len(s.creation_sites) for s in base.slices],
        len(base.anchors),
    )
    for seed in range(8):
        renamed, _ = synth.alpha_rename(files, random.Random(seed))
        again = locate.analyze_files(renamed, truth.name)
        summary = (
            sorted(m.strategy for m in again.matches),
            sorted(m.format_site.value for m in again.matches),
            [len(s.creation_sites) for s in again.slices],
            len(again.anchors),
        )
        assert summary == base_summary, f"seed {seed} changed results"


def test_analysis_dict_round_trips_to_json(corpus):
    import json
    analysis, _, _ = _analysis("s2", 3)
    payload = json.dumps(analysis.to_dict(), sort_keys=True)
    decoded = json.loads(payload)
    assert decoded["matches"][0]["strategy"] == locate.STRATEGY_BITMAP


def test_analysis_builds_instructions_only_for_methods_it_reads(monkeypatch):
    files, truth = synth.build_app_files("s2", 2, random.Random(3))
    plain = locate.analyze_files(files, truth.name)
    synth._add_fillers(files, "demoapp02/pad", random.Random(4), 200)
    indexes, parsed = [], []
    from_files = locate.ClassIndex.from_files.__func__
    monkeypatch.setattr(locate.ClassIndex, "from_files", classmethod(
        lambda cls, f: indexes.append(from_files(cls, f)) or indexes[-1]))
    build = smali._build_instruction
    monkeypatch.setattr(smali, "_build_instruction",
                        lambda raw, s, i, regs: parsed.append(raw) or build(raw, s, i, regs))

    analysis = locate.analyze_files(files, truth.name)

    def without_units(result):
        return {k: v for k, v in result.to_dict().items() if k != "units"}
    assert without_units(analysis) == without_units(plain)
    assert [m.strategy for m in analysis.matches] == list(truth.strategies)
    assert len(analysis.anchors) == 1
    (index,) = indexes
    built = [(rel, m) for rel, unit in index.by_path.items()
             for m in unit.methods if m.instructions_built]
    assert built
    assert not any("/util/" in rel for rel, _ in built)   # no filler
    walked = {(unit, line) for s in analysis.slices for unit, line, _ in s.trace}
    anchored = {(a.unit_path, a.method_signature) for a in analysis.anchors}
    for rel, method in built:
        assert (method.is_constructor or (rel, method.signature) in anchored
                or any(unit == rel and method.header_line_index < line
                       < method.end_line_index for unit, line in walked)), \
            (rel, method.signature)
    # Each built method's lines were parsed once, and no other line was.
    assert len(parsed) == sum(
        1 for _, m in built for i in m.instructions
        if not i.raw_text.strip().startswith((".registers", ".locals")))


# ---------------------------------------------------------------------------
# indexing bytes


def test_index_holds_each_class_about_once():
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    synth._add_fillers(files, "demoapp02/pad", random.Random(4), 1000)
    data = {rel: text.encode() for rel, text in files.items() if rel.endswith(".smali")}
    smali_bytes = sum(map(len, data.values()))
    tracemalloc.start()
    try:
        index = locate.ClassIndex.from_files(data)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.by_path) == len(data) > 1000
    # The decoded text is one copy; a string per line would be two more.
    assert held < 5 * smali_bytes, (held, smali_bytes)


def test_index_of_bytes_reads_lines_as_disk_text_does(tmp_path):
    body = (".class public Lcom/demo/Nl;\n.super Ljava/lang/Object;\n\n"
            ".method public constructor <init>()V\n    .registers 1\n"
            "    return-void\n.end method\n")
    files = {
        "smali/Crlf.smali": body.replace("Nl;", "Crlf;").replace("\n", "\r\n").encode(),
        "smali/Cr.smali": body.replace("Nl;", "Cr;").replace("\n", "\r").encode(),
        "smali/Bad.smali": b"\xff\xfe.class",
        "smali/Broken.smali": b".class public LBroken;\n.method x\n",
    }
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    index = locate.ClassIndex.from_files(files)
    for rel in ("smali/Crlf.smali", "smali/Cr.smali"):
        disk = (tmp_path / rel).read_text(encoding="utf-8").split("\n")
        assert index.by_path[rel].lines == tuple(disk)
    assert [rel for rel, _ in index.issues] == ["smali/Bad.smali",
                                                "smali/Broken.smali"]
    assert list(index.unparsed) == ["smali/Broken.smali"]


def test_duplicate_class_in_second_dex_is_an_issue(tmp_path):
    files, _ = synth.build_app_files("s2", 2, random.Random(3))
    first = next(rel for rel in files if "ImageHolder" in rel)
    second = "smali_classes2/" + first.split("/", 1)[1]
    files[second] = files[first].replace(".super", "# second dex\n.super", 1)
    activity = next(rel for rel in files if "MainActivity" in rel)
    files["smali_classes2/" + activity.split("/", 1)[1]] = files[activity]
    synth.write_tree(files, tmp_path / "app")
    index = locate.ClassIndex.from_tree(tmp_path / "app")
    descriptor = index.by_path[first].class_name
    assert index.resolve(descriptor)[0] == first
    assert second in index.by_path
    assert (second, f"duplicate class {descriptor}; first defined in {first}") \
        in index.issues
    assert len(index.issues) == 2

    # Only the file that owns a descriptor is analyzed, planned and patched.
    analysis = locate.analyze_files(files)
    assert [a.unit_path for a in analysis.anchors] == [activity]
    assert [m.unit_path for m in analysis.matches] == [first]
    spec = PerturbationSpec(rotation_delta=90)
    plan = inject.plan_injection(tmp_path / "app", spec)
    assert [m.unit_path for m in plan.matches] == [first]
    result = inject.apply_plan(tmp_path / "app", plan)
    assert result.files_changed == [first]
    assert (tmp_path / "app" / second).read_text() == files[second]


# ---------------------------------------------------------------------------
# lazy parsing is exact: the walks, lookups and marker search of an index
# that parses a class only when a stage reads it equal those of one that
# parsed every class first


def _reference_anchors(index):
    """Anchors from every method of every owned class, read through
    ``by_path`` with no text filter."""
    anchors = []
    for rel in index.owned_paths():
        unit = index.by_path[rel]
        for method in unit.methods:
            for instr in method.instructions:
                ref = instr.method_ref
                if instr.kind is not smali.OpKind.INVOKE or ref is None \
                        or not locate.is_inference_call(ref):
                    continue
                regs = list(instr.invoke_registers)
                args = regs if instr.opcode.startswith("invoke-static") else regs[1:]
                anchors.append(locate.SliceAnchor(
                    rel, unit.class_name, method.signature, instr.line_index,
                    ref, args[0] if args else None))
    return anchors


def _reference_marked(index):
    marked = [rel for rel, unit in index.by_path.items()
              if inject.has_marker(unit.text)]
    marked += [rel for rel, text in index.unparsed.items()
               if inject.has_marker(text)]
    return min(marked, key=scan.tree_order, default=None)


def _assert_lazy_is_exact(files):
    lazy = locate.ClassIndex.from_files(dict(files))
    anchors = locate.find_anchors(lazy)
    matches = locate.match_index(lazy)
    marked = inject._marked_file(lazy)
    slices = [locate.backward_slice(lazy, a) for a in anchors]

    eager = locate.ClassIndex.from_files(dict(files))
    eager.by_path   # parse every class first
    assert anchors == _reference_anchors(eager)
    assert matches == [m for rel in eager.owned_paths()
                       for m in locate.match_constructors(eager.by_path[rel], rel)]
    assert marked == _reference_marked(eager)
    assert slices == [locate.backward_slice(eager, a) for a in anchors]

    fresh = locate.ClassIndex.from_files(dict(files))
    for descriptor in set(eager.by_class) | set(fresh._declaring):
        assert fresh.resolve(descriptor) == eager.by_class.get(descriptor)
    for rel in files:
        assert fresh.unit(rel) == eager.by_path.get(rel)
    # Forcing the eager views of the lazy index gives the same views.
    assert list(lazy.by_path) == list(eager.by_path)
    assert lazy.issues == eager.issues and lazy.unparsed == eager.unparsed
    assert lazy.owned_paths() == eager.owned_paths()


def test_lazy_index_is_exact_on_the_labelled_corpus(corpus):
    _, entries = corpus
    checked = 0
    for entry in entries:
        try:
            app = scan.load_app(entry.path)
        except scan.UnscannableApkError:
            continue
        _assert_lazy_is_exact(app.data)
        checked += 1
    assert checked == 20


_UNREAD_BROKEN_METHOD = (
    "\n.method private zzUnread()V\n    .locals 1\n\n"
    "    const/16 v0, zz\n\n    return-void\n.end method\n")


def _mutate(files, op, target):
    """Apply one hostile edit to the smali file ``target`` of ``files``."""
    text = files[target]
    head, rest = target.split("/", 1)
    if op == "break":
        files[target] = text + _UNREAD_BROKEN_METHOD
    elif op in ("dup_broken_first", "dup_broken_later", "dup"):
        # "smali/com-dup/..." sorts before "smali/com/..." as a string but
        # after it in tree order, so walk order and ownership order differ.
        for other in ("smali_classes2/" + rest, target.replace("/com/", "/com-dup/", 1)):
            files[other] = text
        if op == "dup_broken_first":
            files[target] = text + _UNREAD_BROKEN_METHOD
        elif op == "dup_broken_later":
            files["smali_classes2/" + rest] = text + _UNREAD_BROKEN_METHOD
    elif op == "twin":
        # The same class under another name, in a folder that sorts before
        # the original's as a string but after it in tree order.
        descriptor = text.split("\n", 1)[0].split()[-1]
        files[target.replace("/com/", "/com-dup/", 1)] = text.replace(
            descriptor, descriptor[:-1] + "Twin;")
    elif op == "undecodable":
        files[target] = b"\xff" + text.encode()
    elif op == "crlf":
        files[target] = text.replace("\n", "\r\n").encode()
    elif op == "marker":
        files[target] = text.replace(".super", inject.MARKER_FIELD + "\n.super", 1)
    elif op == "marker_broken":
        files[target] = (text + _UNREAD_BROKEN_METHOD).replace(
            ".super", inject.MARKER_FIELD + "\n.super", 1)


_OPS = ("break", "dup_broken_first", "dup_broken_later", "dup", "twin",
        "undecodable", "crlf", "marker", "marker_broken")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["s1", "s2", "s3", "negative", "nondl"]),
       index=st.integers(0, 5), seed=st.integers(0, 2 ** 16),
       edits=st.lists(st.tuples(st.sampled_from(_OPS),
                                st.sampled_from(["wrapper", "client", "filler"]),
                                st.integers(0, 7)), max_size=4))
def test_lazy_index_is_exact_on_hostile_apps(kind, index, seed, edits):
    files, _ = synth.build_app_files(kind, index, random.Random(seed))
    files = {rel: data for rel, data in files.items() if rel.endswith(".smali")}
    for op, role, pick in edits:
        smali_texts = sorted(rel for rel, data in files.items()
                             if isinstance(data, str) and rel.startswith("smali/com/"))
        pools = {"wrapper": [rel for rel in smali_texts if "/vision/" in rel],
                 "client": [rel for rel in smali_texts if "MainActivity" in rel],
                 "filler": [rel for rel in smali_texts if "/util/" in rel]}
        pool = pools[role]
        if pool:
            _mutate(files, op, pool[pick % len(pool)])
    _assert_lazy_is_exact({rel: data.encode() if isinstance(data, str) else data
                           for rel, data in files.items()})
