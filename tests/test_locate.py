import random

import pytest

from prepatch import locate, smali, synth


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


# ---------------------------------------------------------------------------
# indexing bytes


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
    synth.write_tree(files, tmp_path / "app")
    index = locate.ClassIndex.from_tree(tmp_path / "app")
    descriptor = index.by_path[first].class_name
    assert index.resolve(descriptor)[0] == first
    assert second in index.by_path
    assert index.issues == [
        (second, f"duplicate class {descriptor}; first defined in {first}")]
