"""Command-line front end.

Subcommands mirror the pipeline stages: ``scan`` classifies apps, ``locate``
finds pre-processing code, ``inject`` patches a tree, ``simulate`` measures
perturbation effects on the toy pipeline, ``pipeline`` chains everything
over a corpus, and ``report`` renders a saved JSON report.

Every command reads an app once with ``scan.load_app`` and indexes its
classes once, as ``pipeline`` does; ``locate`` writes nothing. ``inject``
plans a tree and an archive alike from that index and prints the plan's
diff (``--dry-run``, which writes nothing, not even to recover a tree) or
patches a tree in place. An archive is extracted to ``--workdir``, and
``pipeline`` writes an app, only to apply a plan that has patches.

``inject`` and ``pipeline`` write a tree only while they hold its lock,
a ``flock`` on ``<tree>.lock`` that the kernel drops when its holder
exits: a lock file no live process holds never blocks.

Every command reports a refusal on stderr as ``error: …`` (exit 1) or, when
a marker, a stale plan or a held lock stops ``inject``, ``blocked: …`` (exit
3); ``main`` alone maps exceptions to these, so a traceback means a bug.
``inject`` exits 2 when nothing matches and 4 when the repack hook fails;
``pipeline`` exits 2 when no app matched anywhere and 5 on internal errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import tempfile
import traceback
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import __version__, inject, locate, pipeline, scan, sim
from .config import Config, read_json
from .perturbation import PerturbationSpec

log = logging.getLogger("prepatch")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_TARGETS = 2
EXIT_BLOCKED = 3
EXIT_REPACK = 4
EXIT_INTERNAL = 5


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_report(target: Optional[str], payload: dict) -> None:
    if target is None:
        return
    text = _dump(payload)
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


def _add_perturbation_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("perturbation")
    group.add_argument("--rotation-override", type=int, metavar="DEG",
                       help="replace stored rotation values with DEG")
    group.add_argument("--rotation-delta", type=int, metavar="DEG",
                       help="add DEG to stored rotation values (mod 360)")
    group.add_argument("--width", type=int, dest="width_override",
                       metavar="PX", help="pin stored image width to PX")
    group.add_argument("--height", type=int, dest="height_override",
                       metavar="PX", help="pin stored image height to PX")
    group.add_argument("--format", type=int, dest="format_override",
                       metavar="TAG", help="replace the stored format tag")
    group.add_argument("--raw-rotation", action="store_true",
                       help="skip mod-360 normalization of rotation values")


def _spec_from_args(args: argparse.Namespace) -> Optional[PerturbationSpec]:
    try:
        spec = PerturbationSpec(
            rotation_override=args.rotation_override,
            rotation_delta=args.rotation_delta,
            width_override=args.width_override,
            height_override=args.height_override,
            format_override=args.format_override,
            normalize_rotation=not args.raw_rotation,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc
    return None if spec.is_noop else spec


def _load_config(args: argparse.Namespace) -> Config:
    config = Config.from_file(Path(args.config)) if args.config else Config()
    return config.merged(**{name: getattr(args, name, None) for name in (
        "slice_depth", "image_count", "seed", "detection_threshold")})


def _parse_size(text: str) -> Tuple[int, int]:
    try:
        width, height = (int(side) for side in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected WIDTHxHEIGHT, got {text!r}") from exc
    if width <= 0 or height <= 0:
        raise argparse.ArgumentTypeError(
            f"expected positive WIDTHxHEIGHT, got {text!r}")
    return width, height


# ---------------------------------------------------------------------------
# subcommands


def cmd_scan(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    if args.corpus:
        sources: List[Path] = []
        for path in paths:
            sources.extend(pipeline.collect_sources(path))
    else:
        sources = paths
    verdicts = [scan.scan_path(p) for p in sorted(sources, key=lambda p: p.name)]
    for verdict in verdicts:
        if verdict.error is not None:
            print(f"{verdict.app}: unscannable ({verdict.error})")
        elif verdict.is_dl:
            details = ",".join(verdict.evidence)
            services = ",".join(verdict.services) or "-"
            print(f"{verdict.app}: DL [{details}] services={services}")
        else:
            print(f"{verdict.app}: non-DL")
    stats = scan.aggregate(verdicts)
    print(f"total={stats.total} dl={stats.dl} non_dl={stats.non_dl} "
          f"unscannable={stats.unscannable} percent_dl={stats.percent_dl}")
    for service, share in stats.service_share().items():
        print(f"  {service}: {stats.service_counts[service]} ({share}%)")
    _write_report(args.report, {
        "verdicts": [v.to_dict() for v in verdicts],
        "stats": stats.to_dict(),
    })
    return EXIT_OK


def _read_app(path: Path) -> scan.AppFiles:
    """Read an app tree or archive into memory; refuse a missing or unsafe one."""
    if not (path.is_dir() or path.is_file()):
        raise ValueError(f"{path} does not exist")
    app = scan.load_app(path)
    if app.unsafe_entry is not None:
        raise scan.UnscannableApkError(path, f"unsafe entry {app.unsafe_entry!r}")
    return app


def cmd_locate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    app = _read_app(Path(args.path))
    analysis = locate.analyze_files(app.data, app.name, depth=config.slice_depth)
    print(f"{analysis.root}: {analysis.units} classes, "
          f"{len(analysis.anchors)} anchors, {len(analysis.matches)} matches")
    for result in analysis.slices:
        anchor = result.anchor
        print(f"anchor {anchor.target.owner_class}->{anchor.target.method_name} "
              f"in {anchor.unit_path}:{anchor.line_index}")
        for site in result.creation_sites:
            print(f"  creation {site.api.method_name} at "
                  f"{site.unit_path}:{site.line_index}")
        for gap in result.gaps:
            print(f"  gap: {gap}")
    for match in analysis.matches:
        rotations = ", ".join(
            f"{s.field_name}={s.value if s.value is not None else '?'}"
            for s in match.rotation_sites) or "-"
        print(f"match {match.strategy} {match.class_name} "
              f"format={match.format_site.value if match.format_site else '-'} "
              f"rotation[{rotations}] dims={len(match.dimension_sites)}")
    for unit, error in analysis.issues:
        print(f"issue {unit}: {error}", file=sys.stderr)
    _write_report(args.report, analysis.to_dict())
    return EXIT_OK


def cmd_inject(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = _spec_from_args(args)
    if spec is None:
        raise ValueError("no perturbation requested "
                         "(use --rotation-delta, --width, ...)")
    path = Path(args.tree)
    if path.is_dir() and not args.dry_run:
        inject.recover(path)
    app = _read_app(path)
    data = app.data
    if path.is_dir() and args.dry_run:
        data = inject.recovered_data(path, data)
    index = locate.ClassIndex.from_files(data)
    plan = inject.plan_index(app.name, spec, index)
    if not plan.patches:
        print("no matching constructors; nothing to patch", file=sys.stderr)
        _write_report(args.report, plan.to_dict())
        return EXIT_NO_TARGETS

    for warning in plan.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.dry_run:
        sys.stdout.write(inject.render_diff(index, plan))
        sys.stdout.write("\n")
        _write_report(args.report, plan.to_dict())
        return EXIT_OK

    tree = path
    if not path.is_dir():
        base = Path(args.workdir) if args.workdir else \
            Path(tempfile.mkdtemp(prefix="prepatch-"))
        base.mkdir(parents=True, exist_ok=True)
        try:
            tree = pipeline.materialize(app, base)
        except scan.UnscannableApkError as exc:
            raise ValueError(f"cannot extract {path}: {exc.reason}") from exc
    result = inject.apply_plan(tree, plan)

    print(f"applied {result.applied} patches to "
          f"{len(result.files_changed)} files in {tree}")
    payload = {"plan": plan.to_dict(), "result": result.to_dict()}

    repack_command = args.repack or config.repack_command
    if repack_command:
        try:
            out = inject.repack(
                tree, repack_command,
                Path(args.repack_out) if args.repack_out else None)
        except inject.RepackError as exc:
            print(f"repack failed: {exc}", file=sys.stderr)
            _write_report(args.report, payload)
            return EXIT_REPACK
        payload["result"]["repacked_to"] = str(out)
        print(f"repacked to {out}")

    _write_report(args.report, payload)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = _spec_from_args(args) or PerturbationSpec()
    if args.latency_profile:
        profile = sim.latency_profile(
            [tuple(size) for size in args.preview] or sim.LATENCY_SIZES,
            10 if args.image_count is None else args.image_count)
        for preview, ops in profile:
            print(f"{preview.width}x{preview.height}: {ops} pixel ops")
        _write_report(args.report, {
            "latency": [{"width": p.width, "height": p.height, "pixel_ops": ops}
                        for p, ops in profile]})
        return EXIT_OK

    previews = [tuple(size) for size in args.preview] or [(640, 320)]
    result = sim.run_experiment(
        spec, image_count=config.image_count, seed=config.seed,
        preview_sizes=previews, do_normalize=args.normalize,
        threshold=config.detection_threshold,
        desired=(config.desired_width, config.desired_height))
    for run in (result.baseline, result.perturbed):
        print(f"{run.label}: rotation={run.rotation} "
              f"rate={run.detection_rate:.2f} mean_score={run.mean_score:.4f} "
              f"pixel_ops={run.ops.total}")
    print(f"rate drop: {result.rate_drop:.2f}")
    _write_report(args.report, result.to_dict())
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = _spec_from_args(args)
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise ValueError(f"corpus {corpus} is not a directory")
    workdir = Path(args.workdir) if args.workdir else \
        corpus.parent / (corpus.name + ".work")
    sources = pipeline.collect_sources(corpus)
    if not sources:
        raise ValueError(f"no apps found in {corpus}")

    try:
        report = pipeline.run_pipeline(sources, workdir, spec=spec,
                                       depth=config.slice_depth)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL

    for outcome in sorted(report.outcomes, key=lambda o: o.app):
        verdict = outcome.verdict
        if verdict.error is not None:
            print(f"{outcome.app}: unscannable")
            continue
        if not verdict.is_dl:
            print(f"{outcome.app}: non-DL")
            continue
        state = "injected" if outcome.injected else \
            ("matched" if outcome.matched else "no match")
        print(f"{outcome.app}: DL {state} "
              f"strategies={','.join(outcome.strategies) or '-'} "
              f"anchors={outcome.anchors} sites={outcome.creation_sites}")
    stats = report.stats
    print(f"total={stats.total} dl={stats.dl} matched={report.matched_apps} "
          f"injected={report.injected_apps} unscannable={stats.unscannable} "
          f"matched_of_dl={report.percent_matched_of_dl}%")
    _write_report(args.report, report.to_dict())
    if report.matched_apps == 0:
        return EXIT_NO_TARGETS
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    payload = read_json(Path(args.file))
    if "outcomes" in payload:
        stats = payload.get("stats", {})
        print(f"apps={stats.get('total')} dl={stats.get('dl')} "
              f"matched={payload.get('matched_apps')} "
              f"injected={payload.get('injected_apps')}")
        for outcome in payload.get("outcomes", []):
            strategies = ",".join(outcome.get("strategies", [])) or "-"
            print(f"  {outcome['app']}: dl={outcome['verdict']['is_dl']} "
                  f"strategies={strategies} injected={outcome['injected']}")
    elif "baseline" in payload:
        for key in ("baseline", "perturbed"):
            run = payload[key]
            print(f"{run['label']}: rate={run['detection_rate']} "
                  f"mean_score={run['mean_score']} pixel_ops={run['pixel_ops']}")
        print(f"rate drop: {payload.get('rate_drop')}")
    else:
        sys.stdout.write(_dump(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prepatch",
        description="Find, patch, and simulate image pre-processing code "
                    "in disassembled Android apps.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="classify apps as DL or not")
    p_scan.add_argument("paths", nargs="+", help="apps (apk or tree)")
    p_scan.add_argument("--corpus", action="store_true",
                        help="treat each path as a directory of apps")
    p_scan.add_argument("--report", metavar="FILE", help="write JSON ('-' for stdout)")
    p_scan.set_defaults(func=cmd_scan)

    p_locate = sub.add_parser("locate", help="find pre-processing code in one app")
    p_locate.add_argument("path", help="extracted tree or apk")
    p_locate.add_argument("--slice-depth", type=int, dest="slice_depth")
    p_locate.add_argument("--config", metavar="FILE")
    p_locate.add_argument("--report", metavar="FILE")
    p_locate.set_defaults(func=cmd_locate)

    p_inject = sub.add_parser("inject", help="patch pre-processing values in a tree")
    p_inject.add_argument("tree", help="extracted tree (or apk with --workdir)")
    p_inject.add_argument("--workdir",
                          help="extraction directory for archives "
                               "(unused with --dry-run)")
    _add_perturbation_args(p_inject)
    p_inject.add_argument("--dry-run", action="store_true",
                          help="print the diff without writing")
    p_inject.add_argument("--repack", metavar="CMD",
                          help="repack command; {in} and {out} expand to paths")
    p_inject.add_argument("--repack-out", metavar="FILE")
    p_inject.add_argument("--config", metavar="FILE")
    p_inject.add_argument("--report", metavar="FILE")
    p_inject.set_defaults(func=cmd_inject)

    p_sim = sub.add_parser("simulate", help="measure perturbation effects")
    _add_perturbation_args(p_sim)
    p_sim.add_argument("--images", type=int, dest="image_count",
                       help="images per run (default: the config's image_count, 100)")
    p_sim.add_argument("--seed", type=int, dest="seed")
    p_sim.add_argument("--threshold", type=float, dest="detection_threshold")
    p_sim.add_argument("--normalize", action="store_true",
                       help="normalize pixels before detection")
    p_sim.add_argument("--preview", type=_parse_size, action="append",
                       default=[], metavar="WxH",
                       help="candidate preview size (repeatable)")
    p_sim.add_argument("--latency-profile", action="store_true",
                       help="report pixel-op totals per preview size of --images "
                            "images (default 10; the config's image_count is not read)")
    p_sim.add_argument("--config", metavar="FILE")
    p_sim.add_argument("--report", metavar="FILE")
    p_sim.set_defaults(func=cmd_simulate)

    p_pipe = sub.add_parser("pipeline", help="scan, locate, and inject a corpus")
    p_pipe.add_argument("corpus", help="directory of apps")
    p_pipe.add_argument("--workdir",
                        help="where the trees of injected apps are written")
    _add_perturbation_args(p_pipe)
    p_pipe.add_argument("--slice-depth", type=int, dest="slice_depth")
    p_pipe.add_argument("--config", metavar="FILE")
    p_pipe.add_argument("--report", metavar="FILE")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_report = sub.add_parser("report", help="render a saved JSON report")
    p_report.add_argument("file")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (inject.InjectError, scan.UnscannableApkError, ValueError) as exc:
        log.debug("%s refused", args.command, exc_info=True)
        if isinstance(exc, inject.InjectError):
            print(f"blocked: {exc}", file=sys.stderr)
            return EXIT_BLOCKED
        reason = f"cannot read {exc.path}: {exc.reason}" \
            if isinstance(exc, scan.UnscannableApkError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
