"""Command line surface: synthesize, train, evaluate, detect.

Owns the on-disk layout: the names and contents of files. Dataset
directories hold one recording CSV per gesture named
`<class>__<device>__<id>.csv`; sessions pair a CSV with a `.ranges.json`
ground-truth file; every run writes `manifest_<command>.json` next to its
outputs. Directories, `--out` included, come from the writes, so a command
that fails before its first write leaves none; `train` fits every mode
before it writes. All files are written atomically and all commands are
deterministic given their manifest, so reruns are byte-identical.

Exit codes: 0 success, 2 usage error, 1 runtime failure. Out-of-range
numeric options are usage errors, raised before any input is read; the
argparse parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from . import detect as detect_mod
from . import metrics as metrics_mod
from . import mlp, synth
from . import train as train_mod
from .errors import InvalidThreshold, MalformedRanges, MissingTemplate
from .fileio import write_json
from .signal import (
    ChannelMode,
    GestureClass,
    SensorRecording,
    load_recording_csv,
    write_recording_csv,
)


class UsageError(Exception):
    """Bad options or bad dataset layout; maps to exit code 2."""


def save_manifest(out: Path, command: str, seed: Optional[int], options: dict,
                  inputs: Sequence[str] = (), outputs: Sequence[str] = ()) -> None:
    doc = {"version": __version__, "command": command, "seed": seed,
           "options": options, "inputs": list(inputs), "outputs": list(outputs)}
    write_json(out / f"manifest_{command}.json", doc)


def recording_filename(label: GestureClass, device: str, index: int) -> str:
    return f"{label.value}__{device}__{index:03d}.csv"


def parse_recording_filename(name: str) -> tuple[GestureClass, str]:
    parts = Path(name).stem.split("__")
    if len(parts) != 3:
        raise UsageError(
            f"bad dataset filename {name!r}: expected <class>__<device>__<id>.csv")
    try:
        label = GestureClass.parse(parts[0])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return label, parts[1]


def load_dataset_dir(directory: Path) -> list[SensorRecording]:
    """All labeled recordings in a dataset directory, sorted by filename."""
    if not directory.is_dir():
        raise UsageError(f"not a dataset directory: {directory}")
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise UsageError(f"no recording CSVs in {directory}")
    recordings = []
    for path in files:
        label, device = parse_recording_filename(path.name)
        recordings.append(load_recording_csv(path, label=label, device=device))
    return recordings


def _parse_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"bad {what} count {text!r}") from None
    if value < 0:
        raise UsageError(f"{what} count must be >= 0, got {value}")
    return value


def _parse_counts(text: str, parse) -> dict:
    """`NAME=N,...` (a bare NAME counts 1) -> {parse(NAME): total N}."""
    counts: dict = {}
    for item in text.split(","):
        name, sep, num = item.partition("=")
        try:
            key = parse(name)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        counts[key] = counts.get(key, 0) + (_parse_int(num, name) if sep else 1)
    return counts


def _parse_modes(text: str) -> list[ChannelMode]:
    modes = []
    for name in text.split(","):
        try:
            mode = ChannelMode.parse(name)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if mode in modes:
            raise UsageError(f"mode {mode.value} is given twice in --modes")
        modes.append(mode)
    return modes


def _resolve_synth_setup(args):
    templates = synth.DEFAULT_TEMPLATES
    profiles = synth.DEFAULT_PROFILES
    if args.config is not None:
        templates, profiles = synth.load_synth_config(args.config)
    if args.profile not in profiles:
        known = ", ".join(sorted(profiles))
        raise UsageError(f"unknown device profile {args.profile!r} (known: {known})")
    return templates, profiles[args.profile]


def _write_corpus(recordings: Sequence[SensorRecording], directory: Path) -> list[str]:
    written = []
    counters: dict[tuple, int] = {}
    for rec in recordings:
        key = (rec.label, rec.device)
        i = counters.get(key, 0)
        counters[key] = i + 1
        path = directory / recording_filename(rec.label, rec.device, i)
        write_recording_csv(rec, path)
        written.append(str(path))
    return written


def _write_sessions(sessions, directory: Path) -> list[str]:
    written = []
    counters: dict[synth.SessionKind, int] = {}
    for kind, recording, ranges in sessions:
        i = counters.get(kind, 0)
        counters[kind] = i + 1
        stem = f"{kind.value}_session__{recording.device}__{i:03d}"
        csv_path = directory / f"{stem}.csv"
        write_recording_csv(recording, csv_path)
        detect_mod.save_ranges(ranges, directory / f"{stem}.ranges.json")
        written.extend([str(csv_path), str(directory / f"{stem}.ranges.json")])
    return written


def cmd_synth(args) -> None:
    templates, profile = _resolve_synth_setup(args)
    if args.gestures is not None:
        counts = _parse_counts(args.gestures, GestureClass.parse)
        for cls in counts:
            try:
                synth.template_for(cls, templates)
            except MissingTemplate as exc:
                raise UsageError(str(exc)) from None
    elif args.sessions is not None:
        counts = _parse_counts(args.sessions, synth.SessionKind.parse)
    out = Path(args.out)
    written: list[str] = []
    if args.corpus is not None:
        train_c, test_c, sessions = synth.generate_table1(
            profile, args.seed, templates)
        written += _write_corpus(train_c, out / "train")
        written += _write_corpus(test_c, out / "test")
        written += _write_sessions(sessions, out / "sessions")
    elif args.gestures is not None:
        recordings = synth.generate_corpus(counts, profile, args.seed, templates)
        written += _write_corpus(recordings, out)
    else:
        sessions = synth.generate_sessions(counts, profile, args.seed, templates)
        written += _write_sessions(sessions, out)
    save_manifest(out, "synth", args.seed,
                  {"corpus": args.corpus, "gestures": args.gestures,
                   "sessions": args.sessions, "profile": args.profile,
                   "config": args.config},
                  outputs=written)
    print(f"wrote {len(written)} files under {out}")


def cmd_train(args) -> None:
    modes = _parse_modes(args.modes)
    recordings = load_dataset_dir(Path(args.data))
    fits = [train_mod.train_best_of(
                dataset, restarts=args.restarts, master_seed=args.seed,
                hidden_size=args.hidden, max_epochs=args.max_epochs)
            for dataset in train_mod.build_datasets(recordings, modes)]
    out = Path(args.out)
    written = []
    for mode, (net, _, restarts, selected) in zip(modes, fits):
        model_path = out / f"model_{mode.value}.json"
        report_path = out / f"train_report_{mode.value}.json"
        mlp.save_model(net, model_path, threshold=args.threshold)
        train_mod.save_report(restarts, report_path, selected_index=selected)
        written += [str(model_path), str(report_path)]
        acc = restarts[selected].train_accuracy
        print(f"{mode.value}: restart {selected} selected, "
              f"train accuracy {acc:.3f} -> {model_path}")
    save_manifest(out, "train", args.seed,
                  {"modes": args.modes, "restarts": args.restarts,
                   "hidden": args.hidden, "max_epochs": args.max_epochs,
                   "threshold": args.threshold},
                  inputs=[str(args.data)], outputs=written)


def cmd_eval(args) -> None:
    network, stored_threshold = mlp.load_model(args.model)
    threshold = stored_threshold if args.threshold is None else args.threshold
    recordings = load_dataset_dir(Path(args.data))
    dataset = train_mod.build_dataset(recordings, network.mode, n=network.window)
    outputs = mlp.forward_batch(network, dataset.features)
    report = metrics_mod.evaluate(outputs, dataset.smoking, threshold)
    attribution = metrics_mod.fp_attribution(outputs, dataset.classes, threshold)
    out = Path(args.out)
    report_path = out / f"eval_report_{network.mode.value}.json"
    metrics_mod.save_eval_report(report, attribution, report_path)
    save_manifest(out, "eval", None,
                  {"model": str(args.model), "threshold": threshold},
                  inputs=[str(args.model), str(args.data)],
                  outputs=[str(report_path)])
    print(f"accuracy {report.accuracy:.3f} -> {report_path}")


def cmd_detect(args) -> None:
    network, stored_threshold = mlp.load_model(args.model)
    threshold = stored_threshold if args.threshold is None else args.threshold
    truth = None if args.ranges is None else detect_mod.load_ranges(args.ranges)
    session = load_recording_csv(Path(args.session))
    if truth is not None and truth.ranges and truth.ranges[-1][1] > len(session):
        raise MalformedRanges(
            f"range {list(truth.ranges[-1])} ends past the session's "
            f"{len(session)} samples")
    trace = detect_mod.detect_session(network, session, stride=args.stride,
                                      threshold=threshold)
    out = Path(args.out)
    trace_path = out / "trace.csv"
    plot_path = out / "plot.csv" if args.plot else None
    detect_mod.write_trace_csv(trace, trace_path, session, plot_path)
    written = [str(trace_path)]
    inputs = [str(args.model), str(args.session)]
    if truth is not None:
        report, detected = detect_mod.score_trace(trace, truth)
        hits = sum(detected)
        doc = {
            "per_window": report.to_json_dict(),
            "per_range": {
                "detected": hits,
                "total": len(truth),
                "rate": hits / len(truth) if len(truth) else None,
                "ranges": [
                    {"start": s, "end": e, "detected": bool(d)}
                    for (s, e), d in zip(truth.ranges, detected)
                ],
            },
            "near_threshold_windows": trace.near_threshold_windows,
        }
        report_path = out / "detect_report.json"
        write_json(report_path, doc)
        written.append(str(report_path))
        inputs.append(str(args.ranges))
        print(f"detected {hits}/{len(truth)} ranges, "
              f"per-window specificity {report.specificity}")
    if plot_path is not None:
        written.append(str(plot_path))
    save_manifest(out, "detect", None,
                  {"model": str(args.model), "width": network.window,
                   "stride": args.stride, "threshold": threshold,
                   "plot": bool(args.plot)},
                  inputs=inputs, outputs=written)
    print(f"{len(trace)} windows -> {trace_path}")


def _check_options(args) -> None:
    """UsageError for an integer option below its least value or a --threshold
    outside (0, 1), for the options the command has; run before it reads a
    file or makes a directory."""
    for name, least in (("seed", 0), ("restarts", 1), ("hidden", 1),
                        ("max_epochs", 1), ("stride", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {least}")
    threshold = getattr(args, "threshold", None)
    if threshold is not None:
        try:
            metrics_mod.check_threshold(threshold, "--threshold")
        except InvalidThreshold as exc:
            raise UsageError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smokewatch",
        description="Smoking-gesture recognition pipeline: synthesize data, "
                    "train networks, evaluate, and detect over sessions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic gestures or sessions")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--corpus", choices=["table1"],
                      help="emit the standard 140/40/10 corpus layout")
    what.add_argument("--gestures", metavar="CLASS=N,...",
                      help="isolated gesture recordings per class")
    what.add_argument("--sessions", metavar="KIND=N,...",
                      help="continuous sessions per kind "
                           "(smoking/eating/drinking/chapstick)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="watch-a")
    p.add_argument("--config", help="JSON template/profile overrides")
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", help="train one network per channel mode")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--modes", default="X,Y,Z,XYZ,AVG")
    p.add_argument("--restarts", type=int, default=10,
                   help="most restarts per mode; training stops at the first "
                        "restart that classifies every training item")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=mlp.DEFAULT_HIDDEN)
    p.add_argument("--max-epochs", type=int, default=train_mod.DEFAULT_MAX_EPOCHS)
    p.add_argument("--threshold", type=float, default=metrics_mod.DEFAULT_THRESHOLD,
                   help="decision threshold stored in the model file")
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a model on a labeled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="override the model's stored threshold")
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("detect", help="rolling-window detection over a session")
    p.add_argument("--model", required=True)
    p.add_argument("--session", required=True, help="session recording CSV")
    p.add_argument("--ranges", help="ground-truth ranges JSON for scoring")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--plot", action="store_true",
                   help="also write the signal+output plot CSV")
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_detect)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_options(args)
        args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
