"""The three workloads: inputs built in set-up, then the same CLI commands in
every iteration.

table1        the README quick start end to end (synth, train all five
              modes, eval, detect over the 10 sessions).
long_session  detect --ranges --plot over one 33-minute session with an X
              and an XYZ model trained during set-up.
big_corpus    train one X restart on 3,100 gesture CSVs, so the damped solve
              takes the primal branch.

BENCHMARK.json lists table1 and long_session only. A big_corpus iteration is
one 6-9 s command, so the run length that the time limit for all runs allows
with three workloads gives it 2 to 4 samples, too few for a steady figure on
a shared host; run it by name, or with `--workload all`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from smokewatch import detect, synth
from smokewatch.signal import CONFOUNDER_CLASSES, GestureClass, SensorRecording, write_recording_csv

RATE_HZ = 50.0
PROFILE = synth.DEFAULT_PROFILES["watch-a"]


@dataclass(frozen=True)
class Size:
    restarts: int = 10              # table1: LM restarts per mode
    modes: str = "X,Y,Z,XYZ,AVG"    # table1: channel modes trained and detected
    model_restarts: int = 10        # long_session: restarts of the set-up models
    session_samples: int = 100_000  # long_session: 33.3 minutes at 50 Hz
    gestures: int = 3100            # big_corpus: 2,170 training rows > 2,021 weights
    max_epochs: int = 8             # big_corpus: fixed LM work per restart
    setups: Optional[int] = None    # set-ups per run (None: the workload's SETUPS)
    sample_windows: int = 1000      # windows per detect checked by the oracle


FULL = Size()
TINY = Size(restarts=1, modes="X", model_restarts=1, session_samples=4000,
            gestures=70, max_epochs=2, setups=1, sample_windows=200)


@dataclass
class Command:
    argv: list
    out: Path                              # the directory the command writes
    model: Optional[Path] = None           # detect only: checked by the oracle
    xyz: Optional[np.ndarray] = field(default=None, repr=False)


def class_counts(total: int) -> str:
    """`--gestures` value spreading `total` over smoking and the six confounders."""
    classes = (GestureClass.SMOKING,) + CONFOUNDER_CLASSES
    each, extra = divmod(total, len(classes))
    counts = [each + (extra if c is GestureClass.SMOKING else 0) for c in classes]
    return ",".join(f"{c.value}={n}" for c, n in zip(classes, counts))


def session_stems(sessions) -> list[tuple[str, np.ndarray]]:
    """(file stem, (n, 3) samples) per session, named as `smokewatch synth` names them."""
    counters: dict = {}
    out = []
    for kind, rec, _ in sessions:
        i = counters.get(kind, 0)
        counters[kind] = i + 1
        out.append((f"{kind.value}_session__{rec.device}__{i:03d}",
                    np.stack([rec.x, rec.y, rec.z], axis=1)))
    return out


def detect_command(model: Path, sessions: Path, stem: str, xyz: np.ndarray,
                   out: Path, plot: bool = False) -> Command:
    argv = ["detect", "--model", model, "--session", sessions / f"{stem}.csv",
            "--ranges", sessions / f"{stem}.ranges.json", "--out", out]
    return Command(argv + (["--plot"] if plot else []), out, model, xyz)


def long_session(seed: int, samples: int):
    """Seeded smoking and confounder sessions, shuffled, alternated,
    concatenated and cut to exactly `samples` samples, with their ranges
    shifted to match.

    A range cut by the end is kept, shortened, only if a full window can
    still start inside it.
    """
    kinds = {synth.SessionKind.SMOKING: 16, synth.SessionKind.EATING: 6,
             synth.SessionKind.DRINKING: 6, synth.SessionKind.CHAPSTICK: 4}
    parts = synth.generate_sessions(kinds, PROFILE, seed)
    rng = np.random.default_rng(seed)
    smoking = [p for p in parts if p[0] is synth.SessionKind.SMOKING]
    others = [p for p in parts if p[0] is not synth.SessionKind.SMOKING]
    chunks, ranges, offset = [], [], 0
    for i, j in zip(rng.permutation(len(smoking)), rng.permutation(len(others))):
        for _, rec, truth in (smoking[i], others[j]):
            chunks.append(np.stack([rec.x, rec.y, rec.z], axis=1))
            ranges += [(s + offset, e + offset) for s, e in truth.ranges]
            offset += len(rec)
    if offset < samples:
        raise ValueError(f"sessions hold {offset} samples, fewer than {samples}")
    xyz = np.concatenate(chunks)[:samples]
    last_start = samples - 200  # the CLI's default window width
    ranges = [(s, min(e, samples)) for s, e in ranges if s <= last_start]
    rec = SensorRecording(t=np.arange(samples) / RATE_HZ, x=xyz[:, 0],
                          y=xyz[:, 1], z=xyz[:, 2], device=PROFILE.name)
    return rec, detect.GestureRanges(ranges=tuple(ranges)), xyz


class Workload:
    """Set-up builds the inputs under `setup/`; each iteration reruns
    `commands()` into a fresh `run/`, whose files must not change between
    iterations. setup_s is the median of SETUPS set-ups."""

    SETUPS = 3

    def __init__(self, work: Path, seed: int, size: Size):
        self.work = work
        self.seed = seed
        self.size = size
        self.setup_dir = work / "setup"
        self.run_dir = work / "run"
        self.probe_dir = work / "probe"

    def setup(self, ops) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def probe(self) -> list[Command]:
        """Untimed commands run once, after the first iteration."""
        return []

    def reports(self) -> tuple[list[Path], list[Path], list[Path]]:
        """(train reports, eval reports, detect reports) for the quality metrics."""
        raise NotImplementedError


class Table1(Workload):
    # One set-up takes under 0.1 s; 75 of them span seconds, so that their
    # median does not rest on one moment of a shared host.
    SETUPS = 75

    def setup(self, ops) -> None:
        # the oracle's copy of the sessions that `synth --corpus table1` writes
        _, _, sessions = synth.generate_table1(PROFILE, self.seed)
        self.sessions = session_stems(sessions)

    def _modes(self) -> list[str]:
        return self.size.modes.split(",")

    def commands(self) -> list[Command]:
        corpus, models = self.run_dir / "corpus", self.run_dir / "models"
        cmds = [
            Command(["synth", "--corpus", "table1", "--seed", self.seed,
                     "--out", corpus], corpus),
            Command(["train", "--data", corpus / "train", "--modes", self.size.modes,
                     "--restarts", self.size.restarts, "--seed", self.seed,
                     "--out", models], models),
        ]
        for mode in self._modes():
            out = self.run_dir / "eval" / mode
            cmds.append(Command(["eval", "--model", models / f"model_{mode}.json",
                                 "--data", corpus / "test", "--out", out], out))
        for mode in self._modes():
            for stem, xyz in self.sessions:
                cmds.append(detect_command(
                    models / f"model_{mode}.json", corpus / "sessions", stem, xyz,
                    self.run_dir / "detect" / mode / stem))
        return cmds

    def reports(self):
        return ([self.run_dir / "models" / f"train_report_{m}.json" for m in self._modes()],
                [self.run_dir / "eval" / m / f"eval_report_{m}.json" for m in self._modes()],
                [c.out / "detect_report.json" for c in self.commands() if c.model])


class LongSession(Workload):
    MODES = ("X", "XYZ")
    # The models are trained from the README's seed, so that only the seeded
    # session varies between runs: detection quality of one trained model on
    # continuous data swings widely with its training seed.
    MODEL_SEED = 7

    def setup(self, ops) -> None:
        corpus, models = self.setup_dir / "corpus", self.setup_dir / "models"
        ops.run(["synth", "--corpus", "table1", "--seed", self.MODEL_SEED, "--out", corpus])
        ops.run(["train", "--data", corpus / "train", "--modes", ",".join(self.MODES),
                 "--restarts", self.size.model_restarts, "--seed", self.MODEL_SEED,
                 "--out", models])
        for mode in self.MODES:
            ops.run(["eval", "--model", models / f"model_{mode}.json",
                     "--data", corpus / "test", "--out", self.setup_dir / "eval" / mode])
        rec, ranges, self.xyz = long_session(self.seed, self.size.session_samples)
        write_recording_csv(rec, self.setup_dir / "long_session.csv")
        detect.save_ranges(ranges, self.setup_dir / "long_session.ranges.json")

    def commands(self) -> list[Command]:
        return [detect_command(self.setup_dir / "models" / f"model_{m}.json",
                               self.setup_dir, "long_session", self.xyz,
                               self.run_dir / m, plot=True)
                for m in self.MODES]

    def reports(self):
        return ([self.setup_dir / "models" / f"train_report_{m}.json" for m in self.MODES],
                [self.setup_dir / "eval" / m / f"eval_report_{m}.json" for m in self.MODES],
                [self.run_dir / m / "detect_report.json" for m in self.MODES])


class BigCorpus(Workload):
    HELD_OUT = 140

    def setup(self, ops) -> None:
        ops.run(["synth", "--gestures", class_counts(self.size.gestures),
                 "--seed", self.seed, "--out", self.setup_dir / "corpus"])
        ops.run(["synth", "--gestures", class_counts(self.HELD_OUT),
                 "--seed", self.seed + 1, "--out", self.setup_dir / "test"])

    def commands(self) -> list[Command]:
        out = self.run_dir / "model"
        return [Command(["train", "--data", self.setup_dir / "corpus", "--modes", "X",
                         "--restarts", 1, "--seed", self.seed,
                         "--max-epochs", self.size.max_epochs, "--out", out], out)]

    def probe(self) -> list[Command]:
        out = self.probe_dir / "eval"
        return [Command(["eval", "--model", self.run_dir / "model" / "model_X.json",
                         "--data", self.setup_dir / "test", "--out", out], out)]

    def reports(self):
        return ([self.run_dir / "model" / "train_report_X.json"],
                [self.probe_dir / "eval" / "eval_report_X.json"],
                [])


WORKLOADS = {"table1": Table1, "long_session": LongSession, "big_corpus": BigCorpus}
QUALITY = ("test_accuracy", "train_accuracy", "range_recall", "window_specificity")


def quality(train_reports, eval_reports, detect_reports) -> dict[str, float]:
    """Deterministic output quality.

    Training and held-out accuracy are the lowest across models. Range recall
    and per-window specificity are pooled over every detect run; a workload
    without detect runs scores the held-out gestures instead, each gesture
    being one window and each smoking gesture one range.
    """
    def load(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))

    trains = [load(p) for p in train_reports]
    evals = [load(p) for p in eval_reports]
    if detect_reports:
        detects = [load(p) for p in detect_reports]
        hits = sum(d["per_range"]["detected"] for d in detects)
        ranges = sum(d["per_range"]["total"] for d in detects)
        windows = [d["per_window"]["counts"] for d in detects]
    else:
        windows = [e["counts"] for e in evals]
        hits = sum(c["tp"] for c in windows)
        ranges = sum(c["tp"] + c["fn"] for c in windows)
    tn = sum(c["tn"] for c in windows)
    fp = sum(c["fp"] for c in windows)
    return {
        "train_accuracy": min(r["restarts"][r["selected_restart"]]["train_accuracy"]
                              for r in trains),
        "test_accuracy": min(e["accuracy"] for e in evals),
        "range_recall": hits / ranges,
        "window_specificity": tn / (tn + fp),
    }
