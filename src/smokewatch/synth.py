"""Parametric synthetic gestures, corpora and continuous sessions.

Stands in for the original watch recordings, which are not available. Each
gesture is a shared-timeline sequence of segments; within a segment every
axis ramps from its previous level to the segment's target level along a
raised-cosine arc, which gives smooth wrist-like motion. Short alternating
segments produce the oscillatory gestures (coughing, scratching, brushing).

Per-gesture jitter scales the whole duration and the level deviations from
the rest pose; Gaussian noise is added per sample. A device profile applies
a per-axis affine map plus optional extra noise, emulating a second watch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from .detect import GestureRanges
from .errors import MalformedConfig
from .signal import (
    CONFOUNDER_CLASSES,
    GestureClass,
    NOMINAL_RATE_HZ,
    SensorRecording,
)

# Wrist at rest: flat, gravity on the z axis.
REST = (0.0, 0.0, 1.0)
IDLE_NOISE_SIGMA = 0.015


@dataclass(frozen=True)
class Segment:
    duration: float
    levels: tuple[float, float, float]

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))


@dataclass(frozen=True, eq=False)
class GestureTemplate:
    gesture: GestureClass
    segments: tuple[Segment, ...]
    rest: tuple[float, float, float] = REST
    duration_jitter: float = 0.15
    amplitude_jitter: float = 0.10
    noise_sigma: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "rest", tuple(float(v) for v in self.rest))
        if not self.segments:
            raise ValueError("a template needs at least one segment")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")


@dataclass(frozen=True, eq=False)
class DeviceProfile:
    name: str
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    scale: tuple[float, float, float] = (1.0, 1.0, 1.0)
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "offset", tuple(float(v) for v in self.offset))
        object.__setattr__(self, "scale", tuple(float(v) for v in self.scale))
        if min(self.scale) <= 0:
            raise ValueError("scale factors must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values * np.asarray(self.scale) + np.asarray(self.offset)


def _envelope(template: GestureTemplate, dur_scale: float,
              amp_scale: float) -> np.ndarray:
    """Sample the jittered piecewise raised-cosine envelope -> (n, 3)."""
    rest = np.asarray(template.rest)
    durations = np.array([s.duration for s in template.segments]) * dur_scale
    levels = rest + (np.array([s.levels for s in template.segments]) - rest) * amp_scale
    bounds = np.concatenate([[0.0], np.cumsum(durations)])
    n = max(int(round(bounds[-1] * NOMINAL_RATE_HZ)), 2)
    t = np.arange(n) / NOMINAL_RATE_HZ
    seg = np.clip(np.searchsorted(bounds, t, side="right") - 1, 0, len(durations) - 1)
    u = (t - bounds[seg]) / durations[seg]
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.clip(u, 0.0, 1.0)))
    start_levels = np.vstack([rest, levels[:-1]])
    return start_levels[seg] + (levels[seg] - start_levels[seg]) * ramp[:, None]


def _gesture_values(template: GestureTemplate, profile: DeviceProfile,
                    rng: np.random.Generator) -> np.ndarray:
    dur_scale = 1.0
    amp_scale = 1.0
    if template.duration_jitter > 0:
        dur_scale += template.duration_jitter * rng.uniform(-1.0, 1.0)
    if template.amplitude_jitter > 0:
        amp_scale += template.amplitude_jitter * rng.uniform(-1.0, 1.0)
    values = _envelope(template, dur_scale, amp_scale)
    if template.noise_sigma > 0:
        values = values + rng.normal(0.0, template.noise_sigma, values.shape)
    values = profile.apply(values)
    if profile.noise_sigma > 0:
        values = values + rng.normal(0.0, profile.noise_sigma, values.shape)
    return values


def _idle_values(duration: float, profile: DeviceProfile,
                 rng: np.random.Generator) -> np.ndarray:
    n = max(int(round(duration * NOMINAL_RATE_HZ)), 1)
    values = np.tile(np.asarray(REST), (n, 1))
    values = values + rng.normal(0.0, IDLE_NOISE_SIGMA, values.shape)
    values = profile.apply(values)
    if profile.noise_sigma > 0:
        values = values + rng.normal(0.0, profile.noise_sigma, values.shape)
    return values


def generate_gesture(template: GestureTemplate, profile: DeviceProfile,
                     rng: Union[np.random.Generator, int, None] = None) -> SensorRecording:
    """One isolated gesture recording at the nominal 50 Hz."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    values = _gesture_values(template, profile, rng)
    n = values.shape[0]
    return SensorRecording(t=np.arange(n) / NOMINAL_RATE_HZ, x=values[:, 0],
                           y=values[:, 1], z=values[:, 2],
                           label=template.gesture, device=profile.name)


def _seg(duration, x, y, z):
    return Segment(duration, (x, y, z))


# Shapes tuned by eye against real hand-to-mouth motion: smoking is one long
# raise/hold/lower arc on x; the confounders share the raise and lower arcs
# but differ in hold length, peak height and oscillation, with coughing and
# nose scratching deliberately the closest to smoking.
DEFAULT_TEMPLATES: dict[GestureClass, GestureTemplate] = {
    GestureClass.SMOKING: GestureTemplate(GestureClass.SMOKING, (
        _seg(0.8, 0.85, 0.35, 0.30),
        _seg(0.2, 0.80, 0.30, 0.35),
        _seg(1.5, 0.80, 0.30, 0.35),
        _seg(0.8, *REST),
        _seg(0.7, *REST),
    )),
    GestureClass.DRINKING: GestureTemplate(GestureClass.DRINKING, (
        _seg(0.9, 0.50, -0.35, 0.60),
        _seg(0.5, 0.95, -0.55, 0.10),
        _seg(0.6, 0.95, -0.55, 0.10),
        _seg(0.4, 0.50, -0.35, 0.60),
        _seg(0.8, *REST),
        _seg(0.5, *REST),
    )),
    GestureClass.NOSE_SCRATCH: GestureTemplate(GestureClass.NOSE_SCRATCH, (
        _seg(0.6, 0.75, 0.25, 0.40),
        _seg(0.2, 0.85, 0.30, 0.35),
        _seg(0.2, 0.62, 0.22, 0.45),
        _seg(0.2, 0.85, 0.30, 0.35),
        _seg(0.2, 0.62, 0.22, 0.45),
        _seg(0.7, *REST),
        _seg(0.7, *REST),
    )),
    GestureClass.YAWN: GestureTemplate(GestureClass.YAWN, (
        _seg(1.0, 0.55, 0.15, 0.55),
        _seg(1.6, 0.58, 0.18, 0.52),
        _seg(1.0, *REST),
        _seg(0.6, *REST),
    )),
    GestureClass.COUGH: GestureTemplate(GestureClass.COUGH, (
        _seg(0.4, 0.72, 0.28, 0.40),
        _seg(0.12, 0.88, 0.35, 0.30),
        _seg(0.12, 0.58, 0.20, 0.50),
        _seg(0.12, 0.88, 0.35, 0.30),
        _seg(0.12, 0.58, 0.20, 0.50),
        _seg(0.12, 0.88, 0.35, 0.30),
        _seg(0.5, *REST),
        _seg(0.5, *REST),
    )),
    GestureClass.HAIR_BRUSH: GestureTemplate(GestureClass.HAIR_BRUSH, (
        _seg(0.6, 0.45, 0.65, 0.30),
        _seg(0.35, 0.50, 0.85, 0.25),
        _seg(0.35, 0.40, 0.50, 0.40),
        _seg(0.35, 0.50, 0.85, 0.25),
        _seg(0.35, 0.40, 0.50, 0.40),
        _seg(0.6, *REST),
        _seg(0.6, *REST),
    )),
    GestureClass.STOMACH_RUB: GestureTemplate(GestureClass.STOMACH_RUB, (
        _seg(0.5, 0.18, 0.30, 0.85),
        _seg(0.45, 0.28, 0.15, 0.80),
        _seg(0.45, 0.08, 0.40, 0.92),
        _seg(0.45, 0.28, 0.15, 0.80),
        _seg(0.45, 0.08, 0.40, 0.92),
        _seg(0.45, 0.28, 0.15, 0.80),
        _seg(0.55, *REST),
        _seg(0.45, *REST),
    )),
    GestureClass.EATING: GestureTemplate(GestureClass.EATING, (
        _seg(0.5, 0.60, 0.22, 0.50),
        _seg(0.3, 0.60, 0.22, 0.50),
        _seg(0.5, 0.12, 0.05, 0.94),
        _seg(0.4, 0.12, 0.05, 0.94),
        _seg(0.5, 0.60, 0.22, 0.50),
        _seg(0.3, 0.60, 0.22, 0.50),
        _seg(0.6, *REST),
        _seg(0.7, *REST),
    )),
    GestureClass.CHAPSTICK: GestureTemplate(GestureClass.CHAPSTICK, (
        _seg(0.6, 0.68, 0.18, 0.42),
        _seg(0.18, 0.70, 0.34, 0.40),
        _seg(0.18, 0.66, 0.04, 0.44),
        _seg(0.18, 0.70, 0.34, 0.40),
        _seg(0.18, 0.66, 0.04, 0.44),
        _seg(0.6, *REST),
        _seg(0.5, *REST),
    )),
}

# "watch-a" is the training device; "watch-b" shifts offsets and gains and
# adds ~20% extra noise on top of the nominal template sigma.
DEFAULT_PROFILES: dict[str, DeviceProfile] = {
    "watch-a": DeviceProfile(name="watch-a"),
    "watch-b": DeviceProfile(name="watch-b", offset=(0.05, 0.05, 0.05),
                             scale=(0.95, 1.0, 1.05), noise_sigma=0.004),
}


def mixed_counts(n_nonsmoking: int, n_smoking: int) -> dict[GestureClass, int]:
    """Distribute a non-smoking total round-robin over the six confounders."""
    if n_nonsmoking < 0 or n_smoking < 0:
        raise ValueError("counts must be >= 0")
    counts = {GestureClass.SMOKING: n_smoking}
    base, extra = divmod(n_nonsmoking, len(CONFOUNDER_CLASSES))
    for i, cls in enumerate(CONFOUNDER_CLASSES):
        counts[cls] = base + (1 if i < extra else 0)
    return counts


_CLASS_ORDER = list(GestureClass)

# Seed-stream tags keep the train corpus, test corpus and session draws
# statistically independent under one master seed.
TRAIN_STREAM = 0
TEST_STREAM = 1
SESSION_STREAM = 7


def generate_corpus(counts: Mapping[GestureClass, int],
                    profile: DeviceProfile = DEFAULT_PROFILES["watch-a"],
                    master_seed: int = 0,
                    templates: Optional[Mapping[GestureClass, GestureTemplate]] = None,
                    stream: int = TRAIN_STREAM) -> tuple[SensorRecording, ...]:
    """Seeded corpus of isolated gestures, in class order.

    Recording i of class c is generated from the seed tuple
    (master_seed, stream, class position, i), so per-class streams do not
    depend on the other requested counts.
    """
    templates = DEFAULT_TEMPLATES if templates is None else templates
    recordings = []
    for ci, cls in enumerate(_CLASS_ORDER):
        n = counts.get(cls, 0)
        if n < 0:
            raise ValueError("counts must be >= 0")
        for i in range(n):
            rng = np.random.default_rng([master_seed, stream, ci, i])
            recordings.append(generate_gesture(templates[cls], profile, rng))
    return tuple(recordings)


class SessionKind(Enum):
    SMOKING = "smoking"
    EATING = "eating"
    DRINKING = "drinking"
    CHAPSTICK = "chapstick"

    @classmethod
    def parse(cls, name: str) -> "SessionKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown session kind {name!r}") from None


_SESSION_GESTURE = {
    SessionKind.SMOKING: GestureClass.SMOKING,
    SessionKind.EATING: GestureClass.EATING,
    SessionKind.DRINKING: GestureClass.DRINKING,
    SessionKind.CHAPSTICK: GestureClass.CHAPSTICK,
}


def generate_session(kind: SessionKind, profile: DeviceProfile,
                     rng: Union[np.random.Generator, int, None] = None,
                     templates: Optional[Mapping[GestureClass, GestureTemplate]] = None):
    """A continuous session: gestures interleaved with idle wrist time.

    Smoking sessions hold 7 to 10 puffs and return the exact sample-index
    range of each; non-smoking sessions return empty ranges.

    Returns (SensorRecording, GestureRanges).
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    templates = DEFAULT_TEMPLATES if templates is None else templates
    template = templates[_SESSION_GESTURE[kind]]

    n_gestures = int(rng.integers(7, 11))
    chunks = [_idle_values(rng.uniform(2.5, 6.0), profile, rng)]
    cursor = chunks[0].shape[0]
    ranges = []
    for _ in range(n_gestures):
        g = _gesture_values(template, profile, rng)
        if kind is SessionKind.SMOKING:
            ranges.append((cursor, cursor + g.shape[0]))
        chunks.append(g)
        cursor += g.shape[0]
        idle = _idle_values(rng.uniform(2.5, 6.0), profile, rng)
        chunks.append(idle)
        cursor += idle.shape[0]

    values = np.concatenate(chunks, axis=0)
    n = values.shape[0]
    recording = SensorRecording(
        t=np.arange(n) / NOMINAL_RATE_HZ, x=values[:, 0], y=values[:, 1], z=values[:, 2],
        label=_SESSION_GESTURE[kind], device=profile.name)
    return recording, GestureRanges(ranges=tuple(ranges))


_KIND_ORDER = list(SessionKind)


def generate_sessions(counts: Mapping[SessionKind, int], profile: DeviceProfile,
                      master_seed: int = 0,
                      templates: Optional[Mapping[GestureClass, GestureTemplate]] = None):
    """Seeded batch of sessions; session i of a kind draws from the seed
    tuple (master_seed, session stream, kind position, i).

    Returns a list of (SessionKind, SensorRecording, GestureRanges).
    """
    out = []
    for ki, kind in enumerate(_KIND_ORDER):
        n = counts.get(kind, 0)
        if n < 0:
            raise ValueError("counts must be >= 0")
        for i in range(n):
            rng = np.random.default_rng([master_seed, SESSION_STREAM, ki, i])
            recording, ranges = generate_session(kind, profile, rng, templates)
            out.append((kind, recording, ranges))
    return out


# The corpus shape used throughout: 120/20 train, 30/10 test, 5 smoking
# sessions plus 5 non-smoking ones.
TABLE1_TRAIN_COUNTS = mixed_counts(120, 20)
TABLE1_TEST_COUNTS = mixed_counts(30, 10)
TABLE1_SESSION_COUNTS = {
    SessionKind.SMOKING: 5,
    SessionKind.EATING: 2,
    SessionKind.DRINKING: 2,
    SessionKind.CHAPSTICK: 1,
}


def generate_table1(profile: DeviceProfile = DEFAULT_PROFILES["watch-a"],
                    master_seed: int = 0,
                    templates: Optional[Mapping[GestureClass, GestureTemplate]] = None):
    """The full standard corpus: (train recordings, test recordings, sessions list)."""
    train = generate_corpus(TABLE1_TRAIN_COUNTS, profile, master_seed,
                            templates, stream=TRAIN_STREAM)
    test = generate_corpus(TABLE1_TEST_COUNTS, profile, master_seed,
                           templates, stream=TEST_STREAM)
    sessions = generate_sessions(TABLE1_SESSION_COUNTS, profile, master_seed,
                                 templates)
    return train, test, sessions


def _template_from_dict(cls: GestureClass, doc: dict) -> GestureTemplate:
    segments = tuple(Segment(float(s["duration"]), tuple(s["levels"]))
                     for s in doc["segments"])
    return GestureTemplate(
        gesture=cls,
        segments=segments,
        rest=tuple(doc.get("rest", REST)),
        duration_jitter=float(doc.get("duration_jitter", 0.15)),
        amplitude_jitter=float(doc.get("amplitude_jitter", 0.10)),
        noise_sigma=float(doc.get("noise_sigma", 0.02)),
    )


def _profile_from_dict(name: str, doc: dict) -> DeviceProfile:
    return DeviceProfile(
        name=name,
        offset=tuple(doc.get("offset", (0.0, 0.0, 0.0))),
        scale=tuple(doc.get("scale", (1.0, 1.0, 1.0))),
        noise_sigma=float(doc.get("noise_sigma", 0.0)),
    )


def load_synth_config(path: Union[str, Path]):
    """Merge a JSON config over the built-in templates and profiles.

    Schema: {"templates": {"<class>": {"segments": [{"duration": s,
    "levels": [x, y, z]}, ...], "rest": [x, y, z], "duration_jitter": f,
    "amplitude_jitter": f, "noise_sigma": f}}, "profiles": {"<name>":
    {"offset": [x, y, z], "scale": [x, y, z], "noise_sigma": f}}}.
    Keys are optional except a template's segments and their fields;
    omitted entries keep their defaults. Raises MalformedConfig for anything
    else.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        templates = dict(DEFAULT_TEMPLATES)
        for name, tdoc in doc.get("templates", {}).items():
            cls = GestureClass.parse(name)
            templates[cls] = _template_from_dict(cls, tdoc)
        profiles = dict(DEFAULT_PROFILES)
        for name, pdoc in doc.get("profiles", {}).items():
            profiles[name] = _profile_from_dict(name, pdoc)
    except KeyError as exc:
        raise MalformedConfig(f"synth config lacks key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise MalformedConfig(f"malformed synth config: {exc}") from None
    return templates, profiles
