"""Parametric synthetic gestures, corpora and continuous sessions.

Stands in for the original watch recordings, which are not available. Each
gesture is a shared-timeline sequence of segments; within a segment every
axis ramps from its previous level to the segment's target level along a
raised-cosine arc, which gives smooth wrist-like motion. Short alternating
segments produce the oscillatory gestures (coughing, scratching, brushing).

Per-gesture jitter scales the whole duration and the level deviations from
the rest pose; Gaussian noise is added per sample. A device profile applies
a per-axis affine map plus optional extra noise, emulating a second watch.
Every sample is then rounded to a 1 milli-g grid, the counts the Pebble
SDK's int16 `AccelData` reports, so a written sample has at most three
decimals.

Each generator makes its random draws one gesture at a time and in a fixed
order: per gesture the duration and amplitude uniforms, then the
template-noise and profile-noise normals; per session the gesture count,
then the idle and gesture draws interleaved. Only after the draws are the
envelopes of a whole batch computed, in one vectorized pass. A batch is
every gesture of one class in a corpus, or every gesture of one session.
The pass does per sample what the one-gesture-at-a-time code did, so its
output is bit-identical to it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .detect import GestureRanges
from .errors import MalformedConfig, MissingTemplate
from .fileio import read_json
from .signal import (
    CONFOUNDER_CLASSES,
    GestureClass,
    NOMINAL_RATE_HZ,
    SensorRecording,
)

# Wrist at rest: flat, gravity on the z axis.
REST = (0.0, 0.0, 1.0)
IDLE_NOISE_SIGMA = 0.015


def _real(what: str, value) -> float:
    """value as a float; TypeError unless it is a real number. float() alone
    would read a numeric string or a bool as one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must hold numbers, got {value!r}")
    return float(value)


def _finite_triple(what: str, values) -> tuple[float, float, float]:
    out = tuple(_real(what, v) for v in values)
    if len(out) != 3 or not all(map(math.isfinite, out)):
        raise ValueError(f"{what} must hold 3 finite values, got {list(out)}")
    return out


def _nonnegative(what: str, value) -> float:
    value = _real(what, value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{what} must be finite and >= 0, got {value}")
    return value


@dataclass(frozen=True)
class Segment:
    duration: float
    levels: tuple[float, float, float]

    def __post_init__(self):
        duration = _real("segment duration", self.duration)
        if not (math.isfinite(duration) and duration > 0.0):
            raise ValueError(f"segment duration must be finite and > 0, got {duration}")
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "levels", _finite_triple("segment levels", self.levels))


@dataclass(frozen=True, eq=False)
class GestureTemplate:
    gesture: GestureClass
    segments: tuple[Segment, ...]
    rest: tuple[float, float, float] = REST
    duration_jitter: float = 0.15
    amplitude_jitter: float = 0.10
    noise_sigma: float = 0.02
    # Constants of the envelope pass, built once: the segment durations (k,)
    # and each segment's level minus the rest pose (k, 3).
    durations: np.ndarray = field(init=False, repr=False)
    deltas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a template needs at least one segment")
        rest = _finite_triple("rest", self.rest)
        duration_jitter = _real("duration jitter", self.duration_jitter)
        if not 0.0 <= duration_jitter < 1.0:
            raise ValueError(f"duration jitter must lie in [0, 1), got {duration_jitter}")
        durations = np.array([s.duration for s in segments])
        deltas = np.array([s.levels for s in segments]) - np.asarray(rest)
        durations.flags.writeable = deltas.flags.writeable = False
        for name, value in (("segments", segments), ("rest", rest),
                            ("duration_jitter", duration_jitter),
                            ("amplitude_jitter",
                             _nonnegative("amplitude jitter", self.amplitude_jitter)),
                            ("noise_sigma", _nonnegative("noise sigma", self.noise_sigma)),
                            ("durations", durations), ("deltas", deltas)):
            object.__setattr__(self, name, value)


# Sensor counts per g of every device: samples lie on a 1 milli-g grid.
COUNTS_PER_G = 1000


@dataclass(frozen=True, eq=False)
class DeviceProfile:
    name: str
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    scale: tuple[float, float, float] = (1.0, 1.0, 1.0)
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "offset", _finite_triple("offset", self.offset))
        object.__setattr__(self, "scale", _finite_triple("scale", self.scale))
        if min(self.scale) <= 0:
            raise ValueError("scale factors must be positive")
        object.__setattr__(self, "noise_sigma", _nonnegative("noise sigma", self.noise_sigma))

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values * np.asarray(self.scale) + np.asarray(self.offset)


class _Draws(NamedTuple):
    """What one gesture or idle chunk drew: its noise and device noise are
    (n, 3), or None where the sigma is 0; idle chunks keep scales of 1."""

    n: int
    noise: Optional[np.ndarray]
    device_noise: Optional[np.ndarray]
    dur_scale: float = 1.0
    amp_scale: float = 1.0


def _normals(rng: np.random.Generator, sigma: float, n: int) -> Optional[np.ndarray]:
    return rng.normal(0.0, sigma, (n, 3)) if sigma > 0 else None


def _draw_gesture(template: GestureTemplate, profile: DeviceProfile,
                  rng: np.random.Generator) -> _Draws:
    dur_scale = 1.0
    amp_scale = 1.0
    if template.duration_jitter > 0:
        dur_scale += template.duration_jitter * rng.uniform(-1.0, 1.0)
    if template.amplitude_jitter > 0:
        amp_scale += template.amplitude_jitter * rng.uniform(-1.0, 1.0)
    # the total the envelope pass's row cumsum reaches, bit for bit: a plain
    # loop, since sum() compensates its float adds from Python 3.12 on
    total = 0.0
    for segment in template.segments:
        total += segment.duration * dur_scale
    n = max(int(round(total * NOMINAL_RATE_HZ)), 2)
    noise = _normals(rng, template.noise_sigma, n)
    return _Draws(n, noise, _normals(rng, profile.noise_sigma, n), dur_scale, amp_scale)


def _draw_idle(profile: DeviceProfile, rng: np.random.Generator) -> _Draws:
    n = max(int(round(rng.uniform(2.5, 6.0) * NOMINAL_RATE_HZ)), 1)
    noise = _normals(rng, IDLE_NOISE_SIGMA, n)
    return _Draws(n, noise, _normals(rng, profile.noise_sigma, n))


def _envelopes(template: GestureTemplate,
               draws: Sequence[_Draws]) -> tuple[np.ndarray, np.ndarray]:
    """The jittered piecewise raised-cosine envelopes of a batch of gestures
    of one template, plus their template noise, stacked -> ((N, 3) values,
    (N,) per-gesture times from 0)."""
    ns = np.array([d.n for d in draws])
    batch, k = len(draws), len(template.segments)
    rest = np.asarray(template.rest)
    durations = template.durations * np.array([d.dur_scale for d in draws])[:, None]
    bounds = np.zeros((batch, k + 1))
    np.cumsum(durations, axis=1, out=bounds[:, 1:])
    levels = rest + template.deltas * np.array([d.amp_scale for d in draws])[:, None, None]
    start_levels = np.concatenate([np.broadcast_to(rest, (batch, 1, 3)), levels[:, :-1]],
                                  axis=1)
    rises = levels - start_levels

    g = np.repeat(np.arange(batch), ns)
    t = (np.arange(g.shape[0]) - np.repeat(np.cumsum(ns) - ns, ns)) / NOMINAL_RATE_HZ
    # the segment holding t: the inner bounds <= t, which is
    # clip(searchsorted(bounds, t, side="right") - 1, 0, k - 1)
    seg = (bounds[g, 1:k] <= t[:, None]).sum(axis=1)
    u = (t - bounds[g, seg]) / durations[g, seg]
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.clip(u, 0.0, 1.0)))
    values = start_levels[g, seg] + rises[g, seg] * ramp[:, None]
    if template.noise_sigma > 0:
        values += np.concatenate([d.noise for d in draws])
    return values, t


def _on_device(profile: DeviceProfile, values: np.ndarray,
               draws: Sequence[_Draws]) -> np.ndarray:
    """Apply the profile's affine map, add its noise, then round to the
    sensor grid, on stacked chunks. The grid is round(v * COUNTS_PER_G) /
    COUNTS_PER_G, which is np.round(v, 3) bit for bit, and every result's
    repr has at most three decimals, which round(v / step) * step does not
    give."""
    values = profile.apply(values)
    if profile.noise_sigma > 0:
        values += np.concatenate([d.device_noise for d in draws])
    return np.round(values * COUNTS_PER_G) / COUNTS_PER_G


def _gesture_recordings(template: GestureTemplate, profile: DeviceProfile,
                        rngs) -> list[SensorRecording]:
    """One gesture recording per generator, drawn in turn, enveloped at once."""
    draws = [_draw_gesture(template, profile, rng) for rng in rngs]
    values, t = _envelopes(template, draws)
    x, y, z = np.ascontiguousarray(_on_device(profile, values, draws).T)
    ends = accumulate(d.n for d in draws)
    return [SensorRecording(t=t[e - d.n:e], x=x[e - d.n:e], y=y[e - d.n:e],
                            z=z[e - d.n:e], label=template.gesture, device=profile.name)
            for d, e in zip(draws, ends)]


def template_for(cls: GestureClass,
                 templates: Mapping[GestureClass, GestureTemplate]) -> GestureTemplate:
    """The template of a class; MissingTemplate names the classes that have one."""
    if cls not in templates:
        known = ", ".join(c.value for c in templates)
        raise MissingTemplate(f"gesture class {cls.value!r} has no template "
                              f"(classes with templates: {known})")
    return templates[cls]


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
    for ci, cls in enumerate(GestureClass):
        n = counts.get(cls, 0)
        if n < 0:
            raise ValueError("counts must be >= 0")
        if n:
            rngs = [np.random.default_rng([master_seed, stream, ci, i]) for i in range(n)]
            recordings += _gesture_recordings(template_for(cls, templates), profile, rngs)
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
    label = GestureClass(kind.value)
    template = template_for(label, templates)

    n_gestures = int(rng.integers(7, 11))
    draws = [_draw_idle(profile, rng)]  # idle, gesture, idle, ..., gesture, idle
    for _ in range(n_gestures):
        draws += (_draw_gesture(template, profile, rng), _draw_idle(profile, rng))
    idles, gestures = draws[0::2], draws[1::2]
    idle = np.asarray(REST) + np.concatenate([d.noise for d in idles])
    chunks = [None] * len(draws)
    chunks[0::2] = np.split(idle, list(accumulate(d.n for d in idles[:-1])))
    chunks[1::2] = np.split(_envelopes(template, gestures)[0],
                            list(accumulate(d.n for d in gestures[:-1])))
    values = _on_device(profile, np.concatenate(chunks), draws)

    ends = list(accumulate(d.n for d in draws))
    ranges = tuple(zip(ends[0::2], ends[1::2])) if kind is SessionKind.SMOKING else ()
    x, y, z = np.ascontiguousarray(values.T)
    recording = SensorRecording(t=np.arange(ends[-1]) / NOMINAL_RATE_HZ, x=x, y=y, z=z,
                                label=label, device=profile.name)
    return recording, GestureRanges(ranges=ranges)


def generate_sessions(counts: Mapping[SessionKind, int], profile: DeviceProfile,
                      master_seed: int = 0,
                      templates: Optional[Mapping[GestureClass, GestureTemplate]] = None):
    """Seeded batch of sessions; session i of a kind draws from the seed
    tuple (master_seed, session stream, kind position, i).

    Returns a list of (SessionKind, SensorRecording, GestureRanges).
    """
    out = []
    for ki, kind in enumerate(SessionKind):
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
    segments = tuple(Segment(s["duration"], s["levels"]) for s in doc["segments"])
    keys = ("rest", "duration_jitter", "amplitude_jitter", "noise_sigma")
    return GestureTemplate(cls, segments, **{k: doc[k] for k in keys if k in doc})


def _profile_from_dict(name: str, doc: dict) -> DeviceProfile:
    keys = ("offset", "scale", "noise_sigma")
    return DeviceProfile(name, **{k: doc[k] for k in keys if k in doc})


def load_synth_config(path: Union[str, Path]):
    """Merge a JSON config over the built-in templates and profiles.

    Schema: {"templates": {"<class>": {"segments": [{"duration": s,
    "levels": [x, y, z]}, ...], "rest": [x, y, z], "duration_jitter": f,
    "amplitude_jitter": f, "noise_sigma": f}}, "profiles": {"<name>":
    {"offset": [x, y, z], "scale": [x, y, z], "noise_sigma": f}}}.
    Keys are optional except a template's segments and their fields;
    omitted entries keep their defaults. Durations are finite and > 0;
    levels, rest, offset and scale hold 3 finite values each, and scale
    factors are > 0; noise sigmas are finite and >= 0; duration_jitter lies
    in [0, 1) and amplitude_jitter is finite and >= 0. Raises
    MalformedConfig for anything else.
    """
    try:
        doc = read_json(path)
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
