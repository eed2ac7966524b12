"""Generator guarantees: seed determinism, affine device transparency,
samples on the 1 milli-g sensor grid, nominal durations, session ground
truth, and the conserved-shape quality gate for smoking gestures.

Batched-pass oracle: the one-gesture-at-a-time generator (`ref_envelope`,
`ref_gesture_values`, `ref_idle_values`, `ref_session`) is kept here as the
reference, and the batched corpora and sessions must equal it bit for bit.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import generate_gesture
from smokewatch.errors import MalformedConfig, MissingTemplate
from smokewatch.signal import ChannelMode, CONFOUNDER_CLASSES, GestureClass, \
    NOMINAL_RATE_HZ, SensorRecording, extract_features, resample_uniform
from smokewatch.synth import (
    COUNTS_PER_G,
    DEFAULT_PROFILES,
    DEFAULT_TEMPLATES,
    IDLE_NOISE_SIGMA,
    REST,
    SESSION_STREAM,
    TABLE1_SESSION_COUNTS,
    TABLE1_TEST_COUNTS,
    TABLE1_TRAIN_COUNTS,
    TEST_STREAM,
    TRAIN_STREAM,
    DeviceProfile,
    GestureTemplate,
    Segment,
    SessionKind,
    generate_corpus,
    generate_session,
    generate_sessions,
    generate_table1,
    load_synth_config,
    mixed_counts,
)
from smokewatch.train import build_dataset

WATCH_A = DEFAULT_PROFILES["watch-a"]
WATCH_B = DEFAULT_PROFILES["watch-b"]
SMOKING_TPL = DEFAULT_TEMPLATES[GestureClass.SMOKING]


def quiet(template: GestureTemplate) -> GestureTemplate:
    return replace(template, duration_jitter=0.0, amplitude_jitter=0.0,
                   noise_sigma=0.0)


# --- templates and profiles --------------------------------------------------

def test_all_gesture_classes_have_templates():
    for cls in GestureClass:
        if cls is GestureClass.UNKNOWN:
            continue
        assert cls in DEFAULT_TEMPLATES
        assert DEFAULT_TEMPLATES[cls].gesture is cls


def test_template_validation():
    with pytest.raises(ValueError):
        Segment(0.0, (0, 0, 1))
    with pytest.raises(ValueError):
        GestureTemplate(GestureClass.COUGH, ())
    with pytest.raises(ValueError):
        DeviceProfile(name="bad", scale=(0.0, 1.0, 1.0))


NAN = float("nan")
SEG = Segment(1.0, (0.5, 0.5, 1.0))


@pytest.mark.parametrize("make, message", [
    (lambda: Segment(NAN, (0, 0, 1)), "segment duration must be finite and > 0"),
    (lambda: Segment(float("inf"), (0, 0, 1)), "segment duration must be finite and > 0"),
    (lambda: Segment(-1.0, (0, 0, 1)), "segment duration must be finite and > 0"),
    (lambda: Segment(1.0, (0.5, 0.5)), "segment levels must hold 3 finite values"),
    (lambda: Segment(1.0, (0.5, 0.5, 1, 0)), "segment levels must hold 3 finite values"),
    (lambda: Segment(1.0, (0.5, NAN, 1)), "segment levels must hold 3 finite values"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), rest=(0, 1)),
     "rest must hold 3 finite values"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), rest=(0, 0, float("inf"))),
     "rest must hold 3 finite values"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), noise_sigma=NAN),
     "noise sigma must be finite and >= 0"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), noise_sigma=-0.1),
     "noise sigma must be finite and >= 0"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), duration_jitter=1.0),
     "duration jitter must lie in [0, 1)"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), duration_jitter=-0.1),
     "duration jitter must lie in [0, 1)"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), duration_jitter=NAN),
     "duration jitter must lie in [0, 1)"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), amplitude_jitter=NAN),
     "amplitude jitter must be finite and >= 0"),
    (lambda: GestureTemplate(GestureClass.COUGH, (SEG,), amplitude_jitter=-0.1),
     "amplitude jitter must be finite and >= 0"),
    (lambda: DeviceProfile(name="b", offset=(0, 1)), "offset must hold 3 finite values"),
    (lambda: DeviceProfile(name="b", scale=(1, NAN, 1)), "scale must hold 3 finite values"),
    (lambda: DeviceProfile(name="b", noise_sigma=float("inf")),
     "noise sigma must be finite and >= 0"),
])
def test_template_and_profile_values_are_checked(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_smoking_template_nominal_four_seconds():
    assert sum(s.duration for s in SMOKING_TPL.segments) == pytest.approx(4.0)


# --- generate_gesture --------------------------------------------------------

def test_gesture_seed_determinism():
    a = generate_gesture(SMOKING_TPL, WATCH_A, rng=5)
    b = generate_gesture(SMOKING_TPL, WATCH_A, rng=5)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.t, b.t)
    c = generate_gesture(SMOKING_TPL, WATCH_A, rng=6)
    assert not np.array_equal(a.x, c.x)


def test_gesture_without_stochastic_terms_ignores_seed():
    tpl = quiet(SMOKING_TPL)
    a = generate_gesture(tpl, WATCH_A, rng=1)
    b = generate_gesture(tpl, WATCH_A, rng=999)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.z, b.z)


def test_nominal_smoking_gesture_has_200_samples():
    rec = generate_gesture(quiet(SMOKING_TPL), WATCH_A, rng=0)
    assert len(rec) == 200


def test_gesture_starts_and_ends_at_rest():
    rec = generate_gesture(quiet(SMOKING_TPL), WATCH_A, rng=0)
    assert (rec.x[0], rec.y[0], rec.z[0]) == REST
    assert abs(rec.x[-1] - REST[0]) < 1e-9
    assert abs(rec.z[-1] - REST[2]) < 1e-9


def test_device_profile_is_affine_transparent():
    # sigma-free profile: generate(P) == affine_P(generate(identity)) up to
    # the two roundings to the 1 milli-g grid, half a step in b and half a
    # step in a, which the affine map scales
    tpl = replace(SMOKING_TPL, noise_sigma=0.0)
    shifted = DeviceProfile(name="shift", offset=(0.1, 0.0, -0.2),
                            scale=(0.9, 1.1, 1.0))
    a = generate_gesture(tpl, WATCH_A, rng=3)
    b = generate_gesture(tpl, shifted, rng=3)
    step = 1 / COUNTS_PER_G
    for got, want, scale in ((b.x, a.x * 0.9 + 0.1, 0.9), (b.y, a.y * 1.1, 1.1),
                             (b.z, a.z - 0.2, 1.0)):
        assert np.abs(got - want).max() <= (1 + scale) / 2 * step + 1e-12


def test_x_offset_example():
    tpl = quiet(SMOKING_TPL)
    base = generate_gesture(tpl, WATCH_A, rng=0)
    moved = generate_gesture(tpl, DeviceProfile(name="o", offset=(0.1, 0, 0)),
                             rng=0)
    assert np.allclose(moved.x - base.x, 0.1, atol=1e-15)
    assert np.array_equal(moved.y, base.y)


def test_gesture_labels_and_device_names():
    rec = generate_gesture(DEFAULT_TEMPLATES[GestureClass.YAWN], WATCH_B, rng=0)
    assert rec.label is GestureClass.YAWN
    assert rec.device == "watch-b"


def test_smoking_shape_is_conserved_across_seeds():
    # pairwise correlation of resampled x-channels stays high (quality gate)
    corpus = generate_corpus({GestureClass.SMOKING: 20}, WATCH_A, master_seed=3)
    rows = [extract_features(resample_uniform(r), ChannelMode.X) for r in corpus]
    corr = np.corrcoef(np.vstack(rows))
    off_diag = corr[~np.eye(20, dtype=bool)]
    assert off_diag.min() >= 0.9


# --- corpora -----------------------------------------------------------------

def test_mixed_counts_round_robin():
    counts = mixed_counts(120, 20)
    assert counts[GestureClass.SMOKING] == 20
    assert all(counts[c] == 20 for c in CONFOUNDER_CLASSES)
    counts = mixed_counts(8, 1)
    assert sum(counts[c] for c in CONFOUNDER_CLASSES) == 8
    assert max(counts[c] for c in CONFOUNDER_CLASSES) == 2
    assert min(counts[c] for c in CONFOUNDER_CLASSES) == 1


def test_corpus_table_shapes():
    corpus = generate_corpus(mixed_counts(120, 20), WATCH_A, master_seed=0)
    assert len(corpus) == 140
    assert sum(r.label is GestureClass.SMOKING for r in corpus) == 20
    held_out = generate_corpus(mixed_counts(30, 10), WATCH_A, master_seed=0)
    assert len(held_out) == 40
    assert sum(r.label is GestureClass.SMOKING for r in held_out) == 10


def test_empty_corpus():
    corpus = generate_corpus({}, WATCH_A, master_seed=0)
    assert len(corpus) == 0


def test_corpus_determinism_and_stream_independence():
    a = generate_corpus({GestureClass.SMOKING: 3}, WATCH_A, master_seed=5)
    b = generate_corpus({GestureClass.SMOKING: 3, GestureClass.COUGH: 4},
                        WATCH_A, master_seed=5)
    smoking_b = [r for r in b if r.label is GestureClass.SMOKING]
    for ra, rb in zip(a, smoking_b):
        assert np.array_equal(ra.x, rb.x)


def test_corpus_dataset_materializes_modes():
    corpus = generate_corpus({GestureClass.SMOKING: 2, GestureClass.YAWN: 2},
                             WATCH_A, master_seed=1)
    ds = build_dataset(corpus, ChannelMode.XYZ)
    assert ds.features.shape == (4, 600)
    ds_x = build_dataset(corpus, ChannelMode.X)
    assert ds_x.features.shape == (4, 200)
    assert sorted(ds.targets.tolist()) == [0.0, 0.0, 1.0, 1.0]


# --- sessions ----------------------------------------------------------------

def test_smoking_session_ground_truth():
    for seed in range(5):
        rec, ranges = generate_session(SessionKind.SMOKING, WATCH_A, rng=seed)
        assert 7 <= len(ranges) <= 10
        prev_end = 0
        for s, e in ranges.ranges:
            assert 0 <= prev_end <= s < e <= len(rec)
            prev_end = e


def test_non_smoking_sessions_have_no_ranges():
    for kind in (SessionKind.EATING, SessionKind.DRINKING, SessionKind.CHAPSTICK):
        rec, ranges = generate_session(kind, WATCH_A, rng=2)
        assert len(ranges) == 0
        assert len(rec) > 400


def test_session_determinism():
    a_rec, a_rng = generate_session(SessionKind.SMOKING, WATCH_A, rng=9)
    b_rec, b_rng = generate_session(SessionKind.SMOKING, WATCH_A, rng=9)
    assert np.array_equal(a_rec.x, b_rec.x)
    assert a_rng == b_rng


def test_session_ranges_bracket_gesture_envelopes():
    # inside a range the signal must wander from rest; idle stays near it
    rec, ranges = generate_session(SessionKind.SMOKING, WATCH_A, rng=4)
    for s, e in ranges.ranges:
        assert np.max(np.abs(rec.x[s:e])) > 0.3
    outside = np.ones(len(rec), dtype=bool)
    for s, e in ranges.ranges:
        outside[s:e] = False
    assert np.max(np.abs(rec.x[outside])) < 0.3


def test_generate_sessions_batch_counts():
    sessions = generate_sessions({SessionKind.SMOKING: 2, SessionKind.EATING: 1},
                                 WATCH_A, master_seed=0)
    kinds = [k for k, _, _ in sessions]
    assert kinds.count(SessionKind.SMOKING) == 2
    assert kinds.count(SessionKind.EATING) == 1


def test_generate_table1_shapes():
    train_c, test_c, sessions = generate_table1(WATCH_A, master_seed=1)
    assert len(train_c) == 140
    assert len(test_c) == 40
    assert len(sessions) == 10
    smoking = [k for k, _, _ in sessions if k is SessionKind.SMOKING]
    assert len(smoking) == 5


# --- config ------------------------------------------------------------------

def test_load_synth_config_merges_over_defaults(tmp_path):
    doc = {
        "templates": {
            "cough": {
                "segments": [{"duration": 1.0, "levels": [0.5, 0.0, 0.5]},
                             {"duration": 1.0, "levels": [0.0, 0.0, 1.0]}],
                "noise_sigma": 0.0,
                "duration_jitter": 0.0,
                "amplitude_jitter": 0.0,
            }
        },
        "profiles": {
            "bench": {"offset": [0.0, 0.0, 0.5], "scale": [1, 1, 1]}
        },
    }
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc))
    templates, profiles = load_synth_config(path)
    assert sum(s.duration for s in templates[GestureClass.COUGH].segments) == 2.0
    assert templates[GestureClass.SMOKING] == DEFAULT_TEMPLATES[GestureClass.SMOKING]
    assert profiles["bench"].offset == (0.0, 0.0, 0.5)
    assert "watch-a" in profiles
    rec = generate_gesture(templates[GestureClass.COUGH], profiles["bench"], rng=0)
    assert len(rec) == 100
    assert rec.z[0] == pytest.approx(1.5)


@pytest.mark.parametrize("doc", [
    {"templates": {"cough": {"segments": [{"duration": 1, "levels": [0.5, 0.5]}]}}},
    {"templates": {"cough": {"segments": [{"duration": NAN, "levels": [0.5, 0.5, 1]}]}}},
    {"templates": {"cough": {"segments": [{"duration": 1, "levels": [0.5, NAN, 1]}]}}},
    {"templates": {"cough": {"segments": [{"duration": 1, "levels": [0, 0, 1]}],
                             "rest": [0, 1]}}},
    {"profiles": {"bench": {"offset": [0, 1]}}},
    {"templates": {"cough": {"segments": [{"duration": 1, "levels": [0, 0, 1]}],
                             "noise_sigma": NAN}}},
    {"templates": {"cough": {"segments": [{"duration": 1, "levels": [0, 0, 1]}],
                             "duration_jitter": 1.5}}},
    # float() would read these as 0.8, 0.85, 1.0 and 0.0; a config holds numbers
    {"templates": {"cough": {"segments": [{"duration": "0.8", "levels": [0, 0, 1]}]}}},
    {"templates": {"cough": {"segments": [{"duration": 1, "levels": ["0.85", True, 0.3]}]}}},
    {"profiles": {"bench": {"scale": [True, 1, 1]}}},
    {"profiles": {"bench": {"noise_sigma": False}}},
    {"templates": {"cough": {"segments": [{"duration": 1, "levels": [0, 0, 1]}],
                             "duration_jitter": "0.1"}}},
], ids=["levels-2", "duration-nan", "level-nan", "rest-2", "offset-2", "sigma-nan",
        "jitter-1.5", "duration-str", "levels-str-bool", "scale-bool", "sigma-bool",
        "jitter-str"])
def test_load_synth_config_rejects_bad_values(tmp_path, doc):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc))  # json writes NaN, as Python reads it
    with pytest.raises(MalformedConfig):
        load_synth_config(path)


def test_class_without_template_is_named():
    with pytest.raises(MissingTemplate, match="'unknown' has no template"):
        generate_corpus({GestureClass.UNKNOWN: 1}, WATCH_A)
    assert generate_corpus({GestureClass.UNKNOWN: 0}, WATCH_A) == ()
    with pytest.raises(MissingTemplate, match="'smoking' has no template"):
        generate_session(SessionKind.SMOKING, WATCH_A, rng=0, templates={})


# --- batched pass against the one-gesture-at-a-time reference -----------------
# The reference is the generator as it was before envelopes were computed per
# batch: every gesture draws, envelopes and applies its device by itself,
# then rounds to the 1 milli-g grid.

def ref_envelope(template, dur_scale, amp_scale):
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


def ref_gesture_values(template, profile, rng):
    dur_scale = 1.0
    amp_scale = 1.0
    if template.duration_jitter > 0:
        dur_scale += template.duration_jitter * rng.uniform(-1.0, 1.0)
    if template.amplitude_jitter > 0:
        amp_scale += template.amplitude_jitter * rng.uniform(-1.0, 1.0)
    values = ref_envelope(template, dur_scale, amp_scale)
    if template.noise_sigma > 0:
        values = values + rng.normal(0.0, template.noise_sigma, values.shape)
    values = profile.apply(values)
    if profile.noise_sigma > 0:
        values = values + rng.normal(0.0, profile.noise_sigma, values.shape)
    return np.round(values, 3)  # the 1 milli-g grid


def ref_idle_values(duration, profile, rng):
    n = max(int(round(duration * NOMINAL_RATE_HZ)), 1)
    values = np.tile(np.asarray(REST), (n, 1))
    values = values + rng.normal(0.0, IDLE_NOISE_SIGMA, values.shape)
    values = profile.apply(values)
    if profile.noise_sigma > 0:
        values = values + rng.normal(0.0, profile.noise_sigma, values.shape)
    return np.round(values, 3)  # the 1 milli-g grid


def ref_recording(values, label, device):
    return SensorRecording(t=np.arange(values.shape[0]) / NOMINAL_RATE_HZ,
                           x=values[:, 0], y=values[:, 1], z=values[:, 2],
                           label=label, device=device)


def ref_gesture(template, profile, rng):
    return ref_recording(ref_gesture_values(template, profile, rng),
                         template.gesture, profile.name)


def ref_corpus(counts, profile, master_seed, stream, templates=DEFAULT_TEMPLATES):
    return [ref_gesture(templates[cls], profile,
                        np.random.default_rng([master_seed, stream, ci, i]))
            for ci, cls in enumerate(GestureClass) for i in range(counts.get(cls, 0))]


SESSION_CLASS = {SessionKind.SMOKING: GestureClass.SMOKING,
                 SessionKind.EATING: GestureClass.EATING,
                 SessionKind.DRINKING: GestureClass.DRINKING,
                 SessionKind.CHAPSTICK: GestureClass.CHAPSTICK}


def ref_session(kind, profile, rng, templates=DEFAULT_TEMPLATES):
    template = templates[SESSION_CLASS[kind]]
    n_gestures = int(rng.integers(7, 11))
    chunks = [ref_idle_values(rng.uniform(2.5, 6.0), profile, rng)]
    cursor = chunks[0].shape[0]
    ranges = []
    for _ in range(n_gestures):
        g = ref_gesture_values(template, profile, rng)
        if kind is SessionKind.SMOKING:
            ranges.append((cursor, cursor + g.shape[0]))
        chunks.append(g)
        cursor += g.shape[0]
        idle = ref_idle_values(rng.uniform(2.5, 6.0), profile, rng)
        chunks.append(idle)
        cursor += idle.shape[0]
    values = np.concatenate(chunks, axis=0)
    return ref_recording(values, SESSION_CLASS[kind], profile.name), tuple(ranges)


def assert_same_recording(got, want):
    for name in ("t", "x", "y", "z"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.label is want.label
    assert got.device == want.device


def assert_same_session(got, want):
    (rec, ranges), (want_rec, want_ranges) = got, want
    assert_same_recording(rec, want_rec)
    assert ranges.ranges == want_ranges


@pytest.mark.parametrize("profile", ["watch-a", "watch-b"])
def test_table1_equals_the_per_gesture_reference(profile):
    profile = DEFAULT_PROFILES[profile]
    for seed in range(10):
        train_c, test_c, sessions = generate_table1(profile, master_seed=seed)
        for got, want in zip(train_c, ref_corpus(TABLE1_TRAIN_COUNTS, profile, seed,
                                                  TRAIN_STREAM), strict=True):
            assert_same_recording(got, want)
        for got, want in zip(test_c, ref_corpus(TABLE1_TEST_COUNTS, profile, seed,
                                                 TEST_STREAM), strict=True):
            assert_same_recording(got, want)
        want_sessions = [
            (kind, ref_session(kind, profile,
                               np.random.default_rng([seed, SESSION_STREAM, ki, i])))
            for ki, kind in enumerate(SessionKind)
            for i in range(TABLE1_SESSION_COUNTS.get(kind, 0))]
        assert [k for k, _, _ in sessions] == [k for k, _ in want_sessions]
        for (_, rec, ranges), (_, want) in zip(sessions, want_sessions):
            assert_same_session((rec, ranges), want)


@pytest.mark.parametrize("cls", list(DEFAULT_TEMPLATES), ids=lambda c: c.value)
def test_generate_gesture_equals_the_reference(cls):
    for template in (DEFAULT_TEMPLATES[cls], quiet(DEFAULT_TEMPLATES[cls])):
        for profile in (WATCH_A, WATCH_B):
            for seed in range(3):
                assert_same_recording(generate_gesture(template, profile, rng=seed),
                                      ref_gesture(template, profile,
                                                  np.random.default_rng(seed)))


def random_template(rng):
    """1-9 segments of 0.05-2 s; half the templates put every duration on the
    50 Hz grid, so samples fall exactly on segment bounds; half are quiet."""
    k = int(rng.integers(1, 10))
    durations = rng.uniform(0.05, 2.0, k)
    if rng.random() < 0.5:
        durations = np.maximum(np.round(durations * NOMINAL_RATE_HZ), 3) / NOMINAL_RATE_HZ
    segments = tuple(Segment(d, tuple(rng.uniform(-1.5, 1.5, 3))) for d in durations)
    jitter = rng.random() < 0.5
    noisy = rng.random() < 0.5
    return GestureTemplate(
        GestureClass.SMOKING, segments, rest=tuple(rng.uniform(-1.0, 1.0, 3)),
        duration_jitter=float(rng.uniform(0.0, 0.9)) if jitter else 0.0,
        amplitude_jitter=float(rng.uniform(0.0, 0.5)) if jitter else 0.0,
        noise_sigma=float(rng.uniform(0.0, 0.05)) if noisy else 0.0)


def test_random_templates_equal_the_reference():
    rng = np.random.default_rng(2024)
    noisy_profile = DeviceProfile(name="n", offset=(0.1, -0.2, 0.05),
                                  scale=(0.9, 1.2, 1.05), noise_sigma=0.01)
    for case in range(50):
        template = random_template(rng)
        templates = {GestureClass.SMOKING: template}
        for profile in (WATCH_A, noisy_profile):
            assert_same_recording(generate_gesture(template, profile, rng=case),
                                  ref_gesture(template, profile,
                                              np.random.default_rng(case)))
            counts = {GestureClass.SMOKING: 4}
            for got, want in zip(
                    generate_corpus(counts, profile, case, templates),
                    ref_corpus(counts, profile, case, TRAIN_STREAM, templates), strict=True):
                assert_same_recording(got, want)
            assert_same_session(
                generate_session(SessionKind.SMOKING, profile, case, templates),
                ref_session(SessionKind.SMOKING, profile, np.random.default_rng(case),
                            templates))
