"""Generator guarantees: seed determinism, affine device transparency,
nominal durations, session ground truth, and the conserved-shape quality
gate for smoking gestures."""

import json
from dataclasses import replace

import numpy as np
import pytest

from smokewatch.signal import ChannelMode, CONFOUNDER_CLASSES, GestureClass, \
    extract_features, resample_uniform
from smokewatch.synth import (
    DEFAULT_PROFILES,
    DEFAULT_TEMPLATES,
    REST,
    DeviceProfile,
    GestureTemplate,
    Segment,
    SessionKind,
    generate_corpus,
    generate_gesture,
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
    # sigma-free profile: generate(P) == affine_P(generate(identity)) exactly
    tpl = replace(SMOKING_TPL, noise_sigma=0.0)
    shifted = DeviceProfile(name="shift", offset=(0.1, 0.0, -0.2),
                            scale=(0.9, 1.1, 1.0))
    a = generate_gesture(tpl, WATCH_A, rng=3)
    b = generate_gesture(tpl, shifted, rng=3)
    assert np.array_equal(b.x, a.x * 0.9 + 0.1)
    assert np.array_equal(b.y, a.y * 1.1)
    assert np.array_equal(b.z, a.z - 0.2)


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
    rows = [extract_features(resample_uniform(r), ChannelMode.X).values
            for r in corpus]
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
