import os

import numpy as np
import pytest

from smokewatch import fileio, mlp
from smokewatch.signal import ChannelMode, GestureClass, SensorRecording


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_recording(values: np.ndarray, rate: float = 50.0,
                   label: GestureClass = GestureClass.UNKNOWN,
                   device: str = "test") -> SensorRecording:
    """Recording from an (n, 3) value array on a uniform time base."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    return SensorRecording(t=np.arange(n) / rate, x=values[:, 0],
                           y=values[:, 1], z=values[:, 2],
                           label=label, device=device)


def tiny_network(input_size: int, hidden_size: int, seed: int,
                 mode: ChannelMode = ChannelMode.X) -> mlp.Network:
    return mlp.init_network(input_size, hidden_size, rng=seed, mode=mode)


def split_into(monkeypatch, parts: int) -> None:
    """Make every CSV write run in `parts` parts, or one per block when it
    has fewer: a part may hold a single row, and the process sees `parts`
    CPUs."""
    monkeypatch.setattr(fileio, "PART_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
