import os
import threading

import numpy as np
import pytest

from smokewatch import mlp
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


def malformed_session(later_bad_byte: bool = False) -> bytes:
    """A session CSV whose line 3 is malformed, followed by over 1 MiB of good
    rows: more than a pipe's buffer and more than one read. With
    later_bad_byte, a byte that is not UTF-8 sits near its end."""
    rows = [f"{k * 0.02:.2f},0.25,0.50,1.00\n" for k in range(52_000)]
    rows[1] = "0.02,0.25,x,1.00\n"
    if later_bad_byte:
        rows[-10] = "0.5,\xff,2,3\n"
    return ("t,x,y,z\n" + "".join(rows)).encode("latin-1")


def through_a_pipe(path, data: bytes, read):
    """read(path) while a thread writes data into the named pipe made at
    path. The writer must have written it all and ended by the time read
    returns or raises: a reader that stops at a fault still drains the pipe."""
    os.mkfifo(path)
    errors = []

    def write():
        try:
            path.write_bytes(data)
        except OSError as exc:
            errors.append(exc)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read(path)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive() and errors == []
