"""Operation counting, output-tree identity and the tail-percentile rule."""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


class Ops:
    """Runs smokewatch CLI commands in-process and counts their failures.

    An operation is one `cli.main` call. It fails on a non-zero exit code, an
    exception, or a failed output check; each operation counts at most once.
    `cli.main` is looked up on every call so that traced runs see the wrapper.
    """

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []

    def run(self, argv: list) -> int:
        op = self.attempted
        self.attempted += 1
        argv = [str(a) for a in argv]
        err = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            self.fail(op, f"{' '.join(argv[:1])} raised {type(exc).__name__}: {exc}")
        else:
            if code != 0:
                self.fail(op, f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return op

    def fail(self, op: int, reason: str) -> None:
        self.failed.add(op)
        self.errors.append(f"op {op}: {reason}")

    @property
    def fail_ratio(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 0.0


def tree_digest(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by its path relative to root."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_differences(reference: dict[str, str], digest: dict[str, str]) -> list[str]:
    """Relative paths that are missing, extra or changed against the reference."""
    return sorted(k for k in reference.keys() | digest.keys()
                  if reference.get(k) != digest.get(k))


def tail(samples: list[float], beyond: int = 10) -> tuple[float, float, bool]:
    """The highest percentile that still has `beyond` samples above it.

    With n samples sorted ascending, that is the (n - beyond)-th smallest, at
    percentile 100 * (n - beyond) / n (nearest rank). Returns (value,
    percentile, rule_met). With n <= beyond no percentile qualifies, and the
    slowest sample is returned as percentile 100 with rule_met False.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, False
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, True
