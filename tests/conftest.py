"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NATIVE_SOURCE = ROOT / "src" / "repro" / "core" / "_native.c"


def _build_native_extension() -> None:
    """Compile ``repro.core._native`` in place when the checkout has none.

    The native parity and ABI suites skip without the extension, so a fresh
    checkout would otherwise test only the fallback backends. The build is
    the same optional ``setup.py build_ext --inplace`` the stack benchmark
    runs: a missing toolchain leaves no ``.so`` and those suites skip, as
    before. ``REPRO_NO_NATIVE=1`` (the native-free CI jobs) skips it.
    """
    if os.environ.get("REPRO_NO_NATIVE") or not NATIVE_SOURCE.is_file():
        return
    built = [
        *NATIVE_SOURCE.parent.glob("_native*.so"),
        *NATIVE_SOURCE.parent.glob("_native*.pyd"),
    ]
    source_mtime = NATIVE_SOURCE.stat().st_mtime
    if any(path.stat().st_mtime >= source_mtime for path in built):
        return
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        check=False,
    )


def pytest_configure(config: pytest.Config) -> None:
    _build_native_extension()


def random_dna(length: int, rng: random.Random) -> str:
    """Uniform random DNA string."""
    return "".join(rng.choice("ACGT") for _ in range(length))


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for reproducible tests."""
    return random.Random(0xC0FFEE)
