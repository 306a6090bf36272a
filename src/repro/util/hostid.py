"""Normalized machine identity for perf artifacts.

Benchmark baselines (``BENCH_*.json``) record wall-clock measurements
that are only meaningful on the machine that produced them.  Each one
stamps :func:`machine_identity` into its provenance, and
``scripts/bench_gate.py`` compares the stamp against the current machine
and refuses cross-machine comparisons.

Lives in ``repro.util`` so both the installed package and the repo
scripts share one definition (``scripts/bench_smoke.py`` re-exports it
for its historical importers).
"""

from __future__ import annotations

import os
import platform
import re

__all__ = ["machine_identity"]


def machine_identity() -> str:
    """A normalized id for *this* machine, stable across runs on it.

    ``system-arch-cpumodel-Nc`` (lowercased, punctuation collapsed to
    ``-``).  Benchmark medians are only comparable between runs that share
    this id — ``bench_gate`` refuses cross-machine comparisons by default.
    """
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = None
    cpu = cpu or platform.processor() or "unknown-cpu"
    cpu = re.sub(r"[^a-z0-9]+", "-", cpu.lower()).strip("-")
    return (
        f"{platform.system().lower()}-{platform.machine().lower()}"
        f"-{cpu}-{os.cpu_count()}c"
    )
