"""Shared pieces of the benchmark: paths, statistics, host speed,
fingerprint, processes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs from (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run-time outputs (surface stores, span logs, records); ignored by git.
RUN_DIR = ROOT / ".perfbench-run"


def require_source_tree() -> None:
    """Exit with code 2 when the checkout has no ``src/repro`` to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no source tree at {SRC / 'repro'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for subprocesses that import ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile that leaves at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return None


#: Summaries of at most this many samples also list the samples.
MAX_LISTED_SAMPLES = 32


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the reportable tail percentile and the sample count."""
    data = np.asarray(values, dtype=float)
    summary: Dict[str, object] = {"n": int(data.size)}
    if data.size == 0:
        return summary
    if data.size <= MAX_LISTED_SAMPLES:
        summary["samples"] = data.tolist()
    summary["median"] = float(np.median(data))
    pct = tail_percentile(data.size)
    if pct is not None:
        summary[f"p{pct:g}"] = float(np.percentile(data, pct))
    return summary


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Seconds :func:`reference_s` takes on the reference host, a 2-vCPU
#: x86-64 virtual machine with Python 3.11 and NumPy 2.4.  Timed steps
#: are reported at that host's speed (see :class:`HostClock`).
REFERENCE_S = 0.060


def reference_s() -> float:
    """Wall time of a fixed kernel that stands for the host's current speed.

    On a shared host the speed of memory-heavy NumPy code, interpreter
    start and Python-level work changes by up to 2x in phases lasting
    minutes, longer than any run.  This kernel does a little of each of
    those (random draws, a cumsum and a searchsorted over arrays larger
    than the caches; building and sorting small objects; dict and JSON
    work) and calls no code of the program under test, so a change to the
    program never moves it.
    """
    rng = np.random.default_rng(20100613)
    start = time.perf_counter()
    positions = np.cumsum(rng.exponential(20.0, 1_000_000))
    np.searchsorted(positions, np.linspace(0.0, positions[-1], 100_000))
    cells = [{"name": f"u{index}", "width": float(index % 97), "pins": [index, index + 1]}
             for index in range(15_000)]
    cells.sort(key=lambda cell: cell["width"])
    table: Dict[int, int] = {}
    for index in range(20_000):
        table[index % 997] = table.get(index % 997, 0) + index
    json.loads(json.dumps(positions[:4096].tolist()))
    return time.perf_counter() - start


class HostClock:
    """Times a run's steps and samples the host's speed between them.

    Every :meth:`timed` step is preceded by one run of the reference
    kernel.  :meth:`scale` converts the run's wall times to the reference
    host's speed: ``REFERENCE_S`` over the median kernel time of the whole
    run.  One kernel run jitters by tens of percent, so a single factor per
    run, from all of them, is steadier than scaling each step by its own.
    """

    def __init__(self) -> None:
        self.references: List[float] = []

    def sample(self) -> None:
        """Run the reference kernel once and keep its time."""
        self.references.append(reference_s())

    def timed(self, fn: Callable, *args, **kwargs):
        """``(wall seconds, result)`` of one call, after one kernel sample."""
        self.sample()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return time.perf_counter() - start, result

    def scale(self) -> float:
        """Factor that converts this run's wall times to the reference host."""
        return REFERENCE_S / median(self.references)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its reaped children).

    A child's figure includes the peak its parent had when it was
    spawned; for programs the benchmark runs use :func:`vm_hwm_mb`.
    """
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    """Commit of the checkout read from ``.git`` directly, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _source_digest() -> str:
    """SHA-256 over every file of ``src/repro`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> Dict[str, object]:
    """Everything needed to say where and on what a record was measured."""
    import scipy

    blas = {
        name: os.environ.get(name, "unset")
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_threads": blas,
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


#: Seconds between samples of a child's peak resident set.
POLL_S = 0.005


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process's program (VmHWM), 0 once gone.

    Unlike ``RUSAGE_CHILDREN``, whose peak a spawned child inherits from
    the parent that spawned it, this counts only the memory the child's
    own program touched.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_timed(argv: List[str], timeout: float
              ) -> Tuple[float, subprocess.CompletedProcess, float]:
    """Run ``argv`` to completion: (wall seconds, completed process, peak MB).

    The child's output goes to files under ``RUN_DIR`` while its peak
    resident set is sampled every ``POLL_S`` seconds.
    """
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=RUN_DIR) as out, \
            tempfile.TemporaryFile(dir=RUN_DIR) as err:
        start = time.perf_counter()
        process = subprocess.Popen(argv, env=child_env(), cwd=str(ROOT),
                                   stdout=out, stderr=err)
        peak = 0.0
        try:
            while process.poll() is None:
                if time.perf_counter() - start > timeout:
                    raise subprocess.TimeoutExpired(argv, timeout)
                peak = max(peak, vm_hwm_mb(process.pid))
                time.sleep(POLL_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        seconds = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(argv, process.returncode,
                                           out.read(), err.read())
    return seconds, done, peak


def fresh_import_s() -> float:
    """Wall time of a fresh interpreter that only imports ``repro.cli``."""
    seconds, done, _ = run_timed([sys.executable, "-c", "import repro.cli"], 60.0)
    if done.returncode != 0:
        raise RuntimeError(
            "fresh import of repro.cli failed: "
            + done.stderr.decode(errors="replace")[-500:]
        )
    return seconds
