"""Where and on what a result was measured, from the standard library only."""
from __future__ import annotations

import os
import platform
import subprocess


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cgroup_v1_quota() -> str | None:
    """cgroup v1 quota and period, in the "quota period" form of cpu.max."""
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None:
        return None
    return f"{'max' if quota == '-1' else quota} {period}"


def _git_commit(root: str) -> tuple[str, bool | None]:
    """Commit and dirty flag; ("unknown", None) outside a git checkout.

    git runs only when the checkout itself holds .git, so it never
    searches the directories above the checkout.
    """
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown", None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, env=env, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if head.returncode != 0:
        return "unknown", None
    return head.stdout.strip(), bool(status.stdout.strip())


def host_record(root: str) -> dict:
    """Commit, thread settings and machine load, taken before any worker starts."""
    commit, dirty = _git_commit(root)
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max") or _cgroup_v1_quota(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def numeric_record(ck) -> dict:
    """cpnkit location, numpy version and BLAS from numpy's build config."""
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {}) or {}
    except (TypeError, ValueError):  # numpy builds without mode="dicts"
        pass
    return {
        "cpnkit_file": os.path.abspath(ck.__file__),
        "cpnkit_version": ck.__version__,
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }
