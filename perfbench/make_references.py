"""Regenerate ``references.json``: output digests at the default seed.

    python3 perfbench/make_references.py [workload ...]

Run this only when a change is *meant* to alter simulated outputs (a
generator version bump, a fixed model bug); the benchmark otherwise
treats any digest change as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]

from perfbench import checks  # noqa: E402
from perfbench.common import OUT, Context  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def main(argv) -> int:
    import importlib

    names = argv or list(WORKLOADS)
    current = json.loads(checks.REFERENCES.read_text()) if checks.REFERENCES.exists() else {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        module = importlib.import_module(f"perfbench.{WORKLOADS[name]}")
        scratch = Path(tempfile.mkdtemp(prefix="references-", dir=OUT))
        ctx = Context(workload=name, seed=checks.DEFAULT_SEED, seconds=0.0,
                      trace=False, out=scratch)
        # Check against nothing while regenerating what we check against.
        current.pop(name, None)
        checks.REFERENCES.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        try:
            module.measure(ctx)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if ctx.ops.failed:
            print(f"{name}: checks failed {ctx.ops.reasons}; not recorded")
            return 1
        current[name] = ctx.info["digests"]
        print(f"{name}: {len(ctx.info['digests'])} digests")
    checks.REFERENCES.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
