"""One benchmark set-up in a fresh interpreter, timed by ``run.py``.

Imports the program, loads the workload's config and builds its connector,
then prints ``ready``. Usage: ``python3 perfbench/setup_probe.py <workload>``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workloads.make(sys.argv[1], ROOT).prepare()
    print("ready", flush=True)
