"""Set-up probe: import toricflow.cli, then load and validate configs.

    python3 perfbench/setup_probe.py CONFIG [CONFIG ...]

run.py times this in fresh interpreters; the wall time is one `setup_s`
sample, the cost a user pays before every CLI call does any work.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from toricflow.cli import load_config  # noqa: E402


def main(paths: list[str]) -> int:
    for path in paths:
        load_config(path).validate()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
