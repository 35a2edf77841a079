import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import prepare  # noqa: E402

prepare()
