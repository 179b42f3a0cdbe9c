import sys
from pathlib import Path

# The benchmark measures the sources of this checkout, so its tests import them too.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
