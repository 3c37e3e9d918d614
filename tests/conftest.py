import sys
from pathlib import Path

# make oracles.py importable from every test module
sys.path.insert(0, str(Path(__file__).parent))

