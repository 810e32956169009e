import os
import sys

# The bench scripts import each other as top-level modules, as they do
# when run as ``python3 perfbench/<script>.py``.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
