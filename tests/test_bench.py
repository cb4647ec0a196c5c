import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_benchmark_selftest_passes():
    # The harness imports names from the program; a removed one fails here.
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
