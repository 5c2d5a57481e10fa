"""The verdicts of the replay grid of ``bench/replay.py`` are pinned.

The grid (n = 1..8 at two scales, every CLI subcommand and every
``verify_bundle`` corruption) is replayed through the script's own case
code, and each case's verdict (exit code or raised error type,
``passed``, ``routes_agree`` and the names of the failing rows; no values)
is compared with the golden file ``replay_verdicts.json``.  A change that
moves a verdict rewrites the file with ``python bench/replay.py pin`` and
declares each changed line.  The file records today's known defects as
they are; it describes them, it does not excuse them.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "replay_verdicts.json"


def _load_replay():
    spec = importlib.util.spec_from_file_location("replay", ROOT / "bench" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def replay():
    return _load_replay()


def test_importing_the_replay_script_leaves_path_and_environment_alone():
    path, environ = list(sys.path), dict(os.environ)
    _load_replay()
    assert sys.path == path
    assert dict(os.environ) == environ


def test_replay_grid_verdicts_match_the_golden_file(replay):
    want = json.loads(GOLDEN.read_text())
    got = replay.verdicts()
    assert sorted(got) == sorted(want)
    changed = ["%s: %s -> %s" % (case, want[case], got[case])
               for case in sorted(want) if got[case] != want[case]]
    assert changed == []
