"""Results stay the same unless a change says why.

``scripts/result_digest.py`` hashes every result, partition, precondition
report and graph of the benchmark's seed-1 grid and climb pools.  A change
that alters any of them must record the new line here and say why in
CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED_1 = (
    "553f8cfcb46ac0836906055c9108707c787bcb63f287f4c89075dca34eea80dc  seed=1 "
    "solve_calls=89 "
    "partitions=5950abcbddc59a409bc625dfce38fa253bf04c3f18fd8807badeda282c4177e3 "
    "preconditions=6e6f6057a2330bbe05d87434d08a8c874748f28a71d903834aa4a37548146df9 "
    "graphs=98 8edd19bce714172734adb2c0de27f586577cdb3dcb1b1858b9a5741125715b20"
)


def test_seed_1_digest_is_the_recorded_one():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "result_digest.py"), "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert done.stdout.splitlines() == [SEED_1]
