"""Results stay the same unless a change says why.

``scripts/result_digest.py`` hashes every result, partition, precondition
report, squares margin and graph of the benchmark's seed-1 grid and climb
pools, and the exit code and output of every op of its cli pool.  A change
that alters any of them must record the new line here and say why in
CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED_1 = (
    "ae48ea583112c1257714a851a154e32d0319d9d95c2228fac35b1c237e5f1785  seed=1 "
    "solve_calls=89 "
    "partitions=5950abcbddc59a409bc625dfce38fa253bf04c3f18fd8807badeda282c4177e3 "
    "preconditions=7de3d200d6a9ffdcecc64e4a9d330a28a67ed6550fbce0e6fe214a0789de47c9 "
    "margins=4a0b4ee62975d62d872d4980888d9cf9ed7669426c4acd934ada780a552ae8d9 "
    "graphs=98 03db25ba933c6f1fe66af0c9bc5d23c0d597f7213e4fff3376a1ee3ee09da1b7 "
    "cli=a9e57315337e5eebc1c78dcd337279b8e91134239554ce885f3c73cf414d44aa"
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
