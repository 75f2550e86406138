"""Record the battery's table digests into ``perfbench/golden.json``.

Runs one default cold battery pass and stores the digest of every
experiment's deterministic output.  Re-record only when a change alters
the paper tables on purpose; the diff of ``golden.json`` then shows
which experiments moved.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import battery
import checks


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    record = battery.run_pass("golden")
    problems = [p for p in record["points"] if not p["ok"]]
    if record["status"] != 0 or problems:
        print(f"battery pass failed: status {record['status']}, {problems}", file=sys.stderr)
        return 1
    checks.GOLDEN.write_text(json.dumps({"battery": record["digests"]}, indent=2) + "\n")
    print(f"recorded {len(record['digests'])} experiment digests in {checks.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
