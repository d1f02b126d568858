#!/usr/bin/env python3
"""Record the result fingerprints of finished untraced runs as the baseline.

    python3 perfbench/record_fingerprints.py

Reads every perfbench/_work/<workload>-seed<n>-trace0/result.json that has
no failed unit and merges its fingerprint into perfbench/fingerprints.json,
which run.py compares each later run against. Re-record only in a change
that explains why fixed-seed results moved.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    path = HERE / "fingerprints.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    for result_path in sorted((HERE / "_work").glob("*-trace0/result.json")):
        result = json.loads(result_path.read_text())
        if result["failed"] == 0 and result["fingerprint"] is not None:
            recorded.setdefault(result["workload"], {})[str(result["seed"])] = \
                result["fingerprint"]
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: " + ", ".join(f"{w} seeds {sorted(s, key=int)}"
                                        for w, s in recorded.items()))


if __name__ == "__main__":
    main()
