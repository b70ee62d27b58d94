"""The jordanform command line with spans on, for the traced verify-cli run.

    python3 bench/traced_cli.py SPANS.json verify matrix.json --format json

runs ``jordanform verify matrix.json --format json`` (the package must be
importable, e.g. through PYTHONPATH) and adds the seconds spent in each
span to the totals kept in SPANS.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402


def main() -> int:
    span_file = Path(sys.argv[1])
    import jordanform.cli as cli

    spans = layers.Spans().install(layers.SHARE_SPANS.values())
    try:
        return cli.run(sys.argv[2:])
    finally:
        totals = json.loads(span_file.read_text(encoding="utf-8"))
        for name, seconds in spans.seconds.items():
            totals[name] = totals.get(name, 0.0) + seconds
        span_file.write_text(json.dumps(totals), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
