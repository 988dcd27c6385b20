"""Fresh-process set-up time: import solitonlab, load and validate configs.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG_SPECS_JSON
where CONFIG_SPECS_JSON is a JSON list of [config_path, [overrides...]].
Prints the elapsed seconds; exits 1 if any config fails validation.
"""

import json
import sys
import time


def main() -> int:
    src, specs = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    from solitonlab import cli

    problems = []
    for path, overrides in specs:
        config = cli.apply_overrides(cli.load_config(path), overrides)
        problems += cli.validate(config)
    elapsed = time.perf_counter() - start
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
