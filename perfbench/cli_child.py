"""Traced CLI child: ``cli_child.py SPANS_PATH ARGV...``.

Times the import of heegaard2.cli, installs the span wrappers, calls
``cli.main(argv)`` and writes its spans and import time to SPANS_PATH as
JSON for the parent benchmark process.  Exits with main's exit code.
"""

import json
import sys
from time import perf_counter

from spans import CLI_MAIN, Recorder

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import heegaard2.cli

    import_ms = (perf_counter() - start) * 1000
    modules = {
        name: getattr(heegaard2, name)
        for name in ("fgroup", "surgery", "classify", "farey", "complexes", "goeritz", "cli")
    }
    recorder = Recorder()
    recorder.install(modules, extra=(CLI_MAIN,))
    code = heegaard2.cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as f:
        json.dump({"import_ms": import_ms, "spans": recorder.to_rows()}, f)
    sys.exit(code)
