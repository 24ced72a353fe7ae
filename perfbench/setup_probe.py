"""Times the cold set-up of one scan in a fresh interpreter.

Set-up is everything before the first function is analysed: importing
`wherescrypto`, loading the signature catalog, building every variant,
and reading the image and the entry list.  Prints one JSON object of
seconds.  Usage:

    python3 perfbench/setup_probe.py IMAGE ENTRIES
"""

import os
import sys
import time


def main() -> int:
    image_path, entries_path = sys.argv[1:3]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    start = time.perf_counter()
    from wherescrypto import cli, report
    imported = time.perf_counter()
    catalog = cli.load_catalog()
    loaded = time.perf_counter()
    for doc in catalog.values():
        for variant in doc.variants:
            report.build_variant(variant)
    built = time.perf_counter()
    with open(image_path, "rb") as handle:
        handle.read()
    report.load_entries(entries_path)
    done = time.perf_counter()

    import json
    print(json.dumps({"setup_s": done - start,
                      "import_s": imported - start,
                      "catalog_s": loaded - imported,
                      "build_s": built - loaded,
                      "read_s": done - built}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
