"""The server half of ``served-read``: load the catalog, serve it, say so.

Started by ``programs.Served`` with the relation's row count as its only argument.
Prints ``ready <host> <port>`` once the catalog is loaded and warm, then
serves until its stdin closes — which also happens when the parent dies, so
no exit path of the benchmark leaves this process behind.
"""

from __future__ import annotations

import sys

import repro

from programs import load_catalog, warm_up
from workloads import index_catalog


def main() -> int:
    catalog = index_catalog(int(sys.argv[1]))
    session = repro.connect()
    load_catalog(session, catalog)
    warm_up(session, catalog)
    with repro.serve(session) as handle:
        host, port = handle.address
        print(f"ready {host} {port}", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
