"""Times one fresh-process set-up of mellinkit and prints it in seconds.

Set-up is the import of every module plus the build of the identity
registry and its series handles, i.e. everything that precedes the first
``verify`` call. Run from the repository root:

    python3 perfbench/setup_probe.py            # mellinkit set-up
    python3 perfbench/setup_probe.py baseline   # fixed stdlib imports

The ``baseline`` mode imports a fixed set of standard-library modules that
mellinkit does not use; its time follows the machine's module-loading
speed and calibrates the set-up time (see ``run.setup_seconds``).
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

if sys.argv[1:] == ["baseline"]:
    import asyncio, decimal, email.message, fractions, http.client, inspect  # noqa: E401,F401
    import logging, pickle, statistics, unittest, xml.dom.minidom  # noqa: E401,F401
else:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    from mellinkit import cli, harness  # noqa: F401

    harness.list_identities()
print(repr(time.perf_counter() - T0))
