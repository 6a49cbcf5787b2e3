"""Host-speed gauge: a fresh interpreter that loads what the CLI loads, minus the CLI.

    python3 perfbench/gauge.py

``run.py`` times this process from spawn to exit.  It imports the standard
and third-party modules that ``triblucas.cli`` pulls in but nothing from the
repository, so no change to the program can move it; only the host's speed
does.  Start-up of this kind followed the host's minute-to-minute speed
(see README, *Host noise*).
"""

import argparse  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import fractions  # noqa: F401
import json  # noqa: F401
import re  # noqa: F401
import threading  # noqa: F401

import mpmath  # noqa: F401
