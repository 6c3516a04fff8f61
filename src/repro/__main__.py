"""``python -m repro <subcommand>``: the ``crossover`` front door."""

import sys

from repro.cli import main

sys.exit(main())
