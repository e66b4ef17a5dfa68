"""The argument parser of `mlsim` and of the scripts: a usage error is a
coded `usage` issue and exit 3, not argparse's exit 2, which the exit codes
of `mlsim.cli` give to a diagnosed deadlock.  Only a command line imports
it, so the library path never imports `argparse`."""

from __future__ import annotations

import argparse
import sys

from .cli import EXIT_INVALID
from .errors import Issue


class UsageParser(argparse.ArgumentParser):
    """An `ArgumentParser` whose usage error prints the usage and a `usage`
    issue on stderr and exits 3.  Its subcommands' parsers are of the same
    class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(Issue("usage", f"{self.prog}: {message}"), file=sys.stderr)
        sys.exit(EXIT_INVALID)
