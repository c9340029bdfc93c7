"""``python -m repro`` dispatches to the CLI."""

import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()
except BrokenPipeError:
    # stdout's reader left (``| head``): exit quietly, as a SIGPIPE death
    # would.  SIGPIPE stays ignored, or ``serve`` dies with any client.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 141
sys.exit(code)
