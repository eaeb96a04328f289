import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()
except BrokenPipeError:
    # The reader closed stdout: point it at devnull so that the exit-time
    # flush is silent, and exit as a process killed by SIGPIPE does.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 141
sys.exit(code)
