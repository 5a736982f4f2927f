"""`python -m addalg`: the addalg command line."""

import sys

from .cli import main

sys.exit(main())
