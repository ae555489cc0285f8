"""``python -m hardyheat``: the hardyheat command line (hardyheat.cli)."""
from .cli import main

raise SystemExit(main())
