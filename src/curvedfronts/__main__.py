"""`python -m curvedfronts`: the command line of cli_io."""
from .cli_io import main

if __name__ == "__main__":
    raise SystemExit(main())
