"""Run the ruinlab command line from a source checkout.

``python3 bench/ruinlab_cli.py <args>`` with ``PYTHONPATH=src`` behaves
like the installed ``ruinlab`` script: ``ruinlab.cli`` has no ``__main__``
block, so ``python -m ruinlab.cli`` would exit without doing anything.
"""
import sys

from ruinlab.cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
