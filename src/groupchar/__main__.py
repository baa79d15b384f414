"""``python -m groupchar``: the same command line as the ``groupchar`` script."""

from .cli import app

if __name__ == "__main__":
    app()
