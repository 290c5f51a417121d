"""``python -m crchern``: the ``crchern`` command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
