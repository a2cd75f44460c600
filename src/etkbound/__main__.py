import sys


def _import_layers(argv: list[str]) -> None:
    """Import the layers of the command in argv before cli, which would import them on first use.

    The command is the first argument that is not an option, the only form
    the top-level parser takes, and `bound --oracle` runs the oracle too; a
    layer this scan misses is still imported on first use.  Children cache
    no bytecode, so every layer is compiled, and compiled after cli, its
    imports and its parser, the layers left 0.1-0.4 MiB more of freed heap
    resident than the commands' arrays reuse: `verify fc-bounds` and `bound`
    on bound_dense's input peaked that much higher in RSS.
    """
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    if command == "bound":
        from . import bounds  # noqa: F401
    if command == "discrepancy" or (command == "bound" and "--oracle" in argv):
        from . import oracle  # noqa: F401
    if command == "verify":
        from . import verify  # noqa: F401


_import_layers(sys.argv[1:])

from .cli import main  # noqa: E402

sys.exit(main())
