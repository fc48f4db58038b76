"""The parse step the CLI once used, kept as a test oracle.

``ozaki.cli._parse`` hands a command line that starts with a subcommand name
straight to that subcommand's parser.  The tests check that ``ozaki.cli.main``
exits, prints and complains exactly as it does with this step in its place,
which runs every command line through the full parser.  Both paths run in
the same interpreter, so no argparse message is written down here.
"""

from ozaki import cli


def parse_with_full_parser(argv):
    return cli._build_parser().parse_args(cli._attach_negative_values(argv))
