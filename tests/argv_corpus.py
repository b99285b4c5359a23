"""Argument lists that cli.run() must parse exactly as its full parser does.

Plain Python with no third-party import, so that the corpus can also be
run as a script under interpreters that have no pytest or numpy.
"""


def refused_values(design):
    """Table-shaped argv lists with a value that a type function refuses:
    the first refused value in argv order is reported, before a missing
    design or required flag."""
    sweep = ["payload-sweep", design, "--alpha", "15:75:15deg", "--d", "0:0.04:0.01"]
    optimize = ["optimize", design, "--m", "0.008:0.03", "--r", "0.005:0.08"]
    reversed_alpha = ["--alpha", "75:15:15deg", "--d", "0:0.04:0.01"]
    rest = ["--theta-init", "40:83deg", "--grip-budget", "36"]
    return [
        ["analyze", design, "--d-obj", "nan"], sweep + ["--d-obj", "nan"],
        ["payload-sweep", design, "--alpha", "nan:75:15deg", "--d", "0:0.04:0.01"],
        ["payload-sweep", design] + reversed_alpha,
        optimize + ["--theta-init", "83:40deg", "--grip-budget", "36"],
        ["pose-sweep", design, "--samples", "many"], sweep + ["--workers", "x"],
        # two refused values in each order, a refused value with a required
        # flag or the design missing, or before the design, and int's
        # ValueError next to a refused range
        ["optimize", design, "--m", "1:0", "--r", "1:0"] + rest,
        ["optimize", design, "--r", "1:0", "--m", "1:0"] + rest,
        ["optimize", design, "--r", "0.005:0.08", "--m", "1:0"],
        ["pose-sweep", "--samples", "many"], ["analyze", "--d-obj", "nan", design],
        ["payload-sweep", design, "--workers", "x"] + reversed_alpha,
        ["payload-sweep", design] + reversed_alpha + ["--workers", "x"],
    ]


def argv_corpus(design):
    """Well-formed and malformed argv lists for a design file path."""
    sweep = ["payload-sweep", design, "--alpha", "15:75:15deg", "--d", "0:0.04:0.01"]
    optimize = ["optimize", design, "--m", "0.008:0.03", "--r", "0.005:0.08"]
    return [
        # no subcommand, help, unknown or miscased subcommand names
        [], ["--help"], ["-h"], ["-h", "validate"], ["--bogus"], ["no-such-command"],
        ["Validate", design], ["valid", design], ["-"],
        # well-formed requests of each subcommand
        ["validate", design], ["analyze", design], ["analyze", design, "--d-obj", "0.05"],
        sweep, sweep + ["--d-obj", "0.05", "--workers", "3"],
        optimize + ["--theta-init", "40:83deg", "--grip-budget", "36"],
        ["pose-sweep", design], ["pose-sweep", design, "--samples", "19"],
        # missing and extra arguments, options of another subcommand
        ["validate"], ["analyze", "--d-obj", "0.05"], ["validate", design, "extra"],
        ["validate", design, "--d-obj", "1"], ["validate", design, "--bogus"],
        ["validate", design, "-x"], ["analyze", design, "--d-obj"],
        ["payload-sweep", design, "--alpha", "15:75:15deg"],
        optimize + ["--theta-init", "40:83deg"],
        # option spellings: =value, abbreviations, negative values
        ["analyze", design, "--d-obj=0.05"], ["analyze", design, "--d-o", "0.05"],
        ["analyze", design, "--d", "0.05"],
        ["pose-sweep", design, "--samp", "7"], ["pose-sweep", design, "--samples=7"],
        optimize + ["--theta=40:83deg", "--grip-budget", "36"],
        optimize + ["--theta-init", "40:83deg", "--grip", "36"],
        sweep + ["--w", "2"],
        ["analyze", design, "--d-obj", "-0.05"], ["analyze", design, "--d-obj=-0.05"],
        ["pose-sweep", design, "--samples", "-3"],
        # repeated options, positionals after options, "--"
        ["analyze", design, "--d-obj", "0.01", "--d-obj", "0.05"],
        ["analyze", "--d-obj", "0.05", design], ["pose-sweep", "--samples", "7", design],
        ["validate", "--", design], ["validate", design, "--"], ["--", "validate", design],
        ["analyze", design, "--", "--d-obj", "0.05"],
        ["analyze", "--d-obj", "0.05", "--", design],
        # values the type functions refuse
        *refused_values(design),
        # shapes only the table parse sees: an empty value, a negative value
        # argparse takes for a flag, a refused value repeated, a value that
        # is itself a flag, "-" and "-x" as the design, flags before the
        # design, small counts and numbers with underscores
        ["analyze", design, "--d-obj", ""], ["analyze", design, "--d-obj", "-1e-3"],
        ["analyze", design, "--d-obj", "nan", "--d-obj", "0.05"],
        ["pose-sweep", design, "--samples", "-1_000"],
        ["payload-sweep", design, "--alpha", "--d", "0:0.04:0.01"],
        ["analyze", design, "--d-obj", "--d-obj"],
        ["validate", "-"], ["analyze", "-", "--d-obj", "0.05"], ["analyze", "-x"],
        ["payload-sweep", "--alpha", "15:75:15deg", "--d", "0:0.04:0.01", design],
        ["optimize", "--m", "0.008:0.03", "--r", "0.005:0.08", "--theta-init", "40:83deg",
         "--grip-budget", "36", design],
        sweep + ["--workers", "0"], ["pose-sweep", design, "--samples", "2"],
        ["pose-sweep", design, "--samples", "1_000"], ["analyze", design, "--d-obj", "1_000"],
        ["payload-sweep", design, "--alpha", "1_5:7_5:1_5deg", "--d", "0:0.04:0.01"],
        # subcommand help
        ["validate", "-h"], ["pose-sweep", design, "--help"],
        ["analyze", design, "--d-obj", "1", "-h"], ["validate", design, "--help=x"],
    ]
