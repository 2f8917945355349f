"""Command line entry point.

Subcommands map one-to-one onto the runs in pipeline; each writes its files
into an output directory and a manifest digesting them.  Exit codes: 0 on
success, 2 for configuration or parameter problems, 3 for I/O failures.
A run that fails removes every directory it created, and nothing else.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from . import __version__
from ._kernels import BACKEND
from .config import load_config, resolve_seed
from .errors import ConfigError, DegenerateInputError, MessageEncodingError, ParameterError
from .pipeline import (
    resolve_output_dir,
    run_contrast_map,
    run_detector_check,
    run_qkd,
    run_reconstruct,
    run_spectra,
    write_manifest,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwmqkd",
        description="Spin-encoded key distribution over a simulated four-wave-mixing channel.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file overriding the defaults")
        p.add_argument("--seed", type=lambda s: int(s, 0), help="random seed override")
        p.add_argument("--out", help="output directory")
        return p

    add("spectra", "tabulate complex signal spectra per delay and tensor condition")
    add("contrast-map", "tabulate detected contrasts and port ratios at both settings")
    p_rec = add("reconstruct", "invert a measured ratio table into a field map")
    p_rec.add_argument("--input", help="ratio CSV to invert (defaults to reconstruct.input)")
    add("qkd", "run a full key distribution session")
    add("detector-check", "exercise photon counting, SiPM readout and contrast resolution")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ParameterError, DegenerateInputError, MessageEncodingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(args.seed, config)
    out_dir = resolve_output_dir(args.out, config, args.command)

    # Resolved first: "new/../kept" names kept, which existed before the run.
    created = [p for p in (d.resolve() for d in (out_dir, *out_dir.parents)) if not p.exists()]
    try:
        if args.command == "spectra":
            files = run_spectra(config, out_dir)
        elif args.command == "contrast-map":
            files = run_contrast_map(config, out_dir)
        elif args.command == "reconstruct":
            files = run_reconstruct(config, out_dir, input_path=args.input)
        elif args.command == "qkd":
            files = run_qkd(config, seed, out_dir)
        else:
            files = run_detector_check(config, seed, out_dir)
        manifest = write_manifest(out_dir, args.command, config, seed, files)
    except BaseException:
        for d in created:
            shutil.rmtree(d, ignore_errors=True)
        raise
    for f in [*files, manifest]:
        print(f.as_posix())
    print(f"backend: {BACKEND}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
